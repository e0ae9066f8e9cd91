"""Suite-wide settings.

Hypothesis runs derandomized, with no example database and no deadline,
so every run draws the same examples and a slow shared host cannot fail
a property on timing alone. Hypothesis still caches what it reads from
the code under test (at collection time, before any fixture runs), so its
home is a temporary directory removed when the session ends, and the
suite writes no .hypothesis/ directory into the checkout.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("evflow", derandomize=True, database=None, deadline=None)
settings.load_profile("evflow")

_hypothesis_home = tempfile.TemporaryDirectory(prefix="evflow-hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    _hypothesis_home.cleanup()
