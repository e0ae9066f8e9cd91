"""evflow: event-camera detection pipeline toolkit.

EVB1 event streams (events), a synthetic moving-disc oracle (synth),
event-to-frame accumulation (frames), ZNCC temporal alignment (sync),
cross-camera label transfer (geometry), keyframed annotations and
average-precision scoring (labels), power/batching analysis (bench), and
the concurrent accumulate->detect pipeline (pipeline).
"""

from .events import EventStream, SensorGeometry
from .frames import PolarityFrame, accumulate
from .labels import BBox, Detection, Keyframe, Track

__version__ = "0.1.0"

__all__ = [
    "EventStream",
    "SensorGeometry",
    "PolarityFrame",
    "accumulate",
    "BBox",
    "Detection",
    "Keyframe",
    "Track",
    "__version__",
]
