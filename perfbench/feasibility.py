"""Worst-case latency and real-time feasibility from a run's measured service times.

    python3 perfbench/feasibility.py .perfbench_out/disc-720p-seed99-trace0.result.json

The service time of one batch of B windows in the single-threaded
pipeline is B / fps_t1_bB. These times go into ``evflow.bench.sweep_batches``
at the 33,333 us frame period, which prints the batching model's table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

from evflow.bench import sweep_batches  # noqa: E402


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    e2e = json.loads(Path(argv[0]).read_text())["end_to_end"]
    service_s = {1: 1 / e2e["fps_t1_b1"], 4: 4 / e2e["fps_t1_b4"]}
    print(sweep_batches(sorted(service_s), service_s).format_table())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
