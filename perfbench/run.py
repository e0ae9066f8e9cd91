"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload disc-720p --seed 99 --seconds 30 --trace 0

Inputs are generated by ``gen.py`` in a child process and cached under
``.perfbench_cache/`` (one seed per workload is kept), so synthesis counts
neither in ``setup_s`` nor in ``peak_rss_mb``. With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the load is this process and at most one pipeline thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
OUT = ROOT / ".perfbench_out"
GEN_TIMEOUT_S = 150


def _input_key() -> str:
    """Hash of every source the inputs depend on: the generator's own files and
    the evflow modules it writes them with."""
    h = hashlib.sha1()
    sources = [HERE / n for n in ("gen.py", "workloads.py", "oracles.py")]
    for path in sources + sorted((ROOT / "src" / "evflow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def ensure_inputs(workload: str, seed: int) -> Path:
    """The cached inputs for (workload, seed), generated in a child process if missing."""
    base = CACHE / workload
    target = base / f"seed{seed}-{_input_key()}"
    if (target / "expect.json").exists():
        return target
    if base.exists():
        shutil.rmtree(base)  # keep one seed per workload: busy inputs are large
    tmp = base / "partial"
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(tmp)],
        check=True, timeout=GEN_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    tmp.rename(target)
    return target


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="evflow benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "evflow" / "__init__.py").is_file():
        print(f"evflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness
    import workloads

    w = workloads.make(args.workload, args.seed)
    inputs = ensure_inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, e2e = harness.run(w, inputs, args.seconds, bool(args.trace),
                              OUT / f"{stem}.trace.jsonl" if args.trace else None)
    line = json.dumps(result)
    (OUT / f"{stem}.result.json").write_text(json.dumps({**result, "end_to_end": e2e}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
