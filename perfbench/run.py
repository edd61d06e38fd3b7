"""extremenu benchmark: one workload per run, metrics as JSON on the last line.

Usage (from the repository root):
    python3 perfbench/run.py --workload verdict-mixed --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

The library is imported from ``src/`` of the checkout this file sits in.
"""

import time

T0 = time.perf_counter()  # set-up time is counted from here

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    try:
        import extremenu
    except ImportError as e:
        print(f"error: cannot import extremenu from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if not Path(extremenu.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: extremenu was imported from {extremenu.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import harness

    return harness.main(sys.argv[1:], T0)


if __name__ == "__main__":
    sys.exit(main())
