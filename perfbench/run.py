"""Benchmark entry point, run from the root of a checkout:

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 20 --trace 0

The last line of standard output is the JSON result. The benchmark
measures the checkout's own ``src/halqa``; it exits with code 1, printing
no result, when the checkout lacks it or the fixtures.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    missing = [p for p in (root / "src" / "halqa", root / "tests" / "fixtures")
               if not p.is_dir()]
    if missing:
        sys.exit(f"perfbench: not a halqa checkout, missing {missing[0]}")
    sys.path[:0] = [str(root / "src"), str(root)]
    import halqa
    if Path(halqa.__file__).resolve().parent != root / "src" / "halqa":
        sys.exit(f"perfbench: halqa imported from {halqa.__file__}, "
                 f"not from {root / 'src'}")
    from perfbench.bench import main
    sys.exit(main())
