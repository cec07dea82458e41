"""Entry point named by ``BENCHMARK.json``:

    python3 benchmarks/harness/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

is ``python -m benchmarks.harness run`` with the same arguments.  It needs
the checkout it sits in (``src/repro``) and exits with an error without it.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"benchmarks/harness/run.py: no src/repro under {ROOT}; run it from a checkout")
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.harness.cli import main

    sys.exit(main(["run"] + sys.argv[1:]))
