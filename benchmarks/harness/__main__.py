"""``python -m benchmarks.harness run|compare`` from the repository root."""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")
)

from .cli import main  # noqa: E402

sys.exit(main())
