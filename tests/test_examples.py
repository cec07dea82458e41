"""Smoke tests: every example script runs to completion.

The examples are deliverables; each embeds its own correctness assertions
(e.g. random_walk.py asserts machine-precision agreement with numpy), so
"runs without raising" is a meaningful check.
"""

import io
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out.strip(), f"{script} produced no output"


def test_all_examples_present():
    assert {
        "quickstart.py",
        "random_walk.py",
        "nba_whatif.py",
        "data_cleaning.py",
        "sprout_safe_plans.py",
    } <= set(EXAMPLES)
