"""Every answer of the benchmark's statement streams, pinned, and the same over the wire.

``tools/answers.py`` replays the six workloads in-process at ``smoke``
scale and hashes what each statement answered (``conf()`` reads also as
seeded ``aconf()`` and under forced strategies).  A change that means to
change an answer rewrites ``tests/golden/answers.json`` with
``python tools/answers.py --write tests/golden/answers.json`` and says
why; any other change must leave the digests as they are.
"""

import json
import os

from tools import answers

GOLDEN = os.path.join(answers.ROOT, "tests", "golden", "answers.json")


def test_answers_match_the_committed_digests(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(answers.ROOT, "benchmarks"))
    with open(GOLDEN) as stream:
        expected = json.load(stream)
    got = answers.digests(answers.answers())
    assert {k for k in got if got[k] != expected.get(k)} == set()
    assert got.keys() == expected.keys()


def test_the_wire_preserves_every_answer(monkeypatch, capsys):
    """``--wire`` at one seed: every plain statement answers the same
    through the server and client as in-process."""
    monkeypatch.syspath_prepend(os.path.join(answers.ROOT, "benchmarks"))
    differ = answers.wire(seeds=(1,))
    assert differ == 0, capsys.readouterr().out
