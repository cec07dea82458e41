"""The array passes of ``repair key`` and ``pick tuples`` against the
row-at-a-time oracle of :mod:`reference.constructs`.

On every input both must agree to the bit: the same rows in the same
order, the same variable ids, distributions and names, or the same
error message.
"""

import math
import random

import pytest

from reference import constructs
from repro.core.pick_tuples import pick_tuples
from repro.core.repair_key import repair_key
from repro.core.variables import VariableRegistry
from repro.engine.expressions import Arithmetic, ColumnRef, Literal
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, NULL, TEXT
from repro.errors import PickTuplesError, RepairKeyError

SCHEMA = Schema.of(("k", INTEGER), ("f", FLOAT), ("s", TEXT), ("w", FLOAT))
NAN = float("nan")


def _outcome(construct, relation, *args, **kwargs):
    """What ``construct`` makes of the input, as comparable text."""
    registry = VariableRegistry()
    try:
        urel = construct(relation, *args, registry=registry, **kwargs)
    except (RepairKeyError, PickTuplesError) as exc:
        return f"{type(exc).__name__}: {exc}"
    variables = sorted(registry.variables())
    return repr(
        (
            [(c.name, c.type.name) for c in urel.schema],
            urel.payload_arity,
            urel.cond_arity,
            urel.relation.rows,
            [(v, registry.distribution(v), registry.name(v)) for v in variables],
        )
    )


def _agree(construct, oracle, relation, *args, **kwargs):
    got = _outcome(construct, relation, *args, **kwargs)
    assert got == _outcome(oracle, relation, *args, **kwargs)
    return got


def _repair(keys, weight_by="w", rows=(), schema=SCHEMA):
    relation = Relation(schema, rows)

    def run(construct):
        return lambda rel, registry, **kw: construct(rel, keys, registry, **kw)

    return _agree(
        run(repair_key),
        run(constructs.repair_key),
        relation,
        weight_by=weight_by,
        name_hint="rk1",
    )


def _generated_rows(rng, n, bad_weights):
    weights = [0.0, 0.5, 1.0, 2.5, 1e16, 3]
    if bad_weights:
        weights += [NULL, -1.0, math.inf, -math.inf, NAN]
    return [
        (
            rng.choice([1, 2, 3, NULL]),
            rng.choice([0.5, 1.0, 1.5, NAN, -0.0, NULL]),
            rng.choice(["a", "b", NULL]),
            rng.choice(weights),
        )
        for _ in range(n)
    ]


KEYS = [[], ["k"], ["f"], ["s"], ["k", "f"], ["f", "s", "k"]]


@pytest.mark.parametrize("seed", range(40))
def test_repair_key_generated(seed):
    rng = random.Random(seed)
    rows = _generated_rows(rng, rng.randrange(0, 40), bad_weights=seed % 3 == 0)
    for keys in KEYS:
        for weight_by in (None, "w", Arithmetic("*", ColumnRef("w"), Literal(2.0))):
            _repair(keys, weight_by, rows)


@pytest.mark.parametrize("seed", range(40))
def test_pick_tuples_generated(seed):
    rng = random.Random(seed)
    rows = [
        (k, f, s, rng.choice([0.0, 0.25, 1.0] + ([1.5, -0.5, NULL, NAN] if seed % 3 == 0 else [])))
        for k, f, s, _ in _generated_rows(rng, rng.randrange(0, 40), False)
    ]
    relation = Relation(SCHEMA, rows)
    for probability in (None, 0.3, "w", Arithmetic("*", ColumnRef("w"), Literal(0.5))):
        for independently in (False, True):
            _agree(
                pick_tuples,
                constructs.pick_tuples,
                relation,
                probability=probability,
                independently=independently,
                name_hint="pt1",
            )


class TestRepairKeyCases:
    def test_null_and_nan_keys_group_together(self):
        rows = [(NULL, NAN, "a", 1.0), (NULL, NAN, "b", 3.0), (1, NAN, "c", 1.0),
                (1, float("nan"), "d", 1.0)]
        text = _repair(["k", "f"], rows=rows)
        assert "rk1[('__null__',),nan]" in text

    def test_integer_and_float_keys_with_equal_values(self):
        schema = Schema.of(("i", INTEGER), ("x", FLOAT), ("w", FLOAT))
        rows = [(1, 1.0, 1.0), (2, 2.0, 1.0), (1, 1.0, 2.0), (2, 2.5, 1.0)]
        _repair(["i"], rows=rows, schema=schema)
        _repair(["x"], rows=rows, schema=schema)

    def test_zero_weights_and_single_candidates(self):
        rows = [(1, 0.5, "a", 0.0), (1, 0.5, "b", 2.0), (2, 0.5, "c", 1.0),
                (3, 0.5, "d", 1.0), (3, 0.5, "e", 0.0), (3, 0.5, "f", 3.0)]
        text = _repair(["k"], rows=rows)
        assert "'a'" not in text and "'e'" not in text

    def test_empty_input(self):
        _repair(["k"], rows=[])
        _repair([], rows=[])

    def test_summation_order(self):
        """1e16 + 1.0 + 1.0 left to right is 1e16, and so is the total."""
        rows = [(1, 0.5, "a", 1e16), (1, 0.5, "b", 1.0), (1, 0.5, "c", 1.0)]
        text = _repair(["k"], rows=rows)
        assert repr(1.0 / 1e16) in text

    def test_unsorted_input_keeps_group_order(self):
        rows = [(2, 0.5, "a", 1.0), (1, 0.5, "b", 1.0), (2, 0.5, "c", 1.0),
                (1, 0.5, "d", 1.0), (3, 0.5, "e", 1.0)]
        _repair(["k"], rows=rows)

    def test_callable_weights(self):
        rows = [(1, 0.5, "a", 1.0), (1, 0.5, "b", 3.0)]
        _repair(["k"], lambda row: row[3] + 1, rows)

    @pytest.mark.parametrize(
        "weight, message",
        [
            (NULL, "weight expression evaluated to NULL on (2, 0.5, 'x', None)"),
            (NAN, "non-finite weight nan on row (2, 0.5, 'x', nan)"),
            (math.inf, "non-finite weight inf on row (2, 0.5, 'x', inf)"),
            (-math.inf, "non-finite weight -inf on row (2, 0.5, 'x', -inf)"),
            (-1.0, "negative weight -1.0 on row (2, 0.5, 'x', -1.0)"),
        ],
    )
    def test_bad_weight_messages(self, weight, message):
        rows = [(2, 0.5, "y", 1.0), (2, 0.5, "x", weight), (1, 0.5, "z", weight)]
        assert _repair(["k"], rows=rows) == f"RepairKeyError: {message}"

    def test_zero_total_message(self):
        rows = [(1, 0.5, "a", 0.0), (1, 0.5, "b", 0.0)]
        assert _repair(["k"], rows=rows) == (
            "RepairKeyError: key group (1,) has total weight 0.0; "
            "no repair can choose a tuple"
        )

    def test_overflowing_total_message(self):
        rows = [(1, 0.5, "a", 1e308), (1, 0.5, "b", 1e308)]
        assert "total weight inf" in _repair(["k"], rows=rows)

    def test_first_bad_group_wins(self):
        """Groups are checked in first-seen order, each for bad weights
        first and then for its total: the zero-total group seen first is
        reported ahead of a later group's negative weight, and a bad
        weight ahead of a later zero total."""
        zero_first = [(1, 0.5, "a", 0.0), (2, 0.5, "b", -1.0), (1, 0.5, "c", 0.0)]
        assert "key group (1,)" in _repair(["k"], rows=zero_first)
        bad_first = [(2, 0.5, "b", -1.0), (1, 0.5, "a", 0.0), (2, 0.5, "c", NAN)]
        assert "negative weight -1.0" in _repair(["k"], rows=bad_first)
        later_row = [(2, 0.5, "b", 1.0), (1, 0.5, "a", 1.0), (2, 0.5, "c", NAN),
                     (2, 0.5, "d", -2.0)]
        assert "non-finite weight nan" in _repair(["k"], rows=later_row)


class TestPickTuplesCases:
    @pytest.mark.parametrize(
        "probability, message",
        [
            (NULL, "probability evaluated to NULL on row (1, 'b', None)"),
            (1.5, "probability 1.5 outside [0, 1] on row (1, 'b', 1.5)"),
            (-0.5, "probability -0.5 outside [0, 1] on row (1, 'b', -0.5)"),
            (NAN, "probability nan outside [0, 1] on row (1, 'b', nan)"),
        ],
    )
    def test_bad_probability_messages(self, probability, message):
        schema = Schema.of(("k", INTEGER), ("s", TEXT), ("p", FLOAT))
        relation = Relation(schema, [(1, "a", 0.5), (1, "b", probability), (2, "c", 2.0)])
        got = _agree(pick_tuples, constructs.pick_tuples, relation, probability="p")
        assert got == f"PickTuplesError: {message}"

    def test_duplicates_with_nan_share_a_variable(self):
        schema = Schema.of(("x", FLOAT), ("s", TEXT))
        relation = Relation(schema, [(NAN, "a"), (float("nan"), "a"), (NAN, "b")])
        text = _agree(pick_tuples, constructs.pick_tuples, relation, name_hint="pt1")
        assert text.count("pt1[nan,a]") == 1

    def test_zero_arity_input(self):
        relation = Relation(Schema([]), [(), (), ()])
        _agree(pick_tuples, constructs.pick_tuples, relation, name_hint="pt1")
        _agree(pick_tuples, constructs.pick_tuples, relation, independently=True)
