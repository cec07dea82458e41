"""Tests for U-relations: the wide encoding and world semantics."""

import random

import pytest

from reference.confidence import clause_probability
from reference.worlds import in_world, normalized, rows_with_conditions
from repro.core.lineage import canonical_clause, row_clauses
from repro.core.urelation import (
    URelation,
    atom_positions,
    condition_columns,
    encode_condition,
)
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER, TEXT
from repro.errors import ConditionError, SchemaError


@pytest.fixture
def registry():
    return VariableRegistry()


@pytest.fixture
def simple(registry):
    """Two-column payload with one binary variable x: row1 on x=0, row2 on
    x=1, row3 certain."""
    x = registry.fresh([0.4, 0.6], name="x")
    schema = Schema.of(("name", TEXT), ("score", INTEGER))
    return (
        URelation.from_conditions(
            schema,
            [("a", 1), ("b", 2), ("c", 3)],
            [((x, 0),), ((x, 1),), ()],
            registry,
        ),
        x,
    )


class TestEncoding:
    def test_wide_schema_shape(self, simple):
        urel, _ = simple
        assert urel.payload_arity == 2
        assert urel.cond_arity == 1
        assert urel.relation.schema.names == ["name", "score", "_v0", "_d0"]

    def test_conditions_are_pairs(self, simple):
        urel, x = simple
        assert [row[2:] for row in urel.relation.rows] == [
            (x, 0), (x, 1), (TOP_VARIABLE, 0)
        ]

    def test_true_condition_padded_with_top(self, simple):
        urel, _ = simple
        row = urel.relation.rows[2]
        assert row == ("c", 3, TOP_VARIABLE, 0)
        padded = urel.pad_to(3).relation.rows[2]
        assert padded[2:] == (TOP_VARIABLE, 0) * 3

    def test_atom_positions(self):
        assert atom_positions(2, 3) == [(2, 3), (4, 5), (6, 7)]
        names = [c.name for c in condition_columns(2, 1)]
        assert names == ["_v1", "_d1", "_v2", "_d2"]

    def test_decode_roundtrip(self, registry):
        x = registry.fresh([0.5, 0.5])
        y = registry.fresh([0.5, 0.5])
        condition = canonical_clause([(x, 1), (y, 0)])
        encoded = encode_condition(condition, 3)
        assert encoded[4:] == (TOP_VARIABLE, 0)
        schema = Schema([Column("a", INTEGER)] + condition_columns(3))
        relation = Relation(schema, [(0,) + encoded])
        assert row_clauses(URelation(relation, 1, 3, registry)) == [condition]

    def test_encode_overflow_rejected(self, registry):
        x = registry.fresh([0.5, 0.5])
        y = registry.fresh([0.5, 0.5])
        condition = canonical_clause([(x, 1), (y, 0)])
        with pytest.raises(ConditionError):
            encode_condition(condition, 1)

    def test_mismatched_rows_conditions(self, registry):
        schema = Schema.of(("a", INTEGER))
        with pytest.raises(SchemaError):
            URelation.from_conditions(schema, [(1,)], [], registry)

    def test_width_must_match_arities(self, registry):
        relation = Relation(Schema.of(("a", INTEGER), ("b", INTEGER), ("c", INTEGER)), [])
        assert URelation(relation, 1, 1, registry).cond_arity == 1
        for payload_arity in (0, 2):
            with pytest.raises(SchemaError):
                URelation(relation, payload_arity, 1, registry)

    def test_t_certain_wrap(self, registry):
        relation = Relation(Schema.of(("a", INTEGER)), [(1,)])
        urel = URelation.t_certain(relation, registry)
        assert urel.is_t_certain
        assert urel.cond_arity == 0


class TestWorldSemantics:
    def test_in_world(self, simple):
        urel, x = simple
        world0 = in_world(urel, {x: 0})
        assert sorted(world0.rows) == [("a", 1), ("c", 3)]
        world1 = in_world(urel, {x: 1})
        assert sorted(world1.rows) == [("b", 2), ("c", 3)]

    def test_possible_payloads(self, simple):
        urel, _ = simple
        assert len(urel.possible_payloads()) == 3

    def test_possible_excludes_zero_probability(self, registry):
        x = registry.fresh([0.0, 1.0])
        schema = Schema.of(("a", INTEGER))
        urel = URelation.from_conditions(
            schema, [(1,), (2,)], [((x, 0),), ((x, 1),)], registry
        )
        possible = urel.possible_payloads()
        assert possible.rows == [(2,)]

    def test_possible_deduplicates(self, registry):
        x = registry.fresh([0.5, 0.5])
        schema = Schema.of(("a", INTEGER))
        urel = URelation.from_conditions(
            schema, [(1,), (1,)], [((x, 0),), ((x, 1),)], registry
        )
        assert len(urel.possible_payloads()) == 1


class TestMaintenance:
    def test_pad_to(self, simple):
        urel, _ = simple
        padded = urel.pad_to(3)
        assert padded.cond_arity == 3
        assert len(padded.relation.schema) == 2 + 6
        # Conditions unchanged semantically.
        for (r1, c1), (r2, c2) in zip(
            rows_with_conditions(urel), rows_with_conditions(padded)
        ):
            assert r1 == r2 and c1 == c2

    def test_pad_narrowing_rejected(self, simple):
        urel, _ = simple
        with pytest.raises(SchemaError):
            urel.pad_to(0)

    def test_normalized_drops_zero_probability(self, registry):
        x = registry.fresh([0.0, 1.0])
        schema = Schema.of(("a", INTEGER))
        urel = URelation.from_conditions(
            schema, [(1,), (2,)], [((x, 0),), ((x, 1),)], registry
        )
        assert len(normalized(urel)) == 1

    def test_pretty_renders_conditions(self, simple):
        urel, _ = simple
        text = urel.pretty()
        assert "condition" in text and "↦" in text
        assert "⊤" in text and "0.4" in text and "(3 rows)" in text
        assert urel.pretty(max_rows=1).count("↦") == 1

    def test_pretty_marks_contradictions_and_t_certain_rows(self, simple, registry):
        urel, x = simple
        schema = Schema(tuple(urel.relation.schema) + tuple(condition_columns(1, 1)))
        rows = [("a", 1, x, 0, x, 1), ("b", 2, x, 1, TOP_VARIABLE, 0)]
        wide = URelation(Relation(schema, rows), 2, 2, registry)
        contradiction, alive = wide.pretty().splitlines()[2:4]
        assert contradiction.split(" | ")[-2].strip() == "⊥"
        assert contradiction.split(" | ")[-1].strip() == "0"
        assert alive.split(" | ")[-1].strip() == "0.6"
        certain = URelation.t_certain(urel.payload_relation(), registry)
        for line in certain.pretty().splitlines()[2:5]:
            assert [c.strip() for c in line.split(" | ")[-2:]] == ["⊤", "1"]

class TestConditionProbabilities:
    """The column-at-a-time product is the row-at-a-time product's
    arithmetic, at every size."""

    @staticmethod
    def wide(registry, arity, atom_rows):
        schema = Schema([Column("id", INTEGER)] + condition_columns(arity))
        rows = []
        for number, atoms in enumerate(atom_rows):
            row = [number]
            for var, value in atoms:
                row += [var, value]
            rows.append(tuple(row))
        return URelation(Relation(schema, rows), 1, arity, registry)

    @pytest.mark.parametrize("rows", [1, 15, 60])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_bit_identical_to_the_row_product(self, registry, arity, rows):
        rng = random.Random(arity)
        pool = [registry.fresh([0.1, 0.2, 0.7]) for _ in range(12)]
        top = (TOP_VARIABLE, 0)
        atom_rows = [
            [
                top if rng.random() < 0.2 else (var, rng.randrange(4))
                for var in rng.sample(pool, arity)
            ]
            for _ in range(rows)
        ]
        urel = self.wide(registry, arity, atom_rows)
        vectorized = urel.condition_probabilities()
        by_row = []
        for atoms in atom_rows:
            p = 1.0  # 1.0 * p1 * ... * pk in column order
            for var, value in atoms:
                if var != TOP_VARIABLE:
                    p *= registry.probability(var, value)
            by_row.append(p)
        assert vectorized == by_row
        # A clause's probability multiplies in variable order, not column
        # order: equal up to rounding only.
        assert vectorized == pytest.approx(
            [clause_probability(canonical_clause(atoms), registry) for atoms in atom_rows]
        )

    def test_repeated_variable_rows_keep_the_decode(self, registry):
        x, y = registry.fresh([0.25, 0.75]), registry.fresh([0.5, 0.5])
        atom_rows = [[(x, 1), (y, 1)]] * 20
        atom_rows[3] = [(x, 1), (x, 1)]  # a duplicate atom counts once
        atom_rows[7] = [(x, 1), (x, 0)]  # a contradiction is no world
        atom_rows[9] = [(TOP_VARIABLE, 0), (TOP_VARIABLE, 0)]
        urel = self.wide(registry, 2, atom_rows)
        got = urel.condition_probabilities()
        assert (got[0], got[3], got[7], got[9]) == (0.375, 0.75, 0.0, 1.0)

    def test_arrays_at_every_size_and_a_null_is_refused(self, registry):
        x = registry.fresh([0.25, 0.75])
        for rows in (0, 1, 15, 16):
            variables, values = self.wide(registry, 1, [[(x, 1)]] * rows).condition_arrays()
            assert variables.shape == values.shape == (1, rows)
        # A t-certain relation reads as one column of padding.
        certain = URelation.t_certain(self.wide(registry, 0, [[]] * 3).relation, registry)
        variables, _ = certain.condition_arrays()
        assert variables.tolist() == [[TOP_VARIABLE] * 3]
        assert certain.condition_probabilities() == [1.0] * 3
        urel = self.wide(registry, 1, [[(x, 1)], [(None, None)]])
        with pytest.raises(ConditionError):
            urel.condition_probabilities()

    def test_arrays_are_stacked_once_and_read_only(self, registry):
        x = registry.fresh([0.25, 0.75])
        urel = self.wide(registry, 2, [[(x, 1), (TOP_VARIABLE, 0)]] * 4)
        variables, values = urel.condition_arrays()
        again = urel.condition_arrays()
        assert again[0] is variables and again[1] is values
        with pytest.raises(ValueError):
            variables[0, 0] = x
