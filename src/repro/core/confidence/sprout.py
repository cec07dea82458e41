"""SPROUT: scalable confidence computation for tractable queries [5].

Section 2.3: "For tractable queries on probabilistic databases, MayBMS
uses the SPROUT codebase for scalable query processing by reduction of
confidence computation to a sequence of SQL-like aggregations."

For hierarchical queries (the variables' clause sets are nested or
disjoint) confidence computation reduces to two aggregation flavours:

- **independent join**: events over disjoint variable sets are
  independent, so P(⋁) = 1 − ∏(1 − pᵢ);
- **independent project**: the values of a *root variable* (one that
  occurs in every clause of a connected component) are mutually
  exclusive, so the probability is a sum over them.

SQL ``conf()`` runs this plan in two places.  The array pass
(:mod:`repro.core.confidence.columnar`) evaluates every tree-shaped group
of a relation at once, as one sort and a few segmented reductions over
the condition columns.  :func:`safe_lineage_confidence` is the same
recursion on one lineage, for the groups the array pass declined (and
for every group without NumPy); the dispatcher tries it before the exact
ws-tree engine.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.lineage import Lineage, combine_independent
from repro.core.variables import VariableRegistry
from repro.errors import UnsafeLineageError


def safe_lineage_confidence(lineage: Lineage, connected: bool = False) -> float:
    """P(lineage) via SPROUT-style safe evaluation on the lineage IR.

    - **independent components** (no shared variables) multiply:
      P(⋁) = 1 − ∏(1 − P(componentᵢ));
    - a connected component must have a **root variable** occurring in
      every clause; Shannon expansion on the root (the independent
      project) partitions the clauses by the root's value and recurses on
      strictly smaller cofactors;
    - single clauses and fully independent clause sets finish in closed
      form.

    Every recursion step removes a variable from each clause it keeps, so
    the work is polynomial whenever the lineage is hierarchical (the
    variables' clause sets are laminar -- :meth:`Lineage.stats`).  A
    component with no root variable raises
    :class:`~repro.errors.UnsafeLineageError`; the dispatcher catches it
    and falls back to the exact ws-tree engine.

    ``connected`` tells the evaluator the top-level clause set is already
    one connected component (the dispatcher hands components out one by
    one), skipping a redundant union-find pass.
    """
    return _safe_eval(lineage.simplified(), lineage.arena.registry, connected)


def _safe_eval(
    lineage: Lineage, registry: VariableRegistry, connected: bool = False
) -> float:
    # Closed forms need no simplification here: duplicate clauses fail the
    # independence test (shared variables) and recurse instead, certain
    # clauses surface as is_true, and zero-probability clauses contribute
    # a 1 − 0 factor -- so cofactors skip the simplification pass.
    closed = lineage.closed_form_probability()
    if closed is not None:
        return closed
    if not connected:
        components = lineage.components()
        if len(components) > 1:
            return combine_independent(
                _safe_eval(component, registry, connected=True)
                for component in components
            )
    roots = lineage.root_variables()
    if not roots:
        raise UnsafeLineageError(
            "lineage is not hierarchical: a connected clause component "
            "has no variable occurring in all of its clauses"
        )
    root = min(roots)
    fast = _two_level_closed_form(lineage, root, registry)
    if fast is not None:
        return fast
    total = 0.0
    for value, p_value in registry.distribution(root).items():
        if p_value == 0.0:
            continue
        cofactor = lineage.restrict(root, value)
        if cofactor.is_false:
            continue
        total += p_value * _safe_eval(cofactor, registry)
    return total


def _two_level_closed_form(
    lineage: Lineage, root: int, registry: VariableRegistry
) -> Optional[float]:
    """The innermost independent-project, fused into one pass.

    The most common hierarchical shape -- lineage of ``R(x), S(x, y)``
    per group -- is a root variable plus pairwise-disjoint single-atom
    rests: ``{root=v₁ ∧ s₁, root=v₂ ∧ s₂, ...}``.  Shannon expansion
    telescopes into

        P = Σ_v P(root = v) · (1 − ∏_{clauses on v} (1 − P(restᵢ)))

    which this computes clause-at-a-time off the IR, with no cofactor
    materialization.  Applies when every clause is the root plus at most
    one other atom and no non-root variable repeats (checked from the
    cached stats in O(1)); returns None otherwise.
    """
    stats = lineage.stats(test_hierarchy=False)
    if stats.max_width > 2:
        return None
    if stats.atom_count - stats.clause_count != stats.variable_count - 1:
        return None
    probability = registry.probability
    complements: Dict[int, float] = {}
    for clause in lineage.clauses:
        atoms = clause.atoms
        if len(atoms) == 1:
            # The clause is the root atom alone: its rest is ⊤.
            value, rest_probability = atoms[0][1], 1.0
        else:
            (var_a, val_a), (var_b, val_b) = atoms
            if var_a == root:
                value, rest_probability = val_a, probability(var_b, val_b)
            else:
                value, rest_probability = val_b, probability(var_a, val_a)
        complements[value] = complements.get(value, 1.0) * (
            1.0 - rest_probability
        )
    return sum(
        probability(root, value) * (1.0 - complement)
        for value, complement in complements.items()
    )
