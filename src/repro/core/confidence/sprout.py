"""SPROUT: scalable confidence computation for tractable queries [5].

Section 2.3: "For tractable queries on probabilistic databases, MayBMS
uses the SPROUT codebase for scalable query processing by reduction of
confidence computation to a sequence of SQL-like aggregations."

The tractable class (for conjunctive queries without self-joins over
*tuple-independent* tables) is the class of **hierarchical** queries: for
any two non-head variables x, y, the sets of subgoals containing them are
nested or disjoint.  For those, confidence computation reduces to a *safe
plan* of ordinary joins and two aggregation flavours:

- **independent join**: events touching disjoint table sets are
  independent, so probabilities multiply;
- **independent project**: distinct values of a *root variable* (one that
  occurs in every subgoal of a connected component) select disjoint tuple
  sets, so the "exists some value" probability is 1 − ∏(1 − pᵥ).

Two execution strategies, following the lazy-vs-eager study of [5]:

- **eager** plans interleave the probability aggregations with the joins
  (aggregate as early as the hierarchy allows, shrinking intermediates);
- **lazy** plans first materialize the full join with per-subgoal
  probability columns (pure relational work), then compute all
  confidences in one aggregation pass over the sorted result.

Both produce identical probabilities (tested against exact DNF lineage
computation); their run-time trade-off is the subject of benchmark
C-SPROUT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.conditions import Condition
from repro.core.confidence.dnf import DNF
from repro.core.lineage import Lineage, combine_independent
from repro.core.variables import VariableRegistry
from repro.engine.physical import group_key
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import FLOAT
from repro.errors import (
    ConfidenceError,
    NotTupleIndependentError,
    UnsafeLineageError,
    UnsafeQueryError,
)


@dataclass(frozen=True)
class Var:
    """A query variable (as opposed to a constant term)."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Union[Var, Any]  # a Var or a constant


@dataclass(frozen=True)
class Subgoal:
    """One atom of a conjunctive query: ``table(term, term, ...)``."""

    table: str
    terms: Tuple[Term, ...]

    def __init__(self, table: str, terms: Sequence[Term]):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", tuple(terms))

    def variables(self) -> FrozenSet[str]:
        return frozenset(t.name for t in self.terms if isinstance(t, Var))

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.table}({inner})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query without self-joins over tuple-independent tables.

    ``head`` lists the distinguished (group-by) variables; the confidence
    of each head binding is the probability that the binding is an answer.
    """

    head: Tuple[str, ...]
    subgoals: Tuple[Subgoal, ...]

    def __init__(self, head: Sequence[str], subgoals: Sequence[Subgoal]):
        object.__setattr__(self, "head", tuple(head))
        object.__setattr__(self, "subgoals", tuple(subgoals))
        tables = [sg.table for sg in subgoals]
        if len(set(tables)) != len(tables):
            raise UnsafeQueryError(
                "self-joins are outside SPROUT's tractable class: "
                f"duplicate table in {tables}"
            )
        head_set = set(head)
        all_vars = set().union(*(sg.variables() for sg in subgoals)) if subgoals else set()
        missing = head_set - all_vars
        if missing:
            raise ConfidenceError(f"head variables {sorted(missing)} not used in any subgoal")

    def variables(self) -> FrozenSet[str]:
        out: Set[str] = set()
        for sg in self.subgoals:
            out.update(sg.variables())
        return frozenset(out)

    def __repr__(self) -> str:
        body = ", ".join(repr(sg) for sg in self.subgoals)
        return f"q({', '.join(self.head)}) :- {body}"


class TupleIndependentTable:
    """A tuple-independent probabilistic table: payload rows with a
    per-tuple presence probability (and, lazily, a fresh Boolean variable
    per tuple for lineage construction)."""

    def __init__(self, name: str, relation: Relation, probabilities: Sequence[float]):
        if len(probabilities) != len(relation):
            raise NotTupleIndependentError(
                f"{len(probabilities)} probabilities for {len(relation)} rows"
            )
        for p in probabilities:
            if not (0.0 <= float(p) <= 1.0):
                raise NotTupleIndependentError(f"tuple probability {p} outside [0, 1]")
        self.name = name
        self.relation = relation
        self.probabilities = [float(p) for p in probabilities]

    def __len__(self) -> int:
        return len(self.relation)

    @staticmethod
    def from_prob_column(name: str, relation: Relation, prob_column: str = "_p") -> "TupleIndependentTable":
        position = relation.schema.resolve(prob_column)
        payload_positions = [i for i in range(len(relation.schema)) if i != position]
        payload = relation.project_positions(payload_positions)
        probabilities = [row[position] for row in relation]
        return TupleIndependentTable(name, payload, probabilities)

    def rows(self) -> Iterable[Tuple[tuple, float]]:
        return zip(self.relation.rows, self.probabilities)


Database = Mapping[str, TupleIndependentTable]


# ---------------------------------------------------------------------------
# Hierarchy analysis.
# ---------------------------------------------------------------------------


def subgoals_of_variable(query: ConjunctiveQuery) -> Dict[str, FrozenSet[int]]:
    """sg(x): the indices of subgoals mentioning each variable."""
    out: Dict[str, Set[int]] = {}
    for i, sg in enumerate(query.subgoals):
        for v in sg.variables():
            out.setdefault(v, set()).add(i)
    return {v: frozenset(s) for v, s in out.items()}


def is_hierarchical(query: ConjunctiveQuery) -> bool:
    """The Dalvi-Suciu tractability test: for all non-head variables x, y,
    sg(x) and sg(y) are nested or disjoint."""
    sg = subgoals_of_variable(query)
    non_head = [v for v in sg if v not in query.head]
    for i, x in enumerate(non_head):
        for y in non_head[i + 1:]:
            a, b = sg[x], sg[y]
            if not (a <= b or b <= a or not (a & b)):
                return False
    return True


# ---------------------------------------------------------------------------
# Safe evaluation directly on lineage (the dispatcher's SPROUT strategy).
# ---------------------------------------------------------------------------


def safe_lineage_confidence(
    lineage,
    registry: Optional[VariableRegistry] = None,
    connected: bool = False,
) -> float:
    """P(lineage) via SPROUT-style safe evaluation on the lineage IR.

    The query-level safe plans above apply the independent-join and
    independent-project rules to *subgoals*; this is the same recursion
    applied to the lineage itself, which is how the dispatcher wires
    SPROUT into the SQL ``conf()`` path (where only lineage, not query
    structure, survives the parsimonious translation):

    - **independent components** (no shared variables) multiply:
      P(⋁) = 1 − ∏(1 − P(componentᵢ));
    - a connected component must have a **root variable** occurring in
      every clause; Shannon expansion on the root (the lineage analog of
      the independent project) partitions the clauses by the root's value
      and recurses on strictly smaller cofactors;
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

    The SQL ``conf()`` path reaches this per-lineage recursion only for
    groups the array pass declined:
    :func:`repro.core.confidence.columnar.hierarchical_confidences` runs
    the same expansion for all tree-shaped groups of a relation at once,
    as one sort and a few segmented reductions over the condition
    columns -- the "sequence of SQL-like aggregations" of Section 2.3.
    """
    if registry is None:
        if not isinstance(lineage, Lineage):
            raise ConfidenceError(
                "safe_lineage_confidence needs a registry when not given "
                "the lineage IR"
            )
        registry = lineage.arena.registry
    lineage = Lineage.of(lineage, registry).simplified()
    return _safe_eval(lineage, registry, connected)


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


# ---------------------------------------------------------------------------
# Shared join machinery.
# ---------------------------------------------------------------------------


def _subgoal_bindings(
    sg: Subgoal, table: TupleIndependentTable
) -> Tuple[List[str], List[tuple], List[int]]:
    """The satisfying rows of one subgoal, column-wise.

    Returns ``(var_order, value_rows, tuple_indices)``: the subgoal's
    variables in first-occurrence order, per matching base row the tuple of
    those variables' values, and the base row's index (for its probability
    and its lineage variable).  Constants and repeated variables are
    checked here, once per base row, with no per-row dict construction.
    """
    arity = len(sg.terms)
    relation = table.relation
    if len(relation.schema) != arity and len(relation) > 0:
        raise ConfidenceError(
            f"subgoal {sg!r} has arity {arity} but table rows have "
            f"{len(relation.schema)}"
        )
    first_position: Dict[str, int] = {}
    constants: List[Tuple[int, Any]] = []
    duplicate_checks: List[Tuple[int, int]] = []
    for position, term in enumerate(sg.terms):
        if isinstance(term, Var):
            seen = first_position.get(term.name)
            if seen is None:
                first_position[term.name] = position
            else:
                duplicate_checks.append((seen, position))
        else:
            constants.append((position, term))
    var_order = list(first_position)
    positions = list(first_position.values())

    rows: List[tuple] = []
    indices: List[int] = []
    for index, row in enumerate(relation.rows):
        matched = True
        for position, value in constants:
            if row[position] != value:
                matched = False
                break
        if matched:
            for a, b in duplicate_checks:
                if row[a] != row[b]:
                    matched = False
                    break
        if matched:
            rows.append(tuple(row[p] for p in positions))
            indices.append(index)
    return var_order, rows, indices


def _join_rows(
    subgoals: Sequence[Subgoal], db: Database
) -> Tuple[List[str], List[tuple], List[Tuple[Tuple[int, int], ...]]]:
    """All satisfying assignments of the subgoals via hash joins.

    Returns ``(var_order, value_rows, used)``: the joined variables in
    binding order, one value tuple per assignment, and per assignment the
    (subgoal index, tuple index) pairs that produced it.  Subgoals fold
    most-bound-first (the same greedy order the old backtracking join
    used, so result order is preserved), but each fold is a hash join on
    the shared variables instead of a nested scan -- the difference
    between O(result) and O(|R| x |S|) on the C-SPROUT workloads.
    """
    order: List[int] = []
    remaining = list(range(len(subgoals)))
    bound: Set[str] = set()
    while remaining:
        best = max(
            remaining,
            key=lambda i: sum(1 for v in subgoals[i].variables() if v in bound),
        )
        order.append(best)
        remaining.remove(best)
        bound |= subgoals[best].variables()

    acc_vars: List[str] = []
    acc_rows: List[tuple] = [()]
    acc_used: List[Tuple[Tuple[int, int], ...]] = [()]
    for sg_index in order:
        sg = subgoals[sg_index]
        if not acc_rows:
            # Already empty: no rows can result, so skip the scans -- but
            # keep extending the variable order so callers can still
            # resolve every query variable's position.
            seen_here: List[str] = []
            for term in sg.terms:
                if isinstance(term, Var) and term.name not in seen_here:
                    seen_here.append(term.name)
            acc_vars = acc_vars + [v for v in seen_here if v not in acc_vars]
            continue
        var_order, rows, indices = _subgoal_bindings(sg, db[sg.table])
        shared = [v for v in var_order if v in acc_vars]
        new_vars = [v for v in var_order if v not in acc_vars]
        shared_acc = [acc_vars.index(v) for v in shared]
        shared_new = [var_order.index(v) for v in shared]
        new_positions = [var_order.index(v) for v in new_vars]

        buckets: Dict[tuple, List[int]] = {}
        for k, values in enumerate(rows):
            key = tuple(values[p] for p in shared_new)
            buckets.setdefault(key, []).append(k)

        next_rows: List[tuple] = []
        next_used: List[Tuple[Tuple[int, int], ...]] = []
        for values, used in zip(acc_rows, acc_used):
            key = tuple(values[p] for p in shared_acc)
            bucket = buckets.get(key)
            if not bucket:
                continue
            for k in bucket:
                new_values = rows[k]
                next_rows.append(
                    values + tuple(new_values[p] for p in new_positions)
                )
                next_used.append(used + ((sg_index, indices[k]),))
        acc_vars = acc_vars + new_vars
        acc_rows = next_rows
        acc_used = next_used
    return acc_vars, acc_rows, acc_used


# ---------------------------------------------------------------------------
# Lineage construction (the exact baseline SPROUT is compared against).
# ---------------------------------------------------------------------------


def query_lineage(
    query: ConjunctiveQuery, db: Database, registry: Optional[VariableRegistry] = None
) -> Tuple[Dict[tuple, DNF], VariableRegistry]:
    """Per-head-binding lineage DNFs over fresh Boolean variables (one per
    base tuple).  This is the general-purpose path: handing the DNFs to
    the exact or Karp-Luby engines works for *any* conjunctive query,
    hierarchical or not."""
    registry = registry if registry is not None else VariableRegistry()
    table_vars: Dict[str, List[int]] = {}
    for sg in query.subgoals:
        table = db[sg.table]
        if sg.table not in table_vars:
            table_vars[sg.table] = [
                registry.fresh_boolean(p, name=f"{sg.table}[{i}]")
                for i, (_, p) in enumerate(table.rows())
            ]

    lineages: Dict[tuple, List[Condition]] = {}
    var_order, value_rows, used_lists = _join_rows(query.subgoals, db)
    if value_rows:
        head_positions = [var_order.index(v) for v in query.head]
        for values, used in zip(value_rows, used_lists):
            key = tuple(values[p] for p in head_positions)
            atoms = []
            for sg_index, tuple_index in used:
                table_name = query.subgoals[sg_index].table
                atoms.append((table_vars[table_name][tuple_index], 1))
            clause = Condition.of(atoms)
            if clause is not None:
                lineages.setdefault(key, []).append(clause)
    return {key: DNF(clauses) for key, clauses in lineages.items()}, registry


# ---------------------------------------------------------------------------
# Safe-plan evaluation: eager strategy.
# ---------------------------------------------------------------------------


def _eager_evaluate(
    subgoals: List[int],
    head_vars: Tuple[str, ...],
    query: ConjunctiveQuery,
    db: Database,
) -> Dict[tuple, float]:
    """Recursive safe-plan evaluation; returns head-binding -> probability.

    Aggregations run as soon as the hierarchy allows: every independent
    project materializes its (smaller) aggregated result before the
    enclosing join proceeds.
    """
    # Split into connected components via shared non-head variables.
    components = _components(subgoals, head_vars, query)
    if len(components) > 1:
        partials = [
            _eager_evaluate(comp, head_vars, query, db) for comp in components
        ]
        return _independent_join(partials, components, head_vars, query)

    component = components[0]
    if len(component) == 1:
        # A single-subgoal component: the chain of per-variable independent
        # projects telescopes (or-combination is associative and
        # commutative), so one grouped pass over the subgoal computes
        # 1 − ∏(1 − pᵢ) per head binding directly.  Its keys are already
        # in head-variable order.
        return _single_subgoal(component[0], head_vars, query, db)
    free = _free_variables(component, head_vars, query)
    if not free:
        # All terms determined by head vars / constants: or-combine per
        # binding within each subgoal, multiply across subgoals.
        partials = []
        for index in component:
            partials.append(_single_subgoal(index, head_vars, query, db))
        return _independent_join(partials, [[i] for i in component], head_vars, query)

    root = _root_variable(component, free, query)
    if root is None:
        raise UnsafeQueryError(
            f"query {query!r} is not hierarchical: component "
            f"{[repr(query.subgoals[i]) for i in component]} has no root variable"
        )
    extended = head_vars + (root,)
    inner = _eager_evaluate(component, extended, query, db)
    # Independent project: group by the original head vars, or-combine
    # across root-variable values.
    out: Dict[tuple, float] = {}
    for key, p in inner.items():
        outer_key = key[:-1]
        out[outer_key] = 1.0 - (1.0 - out.get(outer_key, 0.0)) * (1.0 - p)
    return out


def _components(
    subgoals: List[int], head_vars: Tuple[str, ...], query: ConjunctiveQuery
) -> List[List[int]]:
    head_set = set(head_vars)
    parent = {i: i for i in subgoals}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    var_home: Dict[str, int] = {}
    for i in subgoals:
        for v in query.subgoals[i].variables():
            if v in head_set:
                continue
            if v in var_home:
                ra, rb = find(var_home[v]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                var_home[v] = i
    groups: Dict[int, List[int]] = {}
    for i in subgoals:
        groups.setdefault(find(i), []).append(i)
    return [sorted(g) for _, g in sorted(groups.items())]


def _free_variables(
    component: List[int], head_vars: Tuple[str, ...], query: ConjunctiveQuery
) -> Set[str]:
    head_set = set(head_vars)
    out: Set[str] = set()
    for i in component:
        out.update(v for v in query.subgoals[i].variables() if v not in head_set)
    return out


def _root_variable(
    component: List[int], free: Set[str], query: ConjunctiveQuery
) -> Optional[str]:
    """A non-head variable occurring in every subgoal of the component."""
    candidates = set(free)
    for i in component:
        candidates &= query.subgoals[i].variables()
        if not candidates:
            return None
    # Deterministic choice.
    return sorted(candidates)[0]


def _single_subgoal(
    index: int, head_vars: Tuple[str, ...], query: ConjunctiveQuery, db: Database
) -> Dict[tuple, float]:
    """Evaluate one subgoal whose variables are all head vars: per binding
    of the head vars *it mentions*, or-combine the probabilities of the
    matching tuples.  The enclosing independent join aligns partial
    bindings across subgoals."""
    sg = query.subgoals[index]
    bound = tuple(v for v in head_vars if v in sg.variables())
    table = db[sg.table]
    var_order, value_rows, indices = _subgoal_bindings(sg, table)
    key_positions = [var_order.index(v) for v in bound]
    probabilities = table.probabilities
    out: Dict[tuple, float] = {}
    get = out.get
    for values, tuple_index in zip(value_rows, indices):
        key = tuple(values[p] for p in key_positions)
        p = probabilities[tuple_index]
        out[key] = 1.0 - (1.0 - get(key, 0.0)) * (1.0 - p)
    return out


def _independent_join(
    partials: List[Dict[tuple, float]],
    components: List[List[int]],
    head_vars: Tuple[str, ...],
    query: ConjunctiveQuery,
) -> Dict[tuple, float]:
    """Combine per-component results: a head binding is an answer iff it is
    an answer in every component, and the events are independent.

    Components may bind different subsets of the head variables; bindings
    join on their shared variables (hash join on the common projection).
    """
    bound_vars: List[Tuple[str, ...]] = []
    for comp in components:
        vs: Set[str] = set()
        for i in comp:
            vs.update(query.subgoals[i].variables())
        bound_vars.append(tuple(v for v in head_vars if v in vs))

    # Start from the first component and fold the rest in.
    acc: Dict[tuple, float] = {}
    acc_vars = bound_vars[0]
    for key, p in partials[0].items():
        acc[key] = p

    for partial, vs in zip(partials[1:], bound_vars[1:]):
        shared = tuple(v for v in acc_vars if v in vs)
        new_vars = acc_vars + tuple(v for v in vs if v not in acc_vars)
        # Positions are resolved once per partial, not once per row.
        shared_in_vs = [vs.index(v) for v in shared]
        shared_in_acc = [acc_vars.index(v) for v in shared]
        fresh_in_vs = [vs.index(v) for v in vs if v not in acc_vars]
        index: Dict[tuple, List[Tuple[tuple, float]]] = {}
        for key, p in partial.items():
            shared_key = tuple(key[i] for i in shared_in_vs)
            index.setdefault(shared_key, []).append((key, p))
        next_acc: Dict[tuple, float] = {}
        for key, p in acc.items():
            shared_key = tuple(key[i] for i in shared_in_acc)
            for other_key, q in index.get(shared_key, ()):
                merged = key + tuple(other_key[i] for i in fresh_in_vs)
                next_acc[merged] = p * q
        acc = next_acc
        acc_vars = new_vars

    # Results are keyed over the head variables this subgoal set binds, in
    # head-variable order; callers with wider head lists align partials on
    # their shared variables.
    overall = tuple(v for v in head_vars if any(v in vs for vs in bound_vars))
    if acc_vars != overall:
        positions = [acc_vars.index(v) for v in overall]
        acc = {tuple(k[i] for i in positions): p for k, p in acc.items()}
    return acc


# ---------------------------------------------------------------------------
# Safe-plan evaluation: lazy strategy.
# ---------------------------------------------------------------------------


def _lazy_evaluate(query: ConjunctiveQuery, db: Database) -> Dict[tuple, float]:
    """Materialize the full join first (pure relational phase), then run
    the whole confidence computation as one aggregation pass over the
    join result, grouped along the hierarchy.

    Join rows carry (variable values, per-subgoal tuple ids and
    probabilities); the aggregation recursion mirrors the eager plan's
    structure but never touches base tables again.
    """
    var_order, value_rows, used_lists = _join_rows(query.subgoals, db)
    var_index = {name: position for position, name in enumerate(var_order)}
    annotated = []
    for values, used in zip(value_rows, used_lists):
        probs = {}
        for sg_index, tuple_index in used:
            table = db[query.subgoals[sg_index].table]
            probs[sg_index] = (tuple_index, table.probabilities[tuple_index])
        annotated.append((values, probs))

    all_indices = list(range(len(query.subgoals)))

    def aggregate(
        row_subset: List[Tuple[tuple, Dict[int, Tuple[int, float]]]],
        subgoals: List[int],
        head_vars: Tuple[str, ...],
    ) -> Dict[tuple, float]:
        components = _components(subgoals, head_vars, query)
        if len(components) > 1:
            partials = [aggregate(row_subset, comp, head_vars) for comp in components]
            return _independent_join(partials, components, head_vars, query)
        component = components[0]
        free = _free_variables(component, head_vars, query)
        if not free:
            out: Dict[tuple, float] = {}
            component_vars: Set[str] = set()
            for i in component:
                component_vars.update(query.subgoals[i].variables())
            bound = tuple(v for v in head_vars if v in component_vars)
            bound_positions = [var_index[v] for v in bound]
            # Dedup per subgoal: the same base tuple appears in many join
            # rows; each base tuple's probability must count once.
            per_key: Dict[tuple, Dict[int, Dict[int, float]]] = {}
            for values, probs in row_subset:
                key = tuple(values[p] for p in bound_positions)
                bucket = per_key.setdefault(key, {i: {} for i in component})
                for i in component:
                    tuple_index, p = probs[i]
                    bucket[i][tuple_index] = p
            for key, buckets in per_key.items():
                probability = 1.0
                for i in component:
                    or_p = 0.0
                    for p in buckets[i].values():
                        or_p = 1.0 - (1.0 - or_p) * (1.0 - p)
                    probability *= or_p
                out[key] = probability
            return out
        root = _root_variable(component, free, query)
        if root is None:
            raise UnsafeQueryError(
                f"query {query!r} is not hierarchical (lazy plan)"
            )
        inner = aggregate(row_subset, component, head_vars + (root,))
        out: Dict[tuple, float] = {}
        for key, p in inner.items():
            outer = key[:-1]
            out[outer] = 1.0 - (1.0 - out.get(outer, 0.0)) * (1.0 - p)
        return out

    return aggregate(annotated, all_indices, query.head)


# ---------------------------------------------------------------------------
# Public API.
# ---------------------------------------------------------------------------


def sprout_confidence(
    query: ConjunctiveQuery,
    db: Database,
    strategy: str = "eager",
) -> Relation:
    """Confidence of every answer of a hierarchical query.

    Returns a relation with one column per head variable plus ``p``.
    Raises :class:`UnsafeQueryError` for non-hierarchical queries (use
    :func:`query_lineage` + an exact/approximate engine for those).
    """
    if strategy not in ("eager", "lazy"):
        raise ConfidenceError(f"unknown SPROUT strategy {strategy!r}")
    if not is_hierarchical(query):
        raise UnsafeQueryError(
            f"query {query!r} is not hierarchical; SPROUT's safe plans do not apply"
        )
    if strategy == "eager":
        result = _eager_evaluate(
            list(range(len(query.subgoals))), query.head, query, db
        )
    else:
        result = _lazy_evaluate(query, db)

    columns = [
        Column(name, _column_type(name, query, db)) for name in query.head
    ]
    columns.append(Column("p", FLOAT))
    schema = Schema(columns)
    rows = [key + (p,) for key, p in sorted(result.items(), key=lambda kv: group_key(kv[0]))]
    return Relation(schema, rows)


def _column_type(var_name: str, query: ConjunctiveQuery, db: Database):
    for sg in query.subgoals:
        for position, term in enumerate(sg.terms):
            if isinstance(term, Var) and term.name == var_name:
                return db[sg.table].relation.schema[position].type
    raise ConfidenceError(f"variable {var_name!r} not found in any subgoal")
