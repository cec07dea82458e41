"""The finite set of independent random variables underlying a U-relational
database.

Section 2.1: "The condition columns store variables from a finite set of
independent random variables and their assignments; the probability
columns store the probabilities of the variable assignments."

A :class:`VariableRegistry` is the world table: each variable has a finite
integer domain and a probability distribution over it.  Variables are
minted by ``repair key`` (one per key group, one alternative per
candidate tuple) and ``pick tuples`` (Boolean, one per tuple or duplicate
group) into the running statement's scope, and become durable only when
stored rows name them.  Variable id ``0`` is reserved for the always-true
atom used to pad condition columns in the wide relational encoding.

The table is three arrays indexed by variable id: ``start`` (an int64
offset into ``chances``, -1 where the id is not registered), ``width``
(the domain size k) and the flat float64 ``chances``.  Every domain is
``0..k-1``, and P(var = d) is ``chances[start[var] + d]``; a value outside
the domain has probability 0.  A bulk marginal look-up is therefore one
NumPy gather, and a Boolean variable costs 32 bytes (two int64 and two
float64 slots), at most twice that with the slack of capacity doubling.
Growing *replaces* the arrays (a reader holding the old ones keeps a
consistent view), a slot's chances are written before its ``start``, and
the chances of an unregistered id are never overwritten, so readers take
no lock.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import threading
import weakref
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple, Union,
)

import numpy as np

from repro.errors import InvalidDistributionError, VariableError

#: Reserved variable id for the always-true padding atom (domain {0}, P=1).
TOP_VARIABLE = 0

#: Tolerance when checking that a distribution sums to one.
_SUM_TOLERANCE = 1e-9

Assignment = Mapping[int, int]
#: ``(first id, start, width, chances)``: see the module docstring.
_Table = Tuple[int, np.ndarray, np.ndarray, np.ndarray]
_EMPTY: _Table = (0, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))


class VariableRegistry:
    """Registry of independent finite random variables.

    Distributions map the domain values ``0..k-1`` to probabilities in
    [0, 1] summing to 1.  Zero-probability alternatives are allowed (they
    arise from zero weights and zero pick probabilities) and simply never
    occur in any world with positive probability.

    A registry is either *durable* -- the store's world table, the one
    stored U-relations are bound to -- or a *statement scope* over one
    (:meth:`scope`): the variables one statement's ``repair key`` /
    ``pick tuples`` mint.  A scope takes its ids from the durable
    registry's frontier (so ids never collide and are never reused), its
    look-ups fall through to the durable registry, and nothing it mints
    is journaled, logged or checkpointed.  A scope's variables become
    durable only when a transaction stores rows naming them (the durable
    registry finds them in its live scopes, :meth:`minted`, and
    :meth:`promote` registers them); the rest go with the scope.
    Registration, removal and checkpoint serialization apply to durable
    registries only.
    """

    def __init__(self, durable: Optional["VariableRegistry"] = None):
        #: The registry stored rows are bound to: ``self``, or the one a
        #: scope falls through to.
        self.durable: VariableRegistry = self if durable is None else durable
        #: The variables registered here (a scope: the ones it minted), as
        #: arrays from the first id on; replaced whole when it grows.
        self._table: _Table = _EMPTY
        #: How many slots of the table's ``chances`` are taken.
        self._filled = 0
        self._names: Dict[int, str] = {}
        #: Lazily named id blocks ``(start, stop, namer)``, in id order:
        #: ``namer(i)`` names the block's ``i``-th variable when asked.
        self._blocks: List[Tuple[int, int, Callable[[int], str]]] = []
        self._block_starts: List[int] = []
        if durable is not None:
            with durable._mutex:
                durable._scopes.add(self)
            return
        self._write(np.array([TOP_VARIABLE]), np.array([1]), np.array([1.0]))
        self._names[TOP_VARIABLE] = "top"
        self._next_id = 1
        #: Mutation counter (any change) and the counter value of the most
        #: recent change that touched an id below ``_sealed``, the frontier
        #: of the last :meth:`dump_state` / :meth:`restore_state`.  Together
        #: they let incremental checkpoints prove that every snapshotted id
        #: is untouched, so only a delta of newer variables needs
        #: snapshotting (see :meth:`mutation_stamp` and
        #: ``engine/durability.py``).
        self._version = 0
        self._nonappend_version = 0
        self._sealed = 0
        #: Guards id allocation and every write to the tables: concurrent
        #: statements reserve ids and promote variables while a checkpoint
        #: thread serializes the whole registry.
        self._mutex = threading.RLock()
        #: The statement scopes still alive (a running statement's, or one
        #: a caller holds through a query result): where stored rows'
        #: not-yet-durable variables are found.
        self._scopes: "weakref.WeakSet[VariableRegistry]" = weakref.WeakSet()
        #: How many transactions promoted a variable, where more than one
        #: did: a rollback releases one hold, the last one unregisters.
        self._holds: Dict[int, int] = {}

    def scope(self) -> "VariableRegistry":
        """A fresh statement scope over this registry's durable one."""
        return VariableRegistry(self.durable)

    # -- the arrays (writers hold the durable mutex) ---------------------------
    def _room(self, first: int, span: int, fill: int) -> _Table:
        """The table, replaced by a copy with room for the ids
        ``first..first+span-1`` and ``fill`` chances if it lacks it."""
        table = self._table
        _, start, width, chances = table
        if span > len(start) or fill > len(chances):
            grown = np.full(max(span, 2 * len(start)), -1, np.int64)
            grown[: len(start)] = start
            widths = np.zeros(len(grown), np.int64)
            widths[: len(width)] = width
            flat = np.zeros(max(fill, 2 * len(chances)))
            flat[: self._filled] = chances[: self._filled]
            table = self._table = (first, grown, widths, flat)
        return table

    def _write(self, ids: np.ndarray, widths: np.ndarray, chances: np.ndarray) -> None:
        """Register ``ids`` with the given domain sizes and their chances
        laid end to end (the starts are written last)."""
        first = self._table[0] if len(self._table[1]) else int(ids.min())
        local = ids - first
        filled = self._filled
        _, start, width, flat = self._room(
            first, int(local.max()) + 1, filled + len(chances)
        )
        flat[filled : filled + len(chances)] = chances
        width[local] = widths
        start[local] = filled + np.cumsum(widths) - widths
        self._filled = filled + len(chances)

    def _put(self, var: int, chances: Sequence[float]) -> None:
        """:meth:`_write` of one durable variable, without array set-up."""
        filled = self._filled
        _, start, width, flat = self._room(0, var + 1, filled + len(chances))
        flat[filled : filled + len(chances)] = chances
        width[var] = len(chances)
        start[var] = filled
        self._filled = filled + len(chances)

    def _slot(self, var: int) -> int:
        """Where ``var``'s chances start in this registry's own table, or
        -1 when it is not registered here."""
        first, start, _, _ = self._table
        i = var - first
        return start.item(i) if 0 <= i < len(start) else -1

    def _find(self, var: int) -> Tuple[np.ndarray, int, int]:
        """``(chances, start, width)`` of ``var``, here or in the durable
        registry."""
        for registry in (self, self.durable):
            first, start, width, chances = registry._table
            i = int(var) - first
            if 0 <= i < len(start) and start.item(i) >= 0:
                return chances, start.item(i), width.item(i)
        raise VariableError(f"unknown variable id {var}")

    def _ids(self) -> np.ndarray:
        """Every id registered here or in the durable registry (top
        included), ascending."""
        tables = (self._table, self.durable._table)
        return np.union1d(*(np.flatnonzero(t[1] >= 0) + t[0] for t in tables))

    # -- creation -------------------------------------------------------------
    def mint(
        self,
        widths: Union[Sequence[int], np.ndarray],
        chances: Union[Sequence[float], np.ndarray],
        namer: Optional[Callable[[int], str]] = None,
    ) -> int:
        """Register one (already validated) variable per domain size in
        ``widths``, their ``chances`` laid end to end, under one contiguous
        block of fresh ids, reserved from the durable frontier under one
        lock acquisition; returns the block's first id.  ``namer(i)``
        names the ``i``-th variable when someone asks (:meth:`name`);
        without it the name is ``x<id>``."""
        durable = self.durable
        count = len(widths)
        with durable._mutex:
            start = durable._next_id
            durable._next_id = start + count
            if count:
                self._write(
                    np.arange(start, start + count),
                    np.asarray(widths, dtype=np.int64),
                    np.asarray(chances, dtype=np.float64),
                )
                if durable is self:
                    self._version += 1  # pure append: snapshotted ids untouched
        if namer is not None and count:
            self._blocks.append((start, start + count, namer))
            self._block_starts.append(start)
        return start

    def fresh(
        self,
        distribution: Union[Sequence[float], Mapping[int, float]],
        name: Optional[str] = None,
    ) -> int:
        """Create a new independent variable and return its id.

        ``distribution`` is either a sequence of probabilities (domain is
        ``0..len-1``) or a mapping from the domain values ``0..k-1`` to
        probabilities.
        """
        chances = _dense(
            distribution.items()
            if isinstance(distribution, Mapping)
            else enumerate(distribution)
        )
        var = self.mint([len(chances)], chances)
        if name is not None:
            with self.durable._mutex:
                self._names[var] = name
        return var

    def unregister(self, var: int) -> None:
        """Remove a variable (rollback of the statement that promoted it),
        or release one hold on it while another transaction still holds
        it (:meth:`promote`).

        Ids are never reclaimed: a statement scope may still name it."""
        var = int(var)
        if var == TOP_VARIABLE:
            raise VariableError("variable id 0 (the top atom) cannot be unregistered")
        with self._mutex:
            if self._slot(var) < 0:
                raise VariableError(f"unknown variable id {var}")
            if self._holds.get(var, 1) > 1:
                self._holds[var] -= 1
                return
            self._table[1][var] = -1
            self._names.pop(var, None)
            self._touch(var)

    def restore(
        self,
        var: int,
        distribution: Union[Mapping[int, float], Sequence[Tuple[int, float]]],
        name: Optional[str] = None,
    ) -> int:
        """Re-register a variable under its original id (crash recovery),
        advancing the id frontier past it."""
        var = int(var)
        if var == TOP_VARIABLE:
            raise VariableError("variable id 0 is reserved for the top atom")
        chances = _dense(
            distribution.items() if isinstance(distribution, Mapping) else distribution
        )
        with self._mutex:
            self._put(var, chances)
            self._names[var] = name if name is not None else f"x{var}"
            self._next_id = max(self._next_id, var + 1)
            self._touch(var)
        return var

    def promote(self, var: int, distribution: Mapping[int, float], name: str) -> None:
        """Make a variable a statement scope minted durable under its id,
        or take one more hold on it when it already is (two transactions
        storing one held result: the check and the insertion are one step
        under the mutex).  Each promotion is undone by one
        :meth:`unregister`.  ``distribution`` is one :meth:`minted` gave."""
        chances = [distribution[value] for value in range(len(distribution))]
        with self._mutex:
            if self._slot(var) >= 0:
                self._holds[var] = self._holds.get(var, 1) + 1
                return
            self._put(var, chances)
            self._names[var] = name
            self._touch(var)

    def _touch(self, var: int) -> None:
        """Count a mutation of ``var``; one below the sealed frontier is a
        non-append (a delta snapshot could miss it).  Under the mutex."""
        self._version += 1
        if var < self._sealed:
            self._nonappend_version = self._version

    def minted(
        self, variables: Iterable[int]
    ) -> List[Tuple[int, str, Dict[int, float]]]:
        """``(var, name, distribution)`` of each of ``variables`` that a
        live statement scope over this durable registry minted, in id
        order -- what storing rows that name ``variables`` must promote
        (:meth:`promote`)."""
        with self._mutex:
            scopes = list(self._scopes)
        wanted = np.fromiter(set(variables), dtype=np.int64)
        out: List[Tuple[int, str, Dict[int, float]]] = []
        for scope in scopes:
            first, start, width, chances = scope._table
            local = wanted - first
            local = local[(local >= 0) & (local < len(start))]
            local = local[start[local] >= 0]
            flat = chances.tolist() if len(local) else []
            spans = zip(local.tolist(), start[local].tolist(), width[local].tolist())
            for i, at, k in spans:
                distribution = dict(enumerate(flat[at : at + k]))
                out.append((first + i, scope.name(first + i), distribution))
        return sorted(out)

    def fresh_boolean(self, probability_true: float, name: Optional[str] = None) -> int:
        """A Boolean variable: domain {0, 1}, P(1) = probability_true."""
        p = float(probability_true)
        if not (0.0 <= p <= 1.0):
            raise InvalidDistributionError(
                f"boolean probability {p} outside [0, 1]"
            )
        return self.fresh([1.0 - p, p], name)

    # -- lookup ---------------------------------------------------------------
    def __contains__(self, var: int) -> bool:
        try:
            self._find(var)
        except VariableError:
            return False
        return True

    def __len__(self) -> int:
        """Number of user variables (the reserved top variable excluded)."""
        return len(self._ids()) - 1

    def variables(self) -> Iterator[int]:
        """All user variable ids (top excluded), ascending."""
        return iter(self._ids()[1:].tolist())

    def name(self, var: int) -> str:
        if self._slot(var) < 0:
            self._find(var)
            return self.durable.name(var)
        name = self._names.get(var)
        if name is None:
            block = bisect.bisect_right(self._block_starts, var) - 1
            if block >= 0 and var < self._blocks[block][1]:
                start, _, namer = self._blocks[block]
                name = namer(var - start)
            else:
                name = f"x{var}"
        return name

    def domain(self, var: int) -> Tuple[int, ...]:
        return tuple(range(self._find(var)[2]))

    def chances(self, var: int) -> np.ndarray:
        """``var``'s chances, indexed by domain value (a read-only view)."""
        chances, start, width = self._find(var)
        view = chances[start : start + width]
        view.flags.writeable = False
        return view

    def distribution(self, var: int) -> Dict[int, float]:
        return dict(enumerate(self.chances(var).tolist()))

    def probability(self, var: int, value: int) -> float:
        """P(var = value); 0.0 for values outside the declared domain."""
        chances, start, width = self._find(var)
        return chances.item(start + value) if 0 <= value < width else 0.0

    def probabilities(self, variables: Any, values: Any) -> np.ndarray:
        """:meth:`probability` of each ``(variable, value)`` pair, given
        as two equal-shape int64 arrays -- the bulk look-up of the array
        kernels, one gather per table."""
        variables = np.asarray(variables, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        known, out = _gather(self._table, variables, values)
        if self is not self.durable:
            durable_known, durable_out = _gather(self.durable._table, variables, values)
            out = np.where(known, out, durable_out)
            known |= durable_known
        _require_all(variables, known)
        return out

    def widths(self, variables: np.ndarray) -> np.ndarray:
        """The domain size of each of ``variables`` (an int64 array), 0
        where no registry it reaches registers the id."""
        widths = _spans(self._table, variables)[1]
        if self is not self.durable:
            durable = _spans(self.durable._table, variables)[1]
            widths = np.where(widths > 0, widths, durable)
        return widths

    def distributions(self, variables: Iterable[int]) -> List[List[float]]:
        """The chances of each variable, indexed by domain value: the bulk
        look-up of the confidence engines, one gather for all of them."""
        ids = np.fromiter(variables, dtype=np.int64)
        at, widths = _spans(self._table, ids)
        if self is not self.durable:
            durable_at, durable_widths = _spans(self.durable._table, ids)
            widths = np.where(at >= 0, widths, durable_widths)
            at = np.maximum(at, durable_at)
        _require_all(ids, at >= 0)
        ends = np.cumsum(widths)
        values = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - widths, widths)
        flat = self.probabilities(np.repeat(ids, widths), values).tolist()
        return [flat[end - k : end] for end, k in zip(ends.tolist(), widths.tolist())]

    # -- whole-registry views ----------------------------------------------------
    def world_count(self, variables: Optional[Iterable[int]] = None) -> int:
        """Number of possible worlds (assignments with positive probability)
        over the given variables (default: all user variables)."""
        count = 1
        for var in variables if variables is not None else self.variables():
            count *= max(int(np.count_nonzero(self.chances(var) > 0)), 1)
        return count

    def copy(self) -> "VariableRegistry":
        """An independent copy of a durable registry (what-if evaluation)."""
        clone = VariableRegistry()
        with self._mutex:
            first, start, width, chances = self._table
            clone._table = (first, start.copy(), width.copy(), chances.copy())
            clone._filled = self._filled
            clone._names = {var: self.name(var) for var in self._ids().tolist()}
            clone._next_id = self._next_id
        return clone

    # -- checkpoint serialization ------------------------------------------------
    def mutation_stamp(self) -> Tuple[int, int, int]:
        """``(version, nonappend_version, next_id)`` of the durable
        registry, under its mutex (``next_id`` is the shared id frontier,
        so a scope's stamp counts what it minted).

        A checkpoint that recorded ``(version=V, next_id=N)`` can later
        snapshot only the *delta* of variables with id >= N iff no
        mutation after V touched an id below the frontier sealed by its
        dump, i.e. iff the current ``nonappend_version <= V``.  Promotion
        inside a writing statement only ever appends (the statement holds
        the store gate, so its ids were reserved after the last dump);
        full registry rewrites follow rollbacks of earlier promotions,
        late promotions of a held query result, and recovery races.
        """
        durable = self.durable
        with durable._mutex:
            return (durable._version, durable._nonappend_version, durable._next_id)

    def dump_state(self, min_id: int = 0) -> Dict[str, object]:
        """JSON-safe snapshot of every user variable (for checkpoints).

        ``min_id`` restricts the dump to variables at or above that id --
        the registry delta an incremental checkpoint appends on top of the
        segments it re-links from the previous epoch.  ``next_id`` is
        always the full frontier, so restoring base + deltas in order
        reproduces the id allocator exactly.  The dump seals that
        frontier: a later change below it is a non-append.
        """
        with self._mutex:
            self._sealed = self._next_id
            _, start, width, chances = self._table
            ids = np.flatnonzero(start >= 0)
            ids = ids[ids >= max(min_id, TOP_VARIABLE + 1)]
            flat = chances.tolist()
            return {
                "next_id": self._next_id,
                "variables": [
                    [var, self.name(var), list(enumerate(flat[at : at + k]))]
                    for var, at, k in zip(
                        ids.tolist(), start[ids].tolist(), width[ids].tolist()
                    )
                ],
            }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`dump_state` snapshot into this registry (and
        seal its frontier, as the dump did): its variables are checked in
        one array pass and installed in one write."""
        variables = state["variables"]
        ids = np.array([var for var, _, _ in variables], dtype=np.int64)
        widths = np.array([len(dist) for _, _, dist in variables], dtype=np.int64)
        values = np.array([v for _, _, dist in variables for v, _ in dist], np.int64)
        chances = np.array([p for _, _, dist in variables for _, p in dist], np.float64)
        if (ids == TOP_VARIABLE).any():
            raise VariableError("variable id 0 is reserved for the top atom")
        _validate_all(widths, values, chances)
        next_id = int(state["next_id"])
        with self._mutex:
            if len(ids):
                self._write(ids, widths, chances)
                self._names.update(zip(ids.tolist(), (n for _, n, _ in variables)))
                next_id = max(next_id, int(ids.max()) + 1)
                self._touch(int(ids.min()))
            self._next_id = max(self._next_id, next_id)
            self._sealed = max(self._sealed, next_id)

    # -- sampling --------------------------------------------------------------
    def sample_value(self, var: int, rng: random.Random) -> int:
        """Sample a domain value of ``var`` from its distribution."""
        sums = cumulative(self.chances(var).tolist())
        return bisect.bisect_right(sums, rng.random())

    def sample_assignment(
        self,
        rng: random.Random,
        variables: Optional[Iterable[int]] = None,
        fixed: Optional[Assignment] = None,
    ) -> Dict[int, int]:
        """Sample a full assignment over ``variables`` (default all user
        variables), honouring ``fixed`` values for some of them."""
        fixed = fixed or {}
        out: Dict[int, int] = {}
        for var in variables if variables is not None else self.variables():
            if var in fixed:
                out[var] = fixed[var]
            else:
                out[var] = self.sample_value(var, rng)
        return out

    def assignment_probability(self, assignment: Assignment) -> float:
        """Probability of a (partial) assignment: product over its variables."""
        p = 1.0
        for var, value in assignment.items():
            p *= self.probability(var, value)
        return p


def cumulative(chances: Iterable[float]) -> List[float]:
    """The running sums of ``chances``, added left to right, the last one
    replaced by infinity: ``bisect_right(sums, u)`` of a draw ``u`` is
    then the first value whose running sum exceeds ``u`` (the last value
    when floating point slack leaves none)."""
    sums = list(itertools.accumulate(chances))
    sums[-1] = math.inf
    return sums


def _spans(table: _Table, variables: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per variable, where ``table`` has its chances start (-1 where it
    does not register it) and how many there are (0 there)."""
    first, start, width, _ = table
    if not len(start):
        return np.full(variables.shape, -1), np.zeros(variables.shape, np.int64)
    local = variables - first
    at = np.where((local >= 0) & (local < len(start)), start.take(local, mode="clip"), -1)
    return at, np.where(at >= 0, width.take(local, mode="clip"), 0)


def _gather(
    table: _Table, variables: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per pair, whether ``table`` registers the variable, and the
    probability it gives the value (0.0 where it does not)."""
    at, width = _spans(table, variables)
    inside = (values >= 0) & (values < width)  # so at >= 0
    chances = table[3].take(at + values, mode="clip") if len(table[3]) else 0.0
    return at >= 0, np.where(inside, chances, 0.0)


def _require_all(variables: np.ndarray, known: np.ndarray) -> None:
    if not known.all():
        raise VariableError(f"unknown variable id {variables[~known][0]}")


def _dense(items: Iterable[Tuple[int, float]]) -> List[float]:
    """The chances of ``(value, probability)`` pairs, checked to be a
    distribution over ``0..k-1``."""
    pairs = sorted((int(v), float(p)) for v, p in items)
    chances = [p for _, p in pairs]
    _validate([v for v, _ in pairs], chances)
    return chances


def _validate(values: Sequence[int], chances: Sequence[float]) -> None:
    if not chances:
        raise InvalidDistributionError("distribution must have at least one value")
    if list(values) != list(range(len(chances))):
        raise InvalidDistributionError(
            f"domain {list(values)} is not 0..{len(chances) - 1}"
        )
    total = 0.0
    for value, p in zip(values, chances):
        if not math.isfinite(p) or p < 0.0:
            raise InvalidDistributionError(
                f"probability {p!r} for value {value} is not in [0, 1]"
            )
        total += p
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise InvalidDistributionError(
            f"distribution sums to {total!r}, expected 1.0"
        )


def _validate_all(widths: np.ndarray, values: np.ndarray, chances: np.ndarray) -> None:
    """:func:`_validate` of many distributions laid end to end, in one
    array pass; the first bad one is reported as :func:`_validate` would."""
    owner = np.repeat(np.arange(len(widths)), widths)
    offsets = np.cumsum(widths) - widths
    bad = np.bincount(
        owner,
        weights=~(np.isfinite(chances) & (chances >= 0.0))
        | (values != np.arange(len(values)) - offsets[owner]),
        minlength=len(widths),
    ) > 0
    # bincount adds each distribution left to right, as _validate does.
    totals = np.bincount(owner, weights=chances, minlength=len(widths))
    bad |= (widths < 1) | (np.abs(totals - 1.0) > _SUM_TOLERANCE)
    if bad.any():
        i = int(np.argmax(bad))
        at = slice(offsets[i], offsets[i] + widths[i])
        _validate(values[at].tolist(), chances[at].tolist())
