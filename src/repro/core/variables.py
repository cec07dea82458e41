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
"""

from __future__ import annotations

import bisect
import math
import random
import threading
import weakref
from collections import ChainMap
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, MutableMapping,
    Optional, Sequence, Tuple, Union,
)

from repro.errors import InvalidDistributionError, VariableError

#: Reserved variable id for the always-true padding atom (domain {0}, P=1).
TOP_VARIABLE = 0

#: Tolerance when checking that a distribution sums to one.
_SUM_TOLERANCE = 1e-9

Assignment = Mapping[int, int]


class VariableRegistry:
    """Registry of independent finite random variables.

    Distributions map integer domain values to probabilities in [0, 1]
    summing to 1.  Zero-probability alternatives are allowed (they arise
    from zero weights and zero pick probabilities) and simply never occur
    in any world with positive probability.

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
        #: The variables registered here (a scope: the ones it minted).
        self._own: Dict[int, Dict[int, float]] = {}
        self._names: Dict[int, str] = {}
        #: Lazily named id blocks ``(start, stop, namer)``, in id order:
        #: ``namer(i)`` names the block's ``i``-th variable when asked.
        self._blocks: List[Tuple[int, int, Callable[[int], str]]] = []
        self._block_starts: List[int] = []
        self._distributions: MutableMapping[int, Dict[int, float]]
        if durable is not None:
            self._distributions = ChainMap(self._own, durable._own)
            with durable._mutex:
                durable._scopes.add(self)
            return
        self._own[TOP_VARIABLE] = {0: 1.0}
        self._names[TOP_VARIABLE] = "top"
        self._distributions = self._own
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
        #: Guards id allocation and the distribution maps: concurrent
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

    # -- creation -------------------------------------------------------------
    def mint(
        self,
        distributions: Sequence[Dict[int, float]],
        namer: Optional[Callable[[int], str]] = None,
    ) -> int:
        """Register one variable per (already validated) distribution
        under one contiguous block of fresh ids, reserved from the durable
        frontier under one lock acquisition; returns the block's first id.
        ``namer(i)`` names the ``i``-th variable when someone asks
        (:meth:`name`); without it the name is ``x<id>``."""
        durable = self.durable
        count = len(distributions)
        with durable._mutex:
            start = durable._next_id
            durable._next_id = start + count
            self._own.update(zip(range(start, start + count), distributions))
            if durable is self and count:
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
        ``0..len-1``) or a mapping from domain values to probabilities.
        """
        if isinstance(distribution, Mapping):
            dist = {int(v): float(p) for v, p in distribution.items()}
        else:
            dist = {i: float(p) for i, p in enumerate(distribution)}
        _validate_distribution(dist)
        var = self.mint([dist])
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
            if var not in self._own:
                raise VariableError(f"unknown variable id {var}")
            if self._holds.get(var, 1) > 1:
                self._holds[var] -= 1
                return
            del self._own[var]
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
        items = (
            distribution.items()
            if isinstance(distribution, Mapping)
            else distribution
        )
        dist = {int(v): float(p) for v, p in items}
        _validate_distribution(dist)
        with self._mutex:
            self._own[var] = dist
            self._names[var] = name if name is not None else f"x{var}"
            self._next_id = max(self._next_id, var + 1)
            self._touch(var)
        return var

    def promote(self, var: int, distribution: Mapping[int, float], name: str) -> None:
        """Make a variable a statement scope minted durable under its id,
        or take one more hold on it when it already is (two transactions
        storing one held result: the check and the insertion are one step
        under the mutex).  Each promotion is undone by one
        :meth:`unregister`."""
        with self._mutex:
            if var in self._own:
                self._holds[var] = self._holds.get(var, 1) + 1
                return
            self._own[var] = dict(distribution)
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
        wanted = set(variables)
        return sorted(
            (var, scope.name(var), scope._own[var])
            for scope in scopes
            for var in wanted & scope._own.keys()
        )

    def fresh_boolean(self, probability_true: float, name: Optional[str] = None) -> int:
        """A Boolean variable: domain {0, 1}, P(1) = probability_true."""
        p = float(probability_true)
        if not (0.0 <= p <= 1.0):
            raise InvalidDistributionError(
                f"boolean probability {p} outside [0, 1]"
            )
        return self.fresh({0: 1.0 - p, 1: p}, name)

    # -- lookup ---------------------------------------------------------------
    def __contains__(self, var: int) -> bool:
        return var in self._distributions

    def __len__(self) -> int:
        """Number of user variables (the reserved top variable excluded)."""
        return len(self._distributions) - 1

    def variables(self) -> Iterator[int]:
        """All user variable ids (top excluded), in creation order."""
        return (v for v in self._distributions if v != TOP_VARIABLE)

    def name(self, var: int) -> str:
        self._require(var)
        if var not in self._own:
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
        self._require(var)
        return tuple(self._distributions[var])

    def distribution(self, var: int) -> Dict[int, float]:
        self._require(var)
        return dict(self._distributions[var])

    def probability(self, var: int, value: int) -> float:
        """P(var = value); 0.0 for values outside the declared domain."""
        self._require(var)
        return self._distributions[var].get(value, 0.0)

    def probabilities(
        self, variables: Iterable[int], values: Iterable[int]
    ) -> List[float]:
        """:meth:`probability` of each ``(variable, value)`` pair -- the
        bulk look-up of the array kernels, one dict access per atom."""
        own, durable = self._own, self.durable._own
        try:
            return [
                (own.get(var) or durable[var]).get(value, 0.0)
                for var, value in zip(variables, values)
            ]
        except KeyError as error:
            raise VariableError(f"unknown variable id {error.args[0]}") from None

    def distributions(self, variables: Iterable[int]) -> List[Mapping[int, float]]:
        """The distribution of each variable, not copied: the bulk look-up
        of the confidence engines, which only read them."""
        own, durable = self._own, self.durable._own
        try:
            return [own.get(var) or durable[var] for var in variables]
        except KeyError as error:
            raise VariableError(f"unknown variable id {error.args[0]}") from None

    def domain_size(self, var: int) -> int:
        self._require(var)
        return len(self._distributions[var])

    def _require(self, var: int) -> None:
        if var not in self._distributions:
            raise VariableError(f"unknown variable id {var}")

    # -- whole-registry views ----------------------------------------------------
    def world_count(self, variables: Optional[Iterable[int]] = None) -> int:
        """Number of possible worlds (assignments with positive probability)
        over the given variables (default: all user variables)."""
        count = 1
        for var in variables if variables is not None else self.variables():
            positive = sum(1 for p in self._distributions[var].values() if p > 0)
            count *= max(positive, 1)
        return count

    def copy(self) -> "VariableRegistry":
        """An independent copy of a durable registry (what-if evaluation)."""
        clone = VariableRegistry()
        with self._mutex:
            clone._own.update((v, dict(d)) for v, d in self._own.items())
            clone._names.update((v, self.name(v)) for v in self._own)
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
            return {
                "next_id": self._next_id,
                "variables": [
                    [var, self.name(var), sorted(self._own[var].items())]
                    for var in self._own
                    if var != TOP_VARIABLE and var >= min_id
                ],
            }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`dump_state` snapshot into this registry (and
        seal its frontier, as the dump did)."""
        for var, name, dist in state["variables"]:  # type: ignore[index]
            self.restore(var, dist, name)
        next_id = int(state["next_id"])  # type: ignore[arg-type]
        with self._mutex:
            self._next_id = max(self._next_id, next_id)
            self._sealed = max(self._sealed, next_id)

    # -- sampling --------------------------------------------------------------
    def sample_value(self, var: int, rng: random.Random) -> int:
        """Sample a domain value of ``var`` from its distribution."""
        self._require(var)
        u = rng.random()
        acc = 0.0
        dist = self._distributions[var]
        last = None
        for value, p in dist.items():
            acc += p
            last = value
            if u < acc:
                return value
        # Floating point slack: return the last value.
        assert last is not None
        return last

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


def _validate_distribution(dist: Dict[int, float]) -> None:
    if not dist:
        raise InvalidDistributionError("distribution must have at least one value")
    total = 0.0
    for value, p in dist.items():
        if not math.isfinite(p) or p < 0.0:
            raise InvalidDistributionError(
                f"probability {p!r} for value {value} is not in [0, 1]"
            )
        total += p
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise InvalidDistributionError(
            f"distribution sums to {total!r}, expected 1.0"
        )
