"""The finite set of independent random variables underlying a U-relational
database.

Section 2.1: "The condition columns store variables from a finite set of
independent random variables and their assignments; the probability
columns store the probabilities of the variable assignments."

A :class:`VariableRegistry` is the world table: each variable has a finite
integer domain and a probability distribution over it.  Variables are
created by ``repair key`` (one per key group, one alternative per
candidate tuple) and ``pick tuples`` (Boolean, one per tuple or duplicate
group).  Variable id ``0`` is reserved for the always-true atom used to
pad condition columns in the wide relational encoding.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

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
    """

    def __init__(self):
        self._distributions: Dict[int, Dict[int, float]] = {
            TOP_VARIABLE: {0: 1.0}
        }
        self._names: Dict[int, str] = {TOP_VARIABLE: "top"}
        self._next_id = 1
        #: Mutation counter (any change) and the counter value of the most
        #: recent change that touched an id *below* the then-current
        #: ``_next_id`` frontier.  Together they let incremental
        #: checkpoints prove that everything below a recorded frontier is
        #: untouched, so only a delta of newer variables needs snapshotting
        #: (see :meth:`mutation_stamp` and ``engine/durability.py``).
        self._version = 0
        self._nonappend_version = 0
        #: Guards id allocation and the distribution maps: concurrent
        #: sessions register variables (repair key inside queries) while a
        #: checkpoint thread serializes the whole registry.
        self._mutex = threading.RLock()
        #: Optional hook called as ``on_register(var, name, distribution)``
        #: after every :meth:`fresh` creation.  The session facade routes it
        #: into the registering transaction (so a rollback unregisters the
        #: variable and the registration never reaches a committed WAL
        #: unit) or, outside any transaction, straight to the write-ahead
        #: log -- condition columns are meaningless without it.  Restores
        #: during recovery go through :meth:`restore` and do NOT fire it.
        self.on_register = None

    # -- creation -------------------------------------------------------------
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
        with self._mutex:
            var = self._next_id
            self._next_id += 1
            self._distributions[var] = dist
            self._names[var] = name if name is not None else f"x{var}"
            self._version += 1  # pure append: ids below the frontier untouched
        if self.on_register is not None:
            self.on_register(var, self._names[var], dict(dist))
        return var

    def unregister(self, var: int) -> None:
        """Remove a variable (rollback of the statement that created it).

        The id is reclaimed only when it is the most recently allocated
        one, so undoing a transaction in reverse order restores the
        registry -- including ``_next_id`` -- to its exact prior state.
        """
        var = int(var)
        if var == TOP_VARIABLE:
            raise VariableError("variable id 0 (the top atom) cannot be unregistered")
        with self._mutex:
            if var not in self._distributions:
                raise VariableError(f"unknown variable id {var}")
            del self._distributions[var]
            del self._names[var]
            if var == self._next_id - 1:
                self._next_id = var
            self._version += 1
            # Removal touches an id below the (post-reclaim) frontier: a
            # delta snapshot anchored before this mutation could miss it.
            self._nonappend_version = self._version

    def restore(
        self,
        var: int,
        distribution: Union[Mapping[int, float], Sequence[Tuple[int, float]]],
        name: Optional[str] = None,
    ) -> int:
        """Re-register a variable under its original id (crash recovery).

        Unlike :meth:`fresh` this pins the id, advances ``_next_id`` past
        it, and never fires :attr:`on_register` (recovery must not re-log).
        """
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
            appends = var >= self._next_id
            self._distributions[var] = dist
            self._names[var] = name if name is not None else f"x{var}"
            self._next_id = max(self._next_id, var + 1)
            self._version += 1
            if not appends:
                self._nonappend_version = self._version
        return var

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
        return self._names[var]

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
        distributions = self._distributions
        try:
            return [
                distributions[var].get(value, 0.0)
                for var, value in zip(variables, values)
            ]
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
        """An independent copy.  The :attr:`on_register` hook is deliberately
        not copied: clones are scratch registries (what-if evaluation)
        whose variables must not be logged as durable state."""
        clone = VariableRegistry()
        with self._mutex:
            clone._distributions = {v: dict(d) for v, d in self._distributions.items()}
            clone._names = dict(self._names)
            clone._next_id = self._next_id
        return clone

    # -- checkpoint serialization ------------------------------------------------
    def mutation_stamp(self) -> Tuple[int, int, int]:
        """``(version, nonappend_version, next_id)`` under the mutex.

        A checkpoint that recorded ``(version=V, next_id=N)`` can later
        snapshot only the *delta* of variables with id >= N iff no
        mutation after V touched an id below its frontier, i.e. iff the
        current ``nonappend_version <= V`` -- ``repair key`` only ever
        appends, so in practice full registry rewrites happen only after
        rollbacks and recovery races.
        """
        with self._mutex:
            return (self._version, self._nonappend_version, self._next_id)

    def dump_state(self, min_id: int = 0) -> Dict[str, object]:
        """JSON-safe snapshot of every user variable (for checkpoints).

        ``min_id`` restricts the dump to variables at or above that id --
        the registry delta an incremental checkpoint appends on top of the
        segments it re-links from the previous epoch.  ``next_id`` is
        always the full frontier, so restoring base + deltas in order
        reproduces the id allocator exactly.
        """
        with self._mutex:
            return {
                "next_id": self._next_id,
                "variables": [
                    [var, self._names[var], sorted(self._distributions[var].items())]
                    for var in self._distributions
                    if var != TOP_VARIABLE and var >= min_id
                ],
            }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`dump_state` snapshot into this registry."""
        for var, name, dist in state["variables"]:  # type: ignore[index]
            self.restore(var, dist, name)
        self._next_id = max(self._next_id, int(state["next_id"]))  # type: ignore[arg-type]

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
