"""Workload generators for the examples, tests, and benchmarks.

Everything is seeded and deterministic.  :mod:`repro.datagen.nba`
substitutes for the paper's www.nba.com data (see DESIGN.md);
:mod:`repro.datagen.markov` builds stochastic matrices and their relational
encodings (Figure 1); :mod:`repro.datagen.random_dnf` drives the
exact-vs-approximate crossover study; :mod:`repro.datagen.tpch` is the
scaled-down TPC-H-like generator for the SPROUT and translation benches.
"""

from importlib import import_module

from repro.datagen.random_dnf import random_dnf, random_registry
from repro.datagen.tpch import TpchGenerator

#: ``markov`` and ``nba`` need NumPy, the generators above do not: these
#: names are resolved on first access (PEP 562) so that the package -- and
#: with it ``repro.datagen.random_dnf`` -- imports without NumPy.
_NUMPY_EXPORTS = {
    "random_stochastic_matrix": "markov",
    "transition_relation": "markov",
    "matrix_power_distribution": "markov",
    "NBADataGenerator": "nba",
}

__all__ = [
    "random_stochastic_matrix",
    "transition_relation",
    "matrix_power_distribution",
    "NBADataGenerator",
    "random_dnf",
    "random_registry",
    "TpchGenerator",
]


def __getattr__(name: str):
    module = _NUMPY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
