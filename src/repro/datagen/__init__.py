"""Workload generators for the examples, tests, and benchmarks.

Everything is seeded and deterministic.  :mod:`repro.datagen.nba`
substitutes for the paper's www.nba.com data (see DESIGN.md);
:mod:`repro.datagen.markov` builds stochastic matrices and their relational
encodings (Figure 1); :mod:`repro.datagen.random_dnf` drives the
exact-vs-approximate crossover study; :mod:`repro.datagen.tpch` is the
scaled-down TPC-H-like generator behind the benchmark's ``tpch`` dataset
and the SPROUT example.
"""

from repro.datagen.markov import (
    matrix_power_distribution,
    random_stochastic_matrix,
    transition_relation,
)
from repro.datagen.nba import NBADataGenerator
from repro.datagen.random_dnf import random_dnf, random_registry
from repro.datagen.tpch import TpchGenerator

__all__ = [
    "random_stochastic_matrix",
    "transition_relation",
    "matrix_power_distribution",
    "NBADataGenerator",
    "random_dnf",
    "random_registry",
    "TpchGenerator",
]
