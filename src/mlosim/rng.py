"""Deterministic random-stream derivation.

Every stochastic component owns a private generator derived from a
structured integer key, so runs are reproducible and independent of
execution order or worker count. Keys are tuples like
(master_seed, scenario_index) or (run_seed, purpose, ap_index).
"""

from __future__ import annotations

# Imported eagerly: numpy loads numpy.random lazily, and a forked pool worker
# would otherwise import it on its first task.
from numpy.random import PCG64, Generator, SeedSequence

# Purpose tags keep child streams for different roles disjoint even when
# the remaining key components collide.
PURPOSE_SCENARIO = 1
PURPOSE_AGENT = 2
PURPOSE_RUN = 3


def seed_sequence(*key: int) -> SeedSequence:
    """Build a SeedSequence from a structured integer key."""
    return SeedSequence(tuple(int(k) for k in key))


def generator(*key: int) -> Generator:
    """PCG64 generator for the stream identified by `key`."""
    return Generator(PCG64(seed_sequence(*key)))


def derive_seed(*key: int) -> int:
    """Collapse a structured key into a single 64-bit seed."""
    state = seed_sequence(*key).generate_state(2, "uint32")
    return int(state[0]) << 32 | int(state[1])
