"""Link-activation policies: fixed, random, local bandit, federated bandit.

The learning strategies are epsilon-greedy multi-armed bandits over the
2**k - 1 nonempty link subsets, with epsilon = 1/sqrt(t). The local model
scores arms by the AP's own average achieved rate; the federated model
scores them by the average of the minimum instant rate seen across the
AP's neighborhood (itself included), which pushes the joint behavior
toward max-min fair activations.

The n agents of a world advance together: their tables are (n, p) arrays
of visit counts and running means. Every agent-iteration of `random`,
`rl` and `frl` consumes exactly three uniforms from the AP's own stream:
the explore coin (explore when below epsilon), the explore arm
floor(u * p), and the tie rank floor(u * #maxima) among the actions of
largest mean. A federated agent keeps only the table it selects from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import rng as streams
from .errors import ConfigError
from .radio import LinkSet
from .scenario import MAX_LINKS

# Iterations whose uniforms are drawn per generator call. Results do not
# depend on it; it bounds the memory of the draws and of the stacked
# `random` rate step.
_BLOCK = 128


class Strategy(Enum):
    FIXED = "fixed"
    RANDOM = "random"
    LOCAL_RL = "rl"
    FEDERATED_RL = "frl"

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        for s in cls:
            if s.value == name:
                return s
        raise ConfigError(f"unknown strategy {name!r}; expected one of "
                          f"{[s.value for s in cls]}")


@dataclass(frozen=True)
class ActionSpace:
    """All nonempty link subsets in ascending mask order (1 .. 2**k - 1)."""

    k: int
    actions: tuple[LinkSet, ...]

    @property
    def p(self) -> int:
        return len(self.actions)

    @property
    def full_index(self) -> int:
        return self.p - 1  # ascending order puts the all-links mask last

    def mask_matrix(self) -> np.ndarray:
        """(p, k) boolean matrix: row a is the bit pattern of action a."""
        masks = np.arange(1, self.p + 1, dtype=np.uint32)
        return (masks[:, None] >> np.arange(self.k)) & 1 > 0


@lru_cache(maxsize=None)
def enumerate_actions(k: int) -> ActionSpace:
    """Deterministic enumeration of the 2**k - 1 nonempty link subsets."""
    if not 1 <= k <= MAX_LINKS:
        raise ConfigError(f"num_links must be in [1, {MAX_LINKS}], got {k}")
    return ActionSpace(k=k, actions=tuple(LinkSet(m, k) for m in range(1, 2**k)))


def exploration_rate(t):
    """Slow-decaying exploration probability 1/sqrt(t), for t >= 1 (scalar
    or array). The only place the schedule is written."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 1):
        raise ConfigError(f"iteration index starts at 1, got {t.min()}")
    return 1.0 / np.sqrt(t)


def policy_draws(seed: int, n: int, T: int, p: int):
    """Yield (t0, explore, arm, tie) over T iterations in blocks: row b of
    each (B, n) array belongs to iteration t0 + b + 1.

    Agent-iteration (t, i) reads three uniforms, in order, from AP i's own
    stream (seed, i): the explore coin (explore = coin < epsilon(t)), the
    explore arm pick(u, p) and the tie uniform. So AP i's draws depend only
    on (seed, i), not on n, on the strategy or on the block size.
    """
    gens = [streams.generator(seed, streams.PURPOSE_AGENT, i) for i in range(n)]
    for t0 in range(0, T, _BLOCK):
        u = np.stack([g.random((min(_BLOCK, T - t0), 3)) for g in gens], axis=1)
        eps = exploration_rate(np.arange(t0 + 1, t0 + len(u) + 1))
        yield t0, u[..., 0] < eps[:, None], pick(u[..., 1], p), u[..., 2]


def pick(u, count):
    """floor(u * count) for uniforms u in [0, 1): an index below count.

    The product rounds below count for any u < 1, since u is at most
    1 - 2**-53."""
    return (u * count).astype(np.intp)


def select(means: np.ndarray, explore: np.ndarray, arm: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """One epsilon-greedy step of all n agents; returns their action indices.

    `means` (n, p) are the tables the agents exploit. Agent i takes arm[i]
    where explore[i]; otherwise the pick(tie[i], m)-th of the m actions of
    largest means[i], in index order.
    """
    ties = means == means.max(axis=1, keepdims=True)
    if np.count_nonzero(ties) == len(means):
        # One maximum per row, so every rank is 0: the case of all but the
        # first few iterations of a run, without the cumsum and pick.
        greedy = ties.argmax(axis=1)
    else:
        greedy = (ties.cumsum(axis=1) > pick(tie, ties.sum(axis=1))[:, None]).argmax(axis=1)
    return np.where(explore, arm, greedy)


def credit(counts: np.ndarray, means: np.ndarray, index: np.ndarray, reward) -> None:
    """Credit reward[i] to action index[i] of table row i, in place.

    counts and means are (n, p) visit counts and running means; each mean
    stays the arithmetic mean (up to rounding) of the rewards credited to it.
    """
    flat = np.arange(0, counts.size, counts.shape[1]) + index
    counts, means = counts.reshape(-1), means.reshape(-1)  # views of the tables
    counts[flat] += 1
    means[flat] += (reward - means[flat]) / counts[flat]
