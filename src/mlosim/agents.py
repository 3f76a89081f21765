"""Link-activation policies: fixed, random, local bandit, federated bandit.

An action is a row of `link_mask_matrix(k)`: one of the 2**k - 1
nonempty link subsets. The learning strategies are epsilon-greedy
multi-armed bandits over them, with epsilon = 1/sqrt(t). Each scores an
arm by the average minimum instant rate over a set of APs: the AP alone
for the local model (its own rate), the AP and its neighbors for the
federated one, which pushes the joint behavior toward max-min fair
activations.

The n agents of a world advance together: their `Tables` are (n, p)
arrays of visit counts and running means. Every agent-iteration of `random`,
`rl` and `frl` consumes exactly three uniforms from the AP's own stream:
the explore coin (explore when below epsilon), the explore arm
floor(u * p), and the tie rank floor(u * #maxima) among the actions of
largest mean. A federated agent keeps only the table it selects from.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import rng as streams
from .errors import ConfigError

# Iterations whose uniforms are drawn per generator call. Results do not
# depend on it; it bounds the memory of the draws and of the stacked
# `random` rate step.
_BLOCK = 128


class Strategy(str, Enum):
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


def link_mask_matrix(k: int) -> np.ndarray:
    """The (2**k - 1, k) float64 action matrix: row a is the bit pattern of
    link mask a + 1 (bit j <=> link j active), so every row is nonempty and
    the last activates all k links."""
    masks = np.arange(1, 2**k, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(k)) & 1).astype(np.float64)


def policy_draws(seeds, n: int, T: int, p: int):
    """Yield (t0, explore, arm, tie) over T iterations in blocks: row b of
    each (B, len(seeds) * n) array belongs to iteration t0 + b + 1, column
    w * n + i to AP i of run w. `tie` is a view the next block overwrites.

    Agent-iteration (t, w * n + i) reads three uniforms, in order, from the
    stream (seeds[w], i): the explore coin (explore = coin < 1/sqrt(t)), the
    explore arm pick(u, p) and the tie uniform. So its draws depend only on
    (seeds[w], i), not on n, the other runs, the strategy or the block size.
    """
    gens = [streams.generator(seed, streams.PURPOSE_AGENT, i) for seed in seeds for i in range(n)]
    u = np.empty((min(_BLOCK, T), len(gens), 3))
    for t0 in range(0, T, _BLOCK):
        u = u[: T - t0]  # the last block may be shorter
        for j, g in enumerate(gens):
            u[:, j] = g.random((len(u), 3))
        eps = 1.0 / np.sqrt(np.arange(t0 + 1, t0 + len(u) + 1, dtype=np.float64))
        yield t0, u[..., 0] < eps[:, None], pick(u[..., 1], p), u[..., 2]


def pick(u, count):
    """floor(u * count) for uniforms u in [0, 1): an index below count.

    The product rounds below count for any u < 1, since u is at most
    1 - 2**-53."""
    return (u * count).astype(np.intp)


class Tables:
    """The bandit tables of n agents over p actions: visit counts and
    running means, stored flat; the means also as an (n, p) view.

    Entry (i, a) sits at flat index offsets[i] + a, which `select` returns
    and `credit` takes; indexing the flat arrays is cheaper than 2-D or
    `take`/`put` indexing at these sizes. Counts are float64, exact below
    2**53, so that a running mean divides float by float.
    """

    def __init__(self, n: int, p: int) -> None:
        self.flat_counts = np.zeros(n * p)
        self.flat_means = np.zeros(n * p)
        self.means = self.flat_means.reshape(n, p)
        self.offsets = np.arange(0, n * p, p)


def select(tables: Tables, explore: np.ndarray | None, arm: np.ndarray,
           tie: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One epsilon-greedy step of all n agents: each one's flat index
    offsets[i] + a of its action a, and that entry's current mean.

    Agent i takes the flat index arm[i] (offsets[i] plus its explore arm)
    where explore[i]; otherwise the pick(tie[i], m)-th of the m actions of
    largest tables.means[i], in index order. `explore` may be None when no
    agent explores.

    The first maximum of each row (argmax) is the answer unless some row
    holds its maximum more than once; only then are the maxima ranked.
    Every maximum of a row has its mean, so that is the greedy agents' mean.
    """
    means, offsets = tables.means, tables.offsets
    flat = means.argmax(axis=1)
    flat += offsets
    top = tables.flat_means[flat]
    ties = means == top[:, None]
    if np.count_nonzero(ties) != len(means):
        # Some row has several maxima, as every row has at t = 1.
        flat = (ties.cumsum(axis=1) > pick(tie, ties.sum(axis=1))[:, None]).argmax(axis=1)
        flat += offsets
    if explore is None:
        return flat, top
    np.copyto(flat, arm, where=explore)
    return flat, tables.flat_means[flat]


def credit(tables: Tables, flat: np.ndarray, reward, mean: np.ndarray) -> None:
    """Credit reward[i] to the entry at flat index flat[i], whose current
    mean is mean[i], in place; each mean stays the arithmetic mean (up to
    rounding) of the rewards credited to it."""
    counts = tables.flat_counts
    visits = counts[flat] + 1
    counts[flat] = visits
    tables.flat_means[flat] = mean + (reward - mean) / visits
