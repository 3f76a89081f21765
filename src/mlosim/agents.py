"""Link-activation policies: fixed, random, local bandit, federated bandit.

An action is an index a over the 2**k - 1 nonempty link subsets, standing
for link mask a + 1; only the rate kernel (radio.rate_kernel) turns it
into links. The learning strategies are epsilon-greedy multi-armed
bandits over the indices, with epsilon = 1/sqrt(t). Each scores an arm by
the average minimum instant rate over a set of APs: the AP alone for the
local model (its own rate), the AP and its neighbors for the federated
one, which pushes the joint behavior toward max-min fair activations.

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


def policy_draws(seeds, ns, T: int, p: int):
    """Yield (t0, explore, arm, tie) over T iterations in blocks: row b of
    each (B, sum(ns)) array belongs to iteration t0 + b + 1, and run w's
    ns[w] APs take the columns after those of the runs before it, AP i of
    run w column sum(ns[:w]) + i. `explore` and `arm` are C-contiguous, so
    their rows are too; `tie` is a strided view that the next block
    overwrites.

    Agent-iteration (t, sum(ns[:w]) + i) reads three uniforms, in order,
    from the stream (seeds[w], i): the explore coin (explore = coin <
    1/sqrt(t)), the explore arm pick(u, p) and the tie uniform. So its draws
    depend only on (seeds[w], i), not on n, the other runs, the strategy or
    the block size. Each stream fills its own agent-major row of one
    (sum(ns), B, 3) buffer in place.
    """
    gens = [streams.generator(seed, streams.PURPOSE_AGENT, i)
            for seed, n in zip(seeds, ns, strict=True) for i in range(n)]
    u = np.empty((len(gens), min(_BLOCK, T), 3))
    for t0 in range(0, T, _BLOCK):
        u = u[:, : T - t0]  # the last block may be shorter
        for j, g in enumerate(gens):
            g.random(out=u[j])
        coin, arm, tie = u.T  # each (B, len(gens)), strided
        eps = 1.0 / np.sqrt(np.arange(t0 + 1, t0 + len(coin) + 1, dtype=np.float64))
        yield t0, np.less(coin, eps[:, None], order="C"), pick(arm, p), tie


def pick(u, count):
    """floor(u * count) for uniforms u in [0, 1): an index below count.

    The product rounds below count for any u < 1, since u is at most
    1 - 2**-53. The result is C-contiguous whatever the layout of u."""
    return (u * count).astype(np.intp, order="C")


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
