"""Link-activation policies: fixed, random, local bandit, federated bandit.

The learning strategies are epsilon-greedy multi-armed bandits over the
2**k - 1 nonempty link subsets, with epsilon = 1/sqrt(t). The local model
scores arms by the AP's own average achieved rate; the federated model
scores them by the average of the minimum instant rate seen across the
AP's neighborhood (itself included), which pushes the joint behavior
toward max-min fair activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .radio import LinkSet
from .scenario import MAX_LINKS


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


def exploration_rate(t: int) -> float:
    """Slow-decaying exploration probability, 1/sqrt(t) for t >= 1."""
    if t < 1:
        raise ConfigError(f"iteration index starts at 1, got {t}")
    return 1.0 / math.sqrt(t)


class RewardTable:
    """Per-action visit counts and running mean rewards (bits/second).

    The incremental update keeps each mean exactly equal to the arithmetic
    mean of all rewards credited to that action.
    """

    __slots__ = ("counts", "means")

    def __init__(self, num_actions: int):
        if num_actions < 1:
            raise ConfigError(f"need at least one action, got {num_actions}")
        self.counts = np.zeros(num_actions, dtype=np.int64)
        self.means = np.zeros(num_actions, dtype=np.float64)

    @property
    def num_actions(self) -> int:
        return len(self.counts)

    def credit(self, action_index: int, reward: float) -> None:
        self.counts[action_index] += 1
        self.means[action_index] += (reward - self.means[action_index]) / self.counts[action_index]

    def to_json_dict(self, space: ActionSpace) -> dict:
        """Mask-keyed view of the learned statistics, e.g. {"0101": {...}}."""
        return {
            str(space.actions[a]): {"count": int(self.counts[a]), "mean": float(self.means[a])}
            for a in range(self.num_actions)
        }


@dataclass
class AgentState:
    """One AP's policy state: strategy, reward tables, private RNG."""

    ap_index: int
    strategy: Strategy
    rng: np.random.Generator
    local_table: RewardTable
    global_table: RewardTable | None = None

    @classmethod
    def create(
        cls, ap_index: int, strategy: Strategy, num_actions: int, rng: np.random.Generator
    ) -> "AgentState":
        return cls(
            ap_index=ap_index,
            strategy=strategy,
            rng=rng,
            local_table=RewardTable(num_actions),
            global_table=(
                RewardTable(num_actions) if strategy is Strategy.FEDERATED_RL else None
            ),
        )


def _argmax_random_tie(values: np.ndarray, rng: np.random.Generator) -> int:
    best = np.flatnonzero(values == values.max())
    if len(best) == 1:
        return int(best[0])
    return int(best[rng.integers(len(best))])


def select_action(agent: AgentState, space: ActionSpace, t: int) -> int:
    """Pick this iteration's link subset; returns its index into `space`."""
    strat = agent.strategy
    if strat is Strategy.FIXED:
        return space.full_index
    if strat is Strategy.RANDOM:
        return int(agent.rng.integers(space.p))
    table = agent.global_table if strat is Strategy.FEDERATED_RL else agent.local_table
    if agent.rng.random() < exploration_rate(t):
        return int(agent.rng.integers(space.p))
    return _argmax_random_tie(table.means, agent.rng)


def update(
    agent: AgentState, index: int, local_r: float, global_r: float | None = None
) -> None:
    """Credit the iteration's rewards to action `index` of the agent's tables.

    Every strategy records local statistics (fixed/random only for
    reporting); the federated strategy additionally credits the shared
    minimum to its global table.
    """
    agent.local_table.credit(index, local_r)
    if agent.strategy is Strategy.FEDERATED_RL:
        agent.global_table.credit(index, global_r)
