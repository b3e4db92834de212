"""The unbiased "out of the blue" context: a large sampled prior over states.

A state is drawn by first sampling a causal structure (independent with
probability 1/2, each dependent variant with probability 1/8), then its
table: independent states are product tables with Uniform(0,1) marginals;
dependent states draw causal power ``tau ~ Beta(10, 1)``, background power
``beta ~ Beta(1, 10)`` and cause prior ``upsilon_p ~ Uniform(0, 1)`` and
build the leaky noisy-or table.  The Beta shapes put the causal power's
mean above the usual assertability threshold of 0.9 and skew the
background noise towards 0.

Sampling is reproducible: the seed is split into one independent stream
per state index, so state ``i`` depends only on the seed and ``i``, and
the same seed always yields the same context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .context import ScenarioContext
from .core import (
    RELATION_ORDER,
    CausalStructure,
    Scalar,
    State,
    joint_from_marginals,
    joint_from_noisy_or,
)
from .semantics import default_utterances
from .tolerances import TOLERANCES
from .utterances import Utterance

#: prior over causal structures: independence is as likely as dependence,
#: and the four dependent variants split their half evenly
RELATION_PRIOR: dict[CausalStructure, Fraction] = {
    CausalStructure.INDEPENDENT: Fraction(1, 2),
    CausalStructure.AC_POS: Fraction(1, 8),
    CausalStructure.AC_NEG: Fraction(1, 8),
    CausalStructure.CA_POS: Fraction(1, 8),
    CausalStructure.CA_NEG: Fraction(1, 8),
}

_RELATION_CDF = tuple(
    float(sum(RELATION_PRIOR[r] for r in RELATION_ORDER[: i + 1]))
    for i in range(len(RELATION_ORDER))
)


@dataclass(frozen=True)
class PriorHyperparams:
    """Hyperparameters of the state prior.

    The cause prior and independent marginals are Uniform(0, 1) and not
    configurable; the Beta shapes are exposed for exploration but only the
    defaults are validated against the reference analyses.
    """

    tau_shape: tuple[float, float] = (10.0, 1.0)
    beta_shape: tuple[float, float] = (1.0, 10.0)
    n_states: int = 10_000

    def __post_init__(self) -> None:
        for name, (a, b) in (("tau_shape", self.tau_shape), ("beta_shape", self.beta_shape)):
            if a <= 0 or b <= 0:
                raise ValueError(f"{name} must be strictly positive, got {(a, b)}")
        if self.n_states < 1:
            raise ValueError(f"n_states must be positive, got {self.n_states}")


DEFAULT_HYPERPARAMS = PriorHyperparams()


def sample_relation(rng: np.random.Generator) -> CausalStructure:
    """One draw from the causal-structure prior (single uniform, fixed CDF)."""
    u = rng.random()
    for relation, cum in zip(RELATION_ORDER, _RELATION_CDF):
        if u < cum:
            return relation
    return RELATION_ORDER[-1]


def sample_state(
    rng: np.random.Generator, hyper: PriorHyperparams = DEFAULT_HYPERPARAMS
) -> State:
    """One state from the prior.

    Draw order (part of the determinism contract): relation; then either
    the two independent marginals, or (tau, beta, upsilon_p).
    """
    relation = sample_relation(rng)
    if relation is CausalStructure.INDEPENDENT:
        pa = rng.random()
        pc = rng.random()
        return State(joint_from_marginals(pa, pc), relation)
    tau = rng.beta(*hyper.tau_shape)
    beta = rng.beta(*hyper.beta_shape)
    upsilon_p = rng.random()
    return State(joint_from_noisy_or(relation, upsilon_p, tau, beta), relation)


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    raise TypeError(f"seed must be an int or SeedSequence, got {type(seed).__name__}")


def sample_default_states(
    seed, hyper: PriorHyperparams = DEFAULT_HYPERPARAMS
) -> tuple[State, ...]:
    """``hyper.n_states`` prior samples, split one RNG stream per state index.

    The result depends only on ``seed`` and ``hyper``.
    """
    return tuple(
        sample_state(np.random.default_rng(child), hyper)
        for child in _seed_sequence(seed).spawn(hyper.n_states)
    )


def build_default_context(
    seed,
    hyper: PriorHyperparams = DEFAULT_HYPERPARAMS,
    utterances: tuple[Utterance, ...] | None = None,
    alpha: Scalar = TOLERANCES.default_alpha,
    theta: Scalar = TOLERANCES.default_theta,
) -> ScenarioContext:
    """A context of equally weighted prior samples with the balanced
    utterance set (or a custom one)."""
    states = sample_default_states(seed, hyper)
    n = len(states)
    return ScenarioContext(
        states=states,
        weights=tuple([1.0 / n] * n),
        utterances=utterances if utterances is not None else default_utterances(),
        alpha=float(alpha),
        theta=float(theta),
    )
