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
the same seed always yields the same context.  The sample is a structured
array of relation codes and cells, and the default context is built from
those arrays directly: no `State` object is made on this path.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .context import ScenarioContext
from .core import (
    RELATION_ORDER,
    CausalStructure,
    Scalar,
    noisy_or_cells,
    product_cells,
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

#: Beta shapes of the causal power ``tau`` and the background power ``beta``
TAU_SHAPE = (10.0, 1.0)
BETA_SHAPE = (1.0, 10.0)

_RELATION_CDF = tuple(
    float(sum(RELATION_PRIOR[r] for r in RELATION_ORDER[: i + 1]))
    for i in range(len(RELATION_ORDER))
)


def sample_relation(rng: np.random.Generator) -> CausalStructure:
    """One draw from the causal-structure prior (single uniform, fixed CDF)."""
    u = rng.random()
    for relation, cum in zip(RELATION_ORDER, _RELATION_CDF):
        if u < cum:
            return relation
    return RELATION_ORDER[-1]


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    raise TypeError(f"seed must be an int or SeedSequence, got {type(seed).__name__}")


#: one sampled state: its relation code into `RELATION_ORDER` and its four
#: cells in `World` order
SAMPLE_DTYPE = np.dtype([("relation", np.int8), ("cells", np.float64, (4,))])


def sample_default_states(
    seed, n_states: int = TOLERANCES.default_n_states
) -> np.ndarray:
    """``n_states`` prior samples, split one RNG stream per state index, as a
    structured array of `SAMPLE_DTYPE` records.

    Draw order per state (part of the determinism contract): the relation;
    then either the two independent marginals, or (tau, beta, upsilon_p).
    The cells then come from the `core` table formulas, applied once per
    relation.  The result depends only on ``seed`` and ``n_states``.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be positive, got {n_states}")
    sample = np.zeros(n_states, dtype=SAMPLE_DTYPE)
    codes = sample["relation"]
    draws = np.zeros((n_states, 3))  # (pa, pc, 0) or (tau, beta, upsilon_p)
    for i, child in enumerate(_seed_sequence(seed).spawn(n_states)):
        rng = np.random.default_rng(child)
        relation = sample_relation(rng)
        codes[i] = RELATION_ORDER.index(relation)
        if relation is CausalStructure.INDEPENDENT:
            draws[i, :2] = rng.random(), rng.random()
        else:
            draws[i] = rng.beta(*TAU_SHAPE), rng.beta(*BETA_SHAPE), rng.random()
    for code, relation in enumerate(RELATION_ORDER):
        rows = codes == code
        first, second, third = draws[rows].T
        if relation is CausalStructure.INDEPENDENT:
            cells = product_cells(first, second)
        else:
            cells = noisy_or_cells(relation, third, first, second)
        sample["cells"][rows] = np.stack(cells, axis=1)
    return sample


def build_default_context(
    seed,
    n_states: int = TOLERANCES.default_n_states,
    utterances: tuple[Utterance, ...] | None = None,
    alpha: Scalar = TOLERANCES.default_alpha,
    theta: Scalar = TOLERANCES.default_theta,
) -> ScenarioContext:
    """A context of equally weighted prior samples with the balanced
    utterance set (or a custom one)."""
    sample = sample_default_states(seed, n_states)
    return ScenarioContext(
        cells=sample["cells"],
        prior=np.full(n_states, 1.0 / n_states),
        relations=sample["relation"],
        utterances=utterances if utterances is not None else default_utterances(),
        alpha=float(alpha),
        theta=float(theta),
    )
