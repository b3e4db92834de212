"""The unbiased "out of the blue" context: a large sampled prior over states.

A state is drawn by first sampling a causal structure (independent with
probability 1/2, each dependent variant with probability 1/8), then its
table: independent states are product tables with Uniform(0,1) marginals;
dependent states draw causal power ``tau ~ Beta(10, 1)``, background power
``beta ~ Beta(1, 10)`` and cause prior ``upsilon_p ~ Uniform(0, 1)`` and
build the leaky noisy-or table.  The Beta shapes put the causal power's
mean above the usual assertability threshold of 0.9 and skew the
background noise towards 0.

Sampling is reproducible: state ``i`` draws from the PCG64 stream of the
``i``-th child of ``SeedSequence(seed).spawn(n)``, so it depends only on
the seed and ``i``, and the same seed always yields the same context.  The
children's seeds are derived in arrays, with SeedSequence's hash mixing
and PCG64's seeding re-done on integer columns, and one reused `Generator`
is set to each child's state in turn; the streams are exactly the spawned
children's, and ``tests/test_default_context.py`` compares them with
numpy's own at random indices, so a change to either numpy algorithm fails
loudly there.  The sample is a structured array of relation codes and
cells, and the default context is built from those arrays directly: no
`State` object is made on this path.
"""

from __future__ import annotations

from bisect import bisect_right
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


def _relation_code(u: float) -> int:
    """The index into `RELATION_ORDER` that a uniform ``u`` in [0, 1) picks:
    the first relation whose cumulative prior exceeds ``u`` (the last is 1)."""
    return bisect_right(_RELATION_CDF, u)


def sample_relation(rng: np.random.Generator) -> CausalStructure:
    """One draw from the causal-structure prior (single uniform, fixed CDF)."""
    return RELATION_ORDER[_relation_code(rng.random())]


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return np.random.SeedSequence(int(seed))
    raise TypeError(f"seed must be an int or SeedSequence, got {type(seed).__name__}")


# -- the spawned children's seeds, derived in arrays -------------------------
# SeedSequence's hash mixing (numpy/random/bit_generator.pyx) and PCG64's
# seeding (pcg64.h), re-done on uint32 columns where they vary per child and
# on Python ints where they do not

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(x) -> list[int]:
    """SeedSequence's uint32 words of an int or a sequence of ints, least
    significant first."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & _MASK32]
        while x := x >> 32:
            words.append(x & _MASK32)
        return words
    return [word for item in x for word in _uint32_words(item)]


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's ``hashmix`` of a word or a uint32 column; returns the
    mixed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    """SeedSequence's ``mix`` of two words or uint32 columns."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _spawned_seed_words(seq: np.random.SeedSequence, n: int) -> np.ndarray:
    """``child.generate_state(4, np.uint64)`` of each child of
    ``seq.spawn(n)``, as an (n, 4) uint64 array; ``seq`` is not advanced.

    A child's entropy is the parent's entropy (zero-padded to the pool
    size), the parent's spawn key and the child's index.  Only the index
    differs between children, so the rest is mixed once, on Python ints,
    and only the index's mixing and ``generate_state`` run on columns.
    """
    size = seq.pool_size
    run = _uint32_words(seq.entropy)
    run += [0] * (size - len(run))
    hash_const = _INIT_A
    pool = []
    for word in run[:size]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(size):
        for dst in range(size):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in run[size:] + _uint32_words(seq.spawn_key):
        for dst in range(size):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)

    first = seq.n_children_spawned
    if first + n >= 1 << 32:
        # numpy counts spawned children in a uint32 and cannot spawn these
        raise ValueError(
            f"a SeedSequence spawns fewer than 2**32 children, asked for {first + n}"
        )
    index = np.arange(first, first + n, dtype=np.uint32)
    columns = [np.full(n, value, dtype=np.uint32) for value in pool]
    for dst in range(size):
        value, hash_const = _hashmix(index, hash_const)
        columns[dst] = _mix(columns[dst], value)

    # generate_state(4, np.uint64): eight words cycled from the pool, paired
    # little-endian into four uint64
    hash_const, words = _INIT_B, []
    for i in range(8):
        value, hash_const = _hashmix(columns[i % size], hash_const, _MULT_B)
        words.append(value.astype(np.uint64))
    return np.stack(
        [words[k] | words[k + 1] << np.uint64(32) for k in range(0, 8, 2)], axis=1
    )


def _pcg64_states(seed_words: np.ndarray):
    """PCG64's ``(state, inc)`` seeded by each row of (n, 4) uint64 seed
    words: the first two are the 128-bit seed and the last two the stream,
    high word first.  ``inc = stream << 1 | 1`` and the state is stepped
    twice from 0, adding the seed in between."""
    for seed_high, seed_low, stream_high, stream_low in seed_words.tolist():
        inc = ((stream_high << 64 | stream_low) << 1 | 1) & _MASK128
        seed_state = seed_high << 64 | seed_low
        yield ((inc + seed_state) * _PCG64_MULT + inc) & _MASK128, inc


#: one sampled state: its relation code into `RELATION_ORDER` and its four
#: cells in `World` order
SAMPLE_DTYPE = np.dtype([("relation", np.int8), ("cells", np.float64, (4,))])

#: states drawn per block of Python values; bounds the sampler's memory,
#: not its result
_BLOCK = 8192


def sample_default_states(
    seed, n_states: int = TOLERANCES.default_n_states
) -> np.ndarray:
    """``n_states`` prior samples, split one RNG stream per state index, as a
    structured array of `SAMPLE_DTYPE` records.

    State ``i`` draws from the stream of the ``i``-th child of
    ``SeedSequence(seed).spawn(n_states)``; a `SeedSequence` seed is
    advanced as ``spawn`` advances it.  Draw order per state (part of the
    determinism contract): the relation; then either the two independent
    marginals, or (tau, beta, upsilon_p).  The cells then come from the
    `core` table formulas, applied once per relation.  The result depends
    only on ``seed`` and ``n_states``.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be positive, got {n_states}")
    seq = _seed_sequence(seed)
    seed_words = _spawned_seed_words(seq, n_states)
    if seq is seed:  # a caller's SeedSequence counts the children it gave out
        seq.spawn(n_states)

    # one reused generator, set to each child's PCG64 state in turn
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    random, beta = rng.random, rng.beta
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    independent = RELATION_ORDER.index(CausalStructure.INDEPENDENT)
    # per state: (code, pa, pc, 0) or (code, tau, beta, upsilon_p)
    draws = np.zeros((n_states, 4))
    for first in range(0, n_states, _BLOCK):
        block = []
        for pcg_state, inc in _pcg64_states(seed_words[first : first + _BLOCK]):
            pcg["state"], pcg["inc"] = pcg_state, inc
            bit_generator.state = state
            code = _relation_code(random())
            if code == independent:
                block.append((code, random(), random(), 0.0))
            else:
                block.append((code, beta(*TAU_SHAPE), beta(*BETA_SHAPE), random()))
        draws[first : first + len(block)] = block

    sample = np.zeros(n_states, dtype=SAMPLE_DTYPE)
    codes = sample["relation"]
    codes[:] = draws[:, 0]
    for code, relation in enumerate(RELATION_ORDER):
        rows = codes == code
        first, second, third = draws[rows, 1:].T
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
