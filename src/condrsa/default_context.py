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
re-done on integer columns.  PCG64 itself runs on (high, low) pairs of
uint64 columns: its seeding, its 128-bit LCG step, its XSL-RR output and
``Generator.random()``'s 53-bit double, so every state's relation draw and
an independent state's two marginals are column operations.  A dependent
state's two Betas and cause prior are column operations too: numpy's Beta
is Marsaglia and Tsang's gamma method on its ziggurat normal and
exponential samplers, whose tables are read from numpy itself on the first
sample, and their fast paths are redone on the columns.  Only a state whose
draws leave a fast path (about 8% of the dependent ones) visits a
Python-level `Generator`: one reused generator is set to its stream after
the relation draw and draws its Betas and cause prior.  The streams and
draws are exactly the spawned children's, and
``tests/test_default_context.py`` compares them with numpy's own at random
indices, so a change to any of these numpy algorithms fails loudly there.
The sample is a structured array of relation codes and cells, and the
default context is built from those arrays directly: no `State` object is
made on this path.
"""

from __future__ import annotations

import functools
import math
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

_RELATION_CDF = np.array([
    float(sum(RELATION_PRIOR[r] for r in RELATION_ORDER[: i + 1]))
    for i in range(len(RELATION_ORDER))
])


def _relation_codes(u):
    """The indices into `RELATION_ORDER` that uniforms ``u`` in [0, 1) pick:
    the first relation whose cumulative prior exceeds ``u`` (the last is 1)."""
    return np.searchsorted(_RELATION_CDF, u, side="right")


def sample_relation(rng: np.random.Generator) -> CausalStructure:
    """One draw from the causal-structure prior (single uniform, fixed CDF)."""
    return RELATION_ORDER[_relation_codes(rng.random())]


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


# -- PCG64 on (high, low) uint64 column pairs ---------------------------------
# pcg64.h: ``inc = stream << 1 | 1``; a step is ``state * M + inc`` mod
# 2**128; the XSL-RR output of a state is its two words xor-ed and rotated
# right by its top six bits; and ``next_double`` keeps an output's top 53 bits

_U32, _U64 = np.uint64(32), np.uint64(64)
_LOW32 = np.uint64(_MASK32)
_MULT_HIGH, _MULT_LOW = (np.uint64(w) for w in divmod(_PCG64_MULT, 1 << 64))


def _add128(x, y):
    """``x + y`` mod 2**128 on (high, low) pairs."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < x[1]), low


def _step128(state, inc):
    """One LCG step ``state * M + inc`` mod 2**128 on (high, low) pairs."""
    high, low = state
    # the high word of the 64 x 64-bit product ``low * M_low``, from 32-bit halves
    a1, a0 = low >> _U32, low & _LOW32
    b1, b0 = _MULT_LOW >> _U32, _MULT_LOW & _LOW32
    cross_a, cross_b = a0 * b1, a1 * b0
    middle = (a0 * b0 >> _U32) + (cross_a & _LOW32) + (cross_b & _LOW32)
    carry = a1 * b1 + (cross_a >> _U32) + (cross_b >> _U32) + (middle >> _U32)
    product = (carry + high * _MULT_LOW + low * _MULT_HIGH, low * _MULT_LOW)
    return _add128(product, inc)


def _xsl_rr(state) -> np.ndarray:
    """PCG64's XSL-RR output of each state, as uint64."""
    high, low = state
    word, rot = high ^ low, high >> np.uint64(58)
    # a left shift of ``64 - rot`` would be 64 at rot 0, so it is masked to 0
    return word >> rot | word << ((_U64 - rot) & np.uint64(63))


def _next_word(state, inc):
    """Step each stream: the new states and their uint64 outputs."""
    state = _step128(state, inc)
    return state, _xsl_rr(state)


def _next_double(state, inc):
    """Step each stream and draw ``Generator.random()``: the new states and
    ``(output >> 11) * 2**-53`` as float64."""
    state, word = _next_word(state, inc)
    return state, (word >> np.uint64(11)) * 2.0**-53


def _pcg64_seeded(seed_words: np.ndarray):
    """PCG64's ``(state, inc)`` seeded by each row of (n, 4) uint64 seed
    words, as (high, low) uint64 column pairs: the first two words are the
    128-bit seed and the last two the stream, high word first.  The state is
    stepped twice from 0, adding the seed in between: ``(inc + seed) * M +
    inc``."""
    seed_high, seed_low, stream_high, stream_low = seed_words.T
    one = np.uint64(1)
    inc = (stream_high << one | stream_low >> np.uint64(63), stream_low << one | one)
    return _step128(_add128(inc, (seed_high, seed_low)), inc), inc


# -- numpy's Beta on the stream columns ---------------------------------------
# distributions.c: ``random_beta(a, b)`` with a shape above 1 is ``Ga / (Ga +
# Gb)`` of two ``random_standard_gamma`` draws.  Shape 1 is one
# ``random_standard_exponential`` draw, and a shape above 1 is Marsaglia and
# Tsang's method on ``random_standard_normal`` and ``next_double``.  Both
# samplers are ziggurats: a word picks a strip ``idx`` and a number ``r``, and
# while ``r`` is below the strip's limit the draw is ``r * width[idx]``, from
# that word alone.  Any other case is left to a `Generator`.

#: each ziggurat's word layout: (shift of ``r``, shift of ``idx``, bits of
#: ``r``); bit 8 of a normal word is its sign
_ZIGGURAT_WORDS = {"normal": (9, 0, 52), "exponential": (11, 3, 53)}
#: how far below its estimate a fast-path limit is probed
_LIMIT_MARGIN = 16


@functools.cache
def _ziggurat_tables() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each ziggurat's 256 strip widths (float64) and fast-path limits
    (uint64), read from numpy's own samplers on the first call.

    PCG64 at state ``(word - 1) * M**-1`` with ``inc = 1`` outputs ``word``
    next, so each sampler is fed chosen words: ``r = 1`` draws a width.  A
    limit is estimated from the widths as ``width[idx - 1] / width[idx] *
    2**bits`` less a margin, and kept only if ``r = limit - 1`` draws ``r *
    width[idx]`` from its word alone; otherwise it is 0.  So a table entry
    can only send a state to the `Generator`, never give it a wrong draw.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    inverse = pow(_PCG64_MULT, -1, 1 << 128)
    pcg = {"state": 0, "inc": 1}
    setting = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    def fed(sampler, word):
        """The sampler's draw when PCG64 outputs ``word`` next, and whether
        it used no other output."""
        pcg["state"] = (word - 1) * inverse % (1 << 128)
        bit_generator.state = setting
        value = sampler()
        return value, bit_generator.state["state"]["state"] == word

    tables = {}
    for name, sampler in (("normal", rng.standard_normal),
                          ("exponential", rng.standard_exponential)):
        r_shift, idx_shift, bits = _ZIGGURAT_WORDS[name]
        widths = [fed(sampler, 1 << r_shift | idx << idx_shift)[0] for idx in range(256)]
        limits = []
        for idx, width in enumerate(widths):
            # strip 0's estimate wraps round to strip 255; strip 1 has no
            # fast path, and its probe at the top of the range finds that
            limit = min(int(widths[idx - 1] / width * 2.0**bits), 1 << bits) - _LIMIT_MARGIN
            value, alone = fed(sampler, (limit - 1) << r_shift | idx << idx_shift)
            limits.append(limit if alone and value == (limit - 1) * width else 0)
        tables[name] = np.array(widths), np.array(limits, dtype=np.uint64)
        for table in tables[name]:  # shared by every caller
            table.flags.writeable = False
    return tables


def _ziggurat(name: str, word: np.ndarray, tables):
    """The fast-path draw of a ziggurat sampler on each word, and whether
    the word is on the fast path."""
    widths, limits = tables[name]
    r_shift, idx_shift, bits = _ZIGGURAT_WORDS[name]
    idx = (word >> np.uint64(idx_shift) & np.uint64(0xFF)).astype(np.intp)
    r = word >> np.uint64(r_shift) & np.uint64((1 << bits) - 1)
    value = r * widths[idx]
    if name == "normal":
        value = np.where(word & np.uint64(1 << 8), -value, value)
    return value, r < limits[idx]


def _column_gamma(shape: float, state, inc, tables):
    """``random_standard_gamma(shape)`` on each stream: the new states, the
    draws, and whether each draw stayed on the fast paths."""
    if shape == 1.0:
        state, word = _next_word(state, inc)
        return (state, *_ziggurat("exponential", word, tables))
    if shape < 1.0:  # not on the columns
        return state, np.zeros(len(inc[0])), np.zeros(len(inc[0]), dtype=bool)
    b = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9 * b)
    state, word = _next_word(state, inc)
    x, fast = _ziggurat("normal", word, tables)
    v = 1.0 + c * x
    fast &= v > 0.0
    v = v * v * v
    state, u = _next_double(state, inc)
    # about a tenth miss the squeeze and take the log test, on libm's log as
    # the C code does; a zero U is left to the generator
    tail = np.flatnonzero(fast & ~(u < 1.0 - 0.0331 * (x * x) * (x * x)))
    fast[tail] = [
        0.0 < u_ and math.log(u_) < 0.5 * x_ * x_ + b * (1.0 - v_ + math.log(v_))
        for x_, v_, u_ in zip(x[tail].tolist(), v[tail].tolist(), u[tail].tolist())
    ]
    return state, b * v, fast


def _column_betas(state, inc):
    """Each stream's ``(tau, beta, upsilon_p)`` drawn after its relation
    draw, as numpy's ``beta(*TAU_SHAPE)``, ``beta(*BETA_SHAPE)`` and
    ``random()`` draw them: an (n, 3) array, and whether each row stayed on
    the fast paths.  A row that did not must be drawn by a `Generator`."""
    tables = _ziggurat_tables()
    draws, fast = [], np.ones(len(inc[0]), dtype=bool)
    for a, b in (TAU_SHAPE, BETA_SHAPE):
        if a <= 1.0 and b <= 1.0:  # Johnk's algorithm, not on the columns
            fast[:] = False
        state, gamma_a, fast_a = _column_gamma(a, state, inc, tables)
        state, gamma_b, fast_b = _column_gamma(b, state, inc, tables)
        draws.append(gamma_a / (gamma_a + gamma_b))
        fast &= fast_a & fast_b
    draws.append(_next_double(state, inc)[1])
    return np.stack(draws, axis=1), fast


#: one sampled state: its relation code into `RELATION_ORDER` and its four
#: cells in `World` order
SAMPLE_DTYPE = np.dtype([("relation", np.int8), ("cells", np.float64, (4,))])

#: dependent states drawn per block of Python values; bounds the sampler's
#: memory, not its result
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
    marginals, or (tau, beta, upsilon_p).  Every draw runs on the streams'
    uint64 columns except a dependent state's whose Betas leave numpy's fast
    paths, which a `Generator` set to its stream draws instead.  The cells
    then come from the `core` table formulas, applied once per relation.
    The result depends only on ``seed`` and ``n_states``.
    """
    if isinstance(n_states, bool) or not isinstance(n_states, (int, np.integer)):
        raise TypeError(f"n_states must be an int, got {type(n_states).__name__}")
    if n_states < 1:
        raise ValueError(f"n_states must be positive, got {n_states}")
    seq = _seed_sequence(seed)
    seed_words = _spawned_seed_words(seq, n_states)
    if seq is seed:  # a caller's SeedSequence counts the children it gave out
        seq.spawn(n_states)

    # every state's relation draw, and an independent state's two marginals,
    # are drawn on the stream columns
    state, inc = _pcg64_seeded(seed_words)
    state, u = _next_double(state, inc)
    codes = _relation_codes(u)
    dependent = np.flatnonzero(codes != RELATION_ORDER.index(CausalStructure.INDEPENDENT))
    # per state: (pa, pc, 0) or (tau, beta, upsilon_p)
    draws = np.zeros((n_states, 3))
    marginals = state
    for k in range(2):
        marginals, draws[:, k] = _next_double(marginals, inc)

    # a dependent state's Betas are drawn on its stream's columns, in blocks;
    # a state whose draws leave numpy's fast paths takes a varying number of
    # outputs, so one reused generator is set to each such stream after its
    # relation draw in turn
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    random, beta = rng.random, rng.beta
    pcg = {"state": 0, "inc": 0}
    setting = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for first in range(0, len(dependent), _BLOCK):
        rows = dependent[first : first + _BLOCK]
        draws[rows], fast = _column_betas(
            (state[0][rows], state[1][rows]), (inc[0][rows], inc[1][rows])
        )
        rows = rows[~fast]
        block = []
        for high, low, inc_high, inc_low in zip(
            state[0][rows].tolist(), state[1][rows].tolist(),
            inc[0][rows].tolist(), inc[1][rows].tolist(),
        ):
            pcg["state"], pcg["inc"] = high << 64 | low, inc_high << 64 | inc_low
            bit_generator.state = setting
            block.append((beta(*TAU_SHAPE), beta(*BETA_SHAPE), random()))
        draws[rows] = np.reshape(block, (-1, 3))

    sample = np.zeros(n_states, dtype=SAMPLE_DTYPE)
    sample["relation"] = codes
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
        alpha=alpha,
        theta=theta,
    )
