import hashlib
from collections import Counter
from fractions import Fraction as F

import re

import numpy as np
import pytest

import condrsa as cr
import condrsa.default_context as dc
from condrsa import CausalStructure, JointTable, State, query
from condrsa.core import RELATION_ORDER
from condrsa.default_context import (
    _PCG64_MULT,
    _ZIGGURAT_WORDS,
    BETA_SHAPE,
    RELATION_PRIOR,
    TAU_SHAPE,
    _add128,
    _column_betas,
    _next_double,
    _pcg64_seeded,
    _spawned_seed_words,
    _step128,
    _xsl_rr,
    _ziggurat_tables,
)
from condrsa.runner import RunConfig, run
from condrsa.tolerances import TOLERANCES


class TestRelationPrior:
    def test_nominal_probabilities(self):
        assert RELATION_PRIOR[CausalStructure.INDEPENDENT] == F(1, 2)
        for relation in CausalStructure:
            if relation.is_dependent:
                assert RELATION_PRIOR[relation] == F(1, 8)
        assert sum(RELATION_PRIOR.values()) == 1

    def test_empirical_frequencies_converge(self):
        rng = np.random.default_rng(TOLERANCES.default_seed)
        draws = Counter(
            cr.sample_relation(rng) for _ in range(TOLERANCES.relation_prior_draws)
        )
        for relation, target in RELATION_PRIOR.items():
            empirical = draws[relation] / TOLERANCES.relation_prior_draws
            assert abs(empirical - float(target)) < TOLERANCES.relation_prior_tol

    def test_seed_replay(self):
        first = [cr.sample_relation(np.random.default_rng(42)) for _ in range(1)]
        run_a = np.random.default_rng(123)
        run_b = np.random.default_rng(123)
        seq_a = [cr.sample_relation(run_a) for _ in range(200)]
        seq_b = [cr.sample_relation(run_b) for _ in range(200)]
        assert seq_a == seq_b
        assert first == [cr.sample_relation(np.random.default_rng(42))]


class TestSampleState:
    def test_independent_branch_is_product_table(self):
        ctx = cr.build_default_context(0, 200)
        for state in ctx.states:
            if state.relation is CausalStructure.INDEPENDENT:
                pa = query(state.table, cr.A)
                pc = query(state.table, cr.C)
                assert query(state.table, cr.A & cr.C) == pytest.approx(pa * pc)

    def test_dependent_branch_matches_direction(self, default_ctx):
        checked = 0
        for state in default_ctx.states:
            r = state.relation
            if not r.is_dependent:
                continue
            cause = cr.A if r.cause is cr.Var.A else cr.C
            effect = cr.C if r.cause is cr.Var.A else cr.A
            condition = cause if r.cause_is_positive else ~cause
            try:
                boosted = query(state.table, effect, given=condition)
                base = query(state.table, effect, given=~condition)
            except cr.ZeroProbabilityEventError:
                continue
            assert boosted > base
            checked += 1
        assert checked > 3000

    def test_causal_power_mean_exceeds_threshold(self, default_ctx):
        values = [
            query(s.table, cr.C, given=cr.A)
            for s in default_ctx.states
            if s.relation is CausalStructure.AC_POS
        ]
        assert len(values) > 800
        assert np.mean(values) > 0.9


def state_loop_sample(seed, n_states):
    """The per-child `State` loop that `sample_default_states` replaces: one
    `default_rng` per child of ``SeedSequence(seed).spawn(n_states)``, or
    per child in ``seed`` when it is a list of them."""
    states = []
    children = seed if isinstance(seed, list) else np.random.SeedSequence(seed).spawn(n_states)
    for child in children:
        rng = np.random.default_rng(child)
        relation = cr.sample_relation(rng)
        if relation is CausalStructure.INDEPENDENT:
            pa = rng.random()
            pc = rng.random()
            table = cr.joint_from_marginals(pa, pc)
        else:
            tau = rng.beta(*TAU_SHAPE)
            beta = rng.beta(*BETA_SHAPE)
            upsilon_p = rng.random()
            table = cr.joint_from_noisy_or(relation, upsilon_p, tau, beta)
        states.append(State(table, relation))
    return states


class TestSampleArrays:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_state_loop_bit_for_bit(self, seed):
        sample = cr.sample_default_states(seed, 2000)
        states = state_loop_sample(seed, 2000)
        assert len(sample) == 2000
        assert sample["relation"].tolist() == [
            RELATION_ORDER.index(s.relation) for s in states
        ]
        assert set(sample["relation"].tolist()) == set(range(len(RELATION_ORDER)))
        expected = np.array([s.table.cells for s in states], dtype=np.float64)
        assert sample["cells"].tobytes() == expected.tobytes()

    def test_sampled_runs_build_no_state(self, monkeypatch, tmp_path):
        def forbidden(*args, **kwargs):
            raise AssertionError("a State or JointTable was built")

        monkeypatch.setattr(JointTable, "__post_init__", forbidden)
        monkeypatch.setattr(State, "__init__", forbidden)
        run(RunConfig("run-default-context", seed=1, n_states=500,
                      output_dir=tmp_path / "default"))
        run(RunConfig("sweep", seed=1, n_states=2000, output_dir=tmp_path / "sweep"))
        with pytest.raises(AssertionError, match="was built"):
            cr.builtin("toy")


def spawned_child():
    """A spawned child that has itself already spawned children."""
    seq = np.random.SeedSequence(7).spawn(3)[2]
    seq.spawn(5)
    return seq


#: factories of equal SeedSequences: int entropy below and above 2**32 and
#: 2**64, a list entropy with a larger pool, and a child with a spawn key
SEED_SEQUENCES = [
    *(pytest.param(lambda seed=seed: np.random.SeedSequence(seed), id=f"seed={seed}")
      for seed in (0, 1, 12345, 2**32 + 7, 2**64 + 3)),
    pytest.param(lambda: np.random.SeedSequence([1, 2**40, 0], pool_size=8), id="pool-8"),
    pytest.param(spawned_child, id="spawned-child"),
]


class TestSpawnedStreams:
    """The arrays-derived streams are exactly ``SeedSequence(seed).spawn(n)``'s
    children: if numpy ever changes its seed mixing or PCG64's seeding, this
    fails rather than the sample silently moving."""

    N = 3000

    @pytest.mark.parametrize("make", SEED_SEQUENCES)
    def test_pcg64_states_match_spawned_children(self, make):
        seq, twin = make(), make()
        children = twin.spawn(self.N)
        state, inc = _pcg64_seeded(_spawned_seed_words(seq, self.N))
        picks = np.random.default_rng(len(children)).choice(self.N, 60, replace=False)
        for i in [0, self.N - 1, *picks.tolist()]:
            assert np.random.PCG64(children[i]).state["state"] == {
                "state": as_int(state, i), "inc": as_int(inc, i),
            }
        assert seq.n_children_spawned == twin.n_children_spawned - self.N

    @pytest.mark.parametrize("make", SEED_SEQUENCES)
    def test_column_draws_match_each_streams_generator(self, make):
        seq, twin = make(), make()
        children = twin.spawn(self.N)
        state, inc = _pcg64_seeded(_spawned_seed_words(seq, self.N))
        draws = []
        for _ in range(3):
            state, u = _next_double(state, inc)
            draws.append(u)
        draws = np.stack(draws, axis=1)
        picks = np.random.default_rng(len(children) + 1).choice(self.N, 60, replace=False)
        for i in [0, self.N - 1, *picks.tolist()]:
            expected = np.random.Generator(np.random.PCG64(children[i])).random(3)
            assert draws[i].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make", SEED_SEQUENCES[-2:])
    def test_a_seed_sequence_is_advanced_as_spawn_advances_it(self, make):
        seq, twin = make(), make()
        before = seq.n_children_spawned
        for _ in range(2):
            sample = cr.sample_default_states(seq, 200)
            expected = state_loop_sample(twin.spawn(200), 200)
            assert sample["cells"].tobytes() == np.array(
                [s.table.cells for s in expected], dtype=np.float64
            ).tobytes()
        assert seq.n_children_spawned == twin.n_children_spawned == before + 400

    def test_numpys_child_count_bounds_the_index(self):
        seq = np.random.SeedSequence(1, n_children_spawned=2**32 - 10)
        with pytest.raises(ValueError, match="fewer than 2\\*\\*32"):
            cr.sample_default_states(seq, 10)
        assert seq.n_children_spawned == 2**32 - 10


class TestColumnBetas:
    """A dependent state's Betas drawn on the stream columns against numpy's
    own samplers: a wrong table entry, formula or draw order fails here."""

    N = 3000

    @pytest.mark.parametrize("make", SEED_SEQUENCES)
    def test_column_betas_match_each_streams_generator(self, make):
        """A row kept on the columns has numpy's draws, from seven outputs
        after the relation draw; every row left to the generator is one on
        which numpy's draws take more outputs."""
        seq, twin = make(), make()
        children = twin.spawn(self.N)
        state, inc = _pcg64_seeded(_spawned_seed_words(seq, self.N))
        state, _ = _next_double(state, inc)  # the relation draw
        draws, fast = _column_betas(state, inc)
        assert 0.85 < fast.mean() < 1
        picks = np.random.default_rng(self.N).choice(np.flatnonzero(fast), 300, replace=False)
        for i in [*picks.tolist(), *np.flatnonzero(~fast).tolist()]:
            bit_generator = np.random.PCG64(children[i])
            rng = np.random.Generator(bit_generator)
            rng.random()
            expected = [rng.beta(*TAU_SHAPE), rng.beta(*BETA_SHAPE), rng.random()]
            eight_outputs = np.random.PCG64(children[i]).advance(8).state
            assert (bit_generator.state == eight_outputs) == fast[i], i
            if fast[i]:
                assert draws[i].tobytes() == np.array(expected).tobytes()

    def test_the_fallback_alone_gives_the_same_sample(self, monkeypatch):
        """With every fast-path limit 0, every dependent state is drawn by
        the generator, and the sample does not change."""
        expected = cr.sample_default_states(1, 3000)
        zeroed = {name: (widths, np.zeros_like(limits))
                  for name, (widths, limits) in _ziggurat_tables().items()}
        monkeypatch.setattr(dc, "_ziggurat_tables", lambda: zeroed)
        settings = record_settings(monkeypatch)
        sample = cr.sample_default_states(1, 3000)
        monkeypatch.undo()
        assert sample.tobytes() == expected.tobytes()
        assert len(settings) == np.count_nonzero(sample["relation"] != INDEPENDENT)


class TestZigguratTables:
    """The tables read from numpy's normal and exponential samplers."""

    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    inverse = pow(_PCG64_MULT, -1, 1 << 128)

    def fed(self, name, word):
        """numpy's standard ``name`` draw when PCG64's next output is
        ``word``, and whether it used no other output."""
        self.bit_generator.state = {
            "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": (word - 1) * self.inverse % (1 << 128), "inc": 1},
        }
        value = getattr(self.rng, f"standard_{name}")()
        return value, self.bit_generator.state["state"]["state"] == word

    @pytest.mark.parametrize("name", ["normal", "exponential"])
    def test_widths_and_limits_match_numpys_sampler(self, name):
        """Each width is numpy's draw at ``r = 1``, and each limit is at
        most the first ``r`` off the fast path, found by binary search, and
        within 32 of it, so the generator's share cannot grow silently."""
        widths, limits = _ziggurat_tables()[name]
        r_shift, idx_shift, bits = _ZIGGURAT_WORDS[name]
        for idx in range(256):
            assert self.fed(name, 1 << r_shift | idx << idx_shift)[0] == widths[idx]
            low, high = 0, 1 << bits
            while low < high:
                r = (low + high) // 2
                value, alone = self.fed(name, r << r_shift | idx << idx_shift)
                low, high = (r + 1, high) if alone and value == r * widths[idx] else (low, r)
            assert low - 32 <= int(limits[idx]) <= low, idx
        assert limits[1] == 0 and np.count_nonzero(limits) == 255


MASK64, MASK128 = (1 << 64) - 1, (1 << 128) - 1


def as_int(pair, i):
    """Entry ``i`` of a (high, low) uint64 column pair as a Python int."""
    return int(pair[0][i]) << 64 | int(pair[1][i])


def as_pair(values):
    """Python ints below 2**128 as a (high, low) uint64 column pair."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & MASK64 for v in values], dtype=np.uint64))


def xsl_rr(state):
    rot = state >> 122
    word = (state >> 64 ^ state) & MASK64
    return (word >> rot | word << (64 - rot)) & MASK64


class TestColumnArithmetic:
    """The 128-bit column arithmetic against the same formulas on Python
    ints, at the edges where a word boundary or a shift could go wrong."""

    EDGES = [
        0, 1, MASK64, 1 << 64, MASK128, 1 << 127, (1 << 127) | MASK64,
        (1 << 58) - 1, ((1 << 58) - 1) << 64 | MASK64, 0x3F << 122, 1 << 122,
    ]

    def operands(self):
        """State values, the edges first, and odd increments: each edge
        meets the edges in reverse order."""
        rng = np.random.default_rng(5)
        random = [int.from_bytes(rng.bytes(16), "little") for _ in range(200)]
        return self.EDGES + random, [v | 1 for v in self.EDGES[::-1] + random[::-1]]

    def test_edges_reach_every_case(self):
        """The edge operands carry out of the low word, set the high bit, and
        give XSL-RR a rotation of 0 and of 63."""
        values, incs = self.operands()
        pairs = list(zip(values, incs))[: len(self.EDGES)]
        assert any((v & MASK64) + (c & MASK64) > MASK64 for v, c in pairs)
        assert any(v >> 127 for v in self.EDGES)
        assert {v >> 122 for v in self.EDGES} >= {0, 63}

    def test_step_and_add_match_python_ints(self):
        values, incs = self.operands()
        state, inc = as_pair(values), as_pair(incs)
        stepped, added = _step128(state, inc), _add128(state, inc)
        for i, (v, c) in enumerate(zip(values, incs)):
            assert as_int(stepped, i) == (v * _PCG64_MULT + c) & MASK128
            assert as_int(added, i) == (v + c) & MASK128

    def test_xsl_rr_matches_python_ints(self):
        values, _ = self.operands()
        out = _xsl_rr(as_pair(values))
        assert out.tolist() == [xsl_rr(v) for v in values]
        assert _xsl_rr(as_pair([5 << 64])).tolist() == [5]  # rotation 0: no shift by 64


#: sha256 of ``sample_default_states(1, 10_000).tobytes()``, pinned when the
#: sampler still drew every state through a `Generator`
SEED_1_SAMPLE_SHA256 = "4ee8142a0881dc123fb8e3b9e2890c57910d87b78d07f15163599ec8f8bb97eb"
#: the same at 100,000 states, pinned when every dependent state's Betas
#: were still drawn through a `Generator`
SEED_1_100K_SAMPLE_SHA256 = "220795ffc4d92f50d05c679df31e73833c316fb516ac9cd26cbb832c2e7ca7ea"
INDEPENDENT = RELATION_ORDER.index(CausalStructure.INDEPENDENT)


def record_settings(monkeypatch) -> list[int]:
    """Patch `np.random.PCG64` to record the 128-bit state of each setting
    of its ``state``; returns the list it fills."""
    settings, pcg64 = [], np.random.PCG64

    class PCG64(pcg64):  # numpy checks a state's name against the class's
        @property
        def state(self):
            return pcg64.state.__get__(self)

        @state.setter
        def state(self, value):
            settings.append(value["state"]["state"])
            pcg64.state.__set__(self, value)

    monkeypatch.setattr(np.random, "PCG64", PCG64)
    return settings


class TestDeterminism:
    def test_seed_1_sample_is_pinned(self):
        sample = cr.sample_default_states(1, 10_000)
        assert hashlib.sha256(sample.tobytes()).hexdigest() == SEED_1_SAMPLE_SHA256

    def test_seed_1_100k_sample_is_pinned(self):
        sample = cr.sample_default_states(1, 100_000)
        assert hashlib.sha256(sample.tobytes()).hexdigest() == SEED_1_100K_SAMPLE_SHA256

    def test_generator_is_set_once_per_fallback_state(self, monkeypatch):
        """Only the dependent states whose Betas leave numpy's fast paths
        visit the reused generator, each once and in order, at its stream's
        state right after the relation draw."""
        _ziggurat_tables()  # read before PCG64 is recorded
        settings = record_settings(monkeypatch)
        sample = cr.sample_default_states(4, 500)
        monkeypatch.undo()
        state, inc = _pcg64_seeded(_spawned_seed_words(np.random.SeedSequence(4), 500))
        state, _ = _next_double(state, inc)
        dependent = np.flatnonzero(sample["relation"] != INDEPENDENT)
        _, fast = _column_betas(
            (state[0][dependent], state[1][dependent]), (inc[0][dependent], inc[1][dependent])
        )
        children = np.random.SeedSequence(4).spawn(500)
        expected = []
        for i in dependent[~fast].tolist():
            bit_generator = np.random.PCG64(children[i])
            np.random.Generator(bit_generator).random()
            expected.append(bit_generator.state["state"]["state"])
        assert 0 < len(expected) < len(dependent)
        assert settings == expected

    def test_same_seed_same_states(self):
        a = cr.sample_default_states(11, 300)
        b = cr.sample_default_states(11, 300)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            cr.sample_default_states(1, 50), cr.sample_default_states(2, 50)
        )


class TestBuildDefaultContext:
    def test_defaults(self, default_ctx):
        assert default_ctx.n_states == TOLERANCES.default_n_states
        assert default_ctx.alpha == TOLERANCES.default_alpha
        assert default_ctx.theta == TOLERANCES.default_theta
        assert len(default_ctx.utterances) == 20
        assert default_ctx.weights[0] == 1.0 / default_ctx.n_states

    def test_single_state_context_runs(self):
        ctx = cr.build_default_context(3, 1)
        assert ctx.n_states == 1
        cr.speaker_matrix(ctx)

    @pytest.mark.parametrize("param", ["alpha", "theta"])
    def test_bool_alpha_or_theta_rejected(self, param):
        message = f"{param} must be a number, not a bool"
        with pytest.raises(cr.ContextError, match=message):
            cr.build_default_context(1, 200, **{param: True})
        with pytest.raises(cr.ContextError, match=message):
            run(RunConfig("run-default-context", seed=1, n_states=200, **{param: True}))

    def test_custom_utterances(self):
        utts = cr.default_utterances(include_reverse_conditionals=False)
        ctx = cr.build_default_context(3, 50, utterances=utts)
        assert len(ctx.utterances) == 16

    def test_n_states_validated(self):
        with pytest.raises(ValueError):
            cr.sample_default_states(1, 0)
        with pytest.raises(ValueError):
            cr.build_default_context(1, 0)

    @pytest.mark.parametrize("n_states", [True, 2.5, 200.0, "200"])
    def test_non_integer_n_states_rejected(self, n_states):
        with pytest.raises(TypeError, match="n_states must be an int, got"):
            cr.sample_default_states(1, n_states)
        with pytest.raises(cr.ModelError, match="n_states must be an integer"):
            run(RunConfig("run-default-context", seed=1, n_states=n_states))
        with pytest.raises(cr.ModelError, match="n_states must be an integer"):
            run(RunConfig("sweep", seed=1, n_states=n_states))

    @pytest.mark.parametrize("seed, message", [
        (True, "seed must be an integer, got True"),
        (2.5, "seed must be an integer, got 2.5"),
        ("1", "seed must be an integer, got '1'"),
        (-1, "seed must be non-negative, got -1"),
    ])
    def test_bad_seed_rejected_by_run_config(self, seed, message):
        for command in ("run-default-context", "sweep"):
            with pytest.raises(cr.ModelError, match=re.escape(message)):
                RunConfig(command, seed=seed, n_states=5)

    def test_seed_type_checked(self):
        for seed in ("not-a-seed", True, False, np.True_, 1.0):
            with pytest.raises(TypeError, match="seed must be an int or SeedSequence"):
                cr.sample_default_states(seed)

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            cr.sample_default_states(-1, 5)


class TestSampledTableProfile:
    def test_world_probability_means_match_prior_shape(self, default_ctx):
        """Dependent samples pile mass on the cause-consistent worlds;
        independent samples spread evenly."""
        by_relation = {}
        for s in default_ctx.states:
            by_relation.setdefault(s.relation, []).append(tuple(map(float, s.table.cells)))

        ac_pos = np.array(by_relation[CausalStructure.AC_POS]).mean(axis=0)
        assert ac_pos[0] > 0.4 and ac_pos[3] > 0.4   # both / neither dominate
        assert ac_pos[1] < 0.1 and ac_pos[2] < 0.1

        ac_neg = np.array(by_relation[CausalStructure.AC_NEG]).mean(axis=0)
        assert ac_neg[1] > 0.4 and ac_neg[2] > 0.4   # exactly-one worlds dominate
        assert ac_neg[0] < 0.1 and ac_neg[3] < 0.1

        independent = np.array(by_relation[CausalStructure.INDEPENDENT]).mean(axis=0)
        assert np.allclose(independent, 0.25, atol=0.02)

    def test_sampled_tables_sum_tightly(self, default_ctx):
        sums = np.array([sum(s.table.cells) for s in default_ctx.states])
        assert np.abs(sums - 1).max() < 1e-12
