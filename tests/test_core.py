from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrsa import (
    A,
    C,
    CausalStructure,
    Event,
    JointTable,
    ProbabilityError,
    State,
    World,
    ZeroProbabilityEventError,
    event_column,
    joint_from_marginals,
    joint_from_noisy_or,
    noisy_or_effect_probability,
    query,
)

fractions01 = st.fractions(min_value=0, max_value=1, max_denominator=40)
DEPENDENT = [r for r in CausalStructure if r.is_dependent]


class TestJointTable:
    def test_cells_indexed_by_world(self):
        t = JointTable((F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
        assert t.cell(World.BOTH) == F(1, 2)
        assert t.cell(World.NEITHER) == F(1, 8)
        assert t.exact

    def test_rejects_bad_sum(self):
        with pytest.raises(ProbabilityError):
            JointTable((F(1, 2), F(1, 2), F(1, 2), F(1, 2)))
        with pytest.raises(ProbabilityError):
            JointTable((0.5, 0.25, 0.125, 0.2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ProbabilityError):
            JointTable((F(3, 2), F(-1, 2), F(0), F(0)))

    def test_float_tolerance(self):
        JointTable((0.25, 0.25, 0.25, 0.25 + 1e-12))  # within tolerance


class TestQuery:
    def test_toy_s2_conditional_is_twelve_thirteenths(self):
        s2 = JointTable((F(60, 100), F(5, 100), F(5, 100), F(30, 100)))
        assert query(s2, C, given=A) == F(12, 13)

    def test_toy_s1_joint(self):
        s1 = JointTable((F(81, 100), F(9, 100), F(9, 100), F(1, 100)))
        assert query(s1, A & ~C) == F(9, 100)

    def test_conditioning_identity(self):
        t = joint_from_marginals(F(3, 10), F(7, 10))
        assert query(t, A, given=A) == 1

    def test_int_cells_condition_exactly(self):
        p = query(JointTable((1, 0, 0, 0)), A, given=C)
        assert p == 1 and type(p) is F
        p = query(JointTable((0, 1, 0, 0)), C, given=A)
        assert p == 0 and type(p) is F
        p = query(JointTable((1.0, 0.0, 0.0, 0.0)), A, given=C)
        assert p == 1 and type(p) is float

    def test_zero_probability_conditioning_is_an_error(self):
        t = joint_from_marginals(1, F(1, 2))
        with pytest.raises(ZeroProbabilityEventError):
            query(t, C, given=~A)

    @given(fractions01, fractions01)
    def test_chain_rule(self, pa, pc):
        t = joint_from_marginals(pa, pc)
        for event, given in ((A, C), (C, A), (A & C, A | C)):
            p_given = query(t, given)
            if p_given == 0:
                continue
            assert query(t, event & given) == query(t, event, given) * p_given


#: all 16 events over the four worlds, the empty one included
ALL_EVENTS = [Event(frozenset(ws)) for k in range(5) for ws in combinations(World, k)]

#: exact rows: Fractions with int 0 for empty cells, or an int one-hot row
exact_rows = st.one_of(
    st.lists(st.integers(0, 8), min_size=4, max_size=4).filter(sum).map(
        lambda ks: tuple(F(k, sum(ks)) if k else 0 for k in ks)
    ),
    st.integers(0, 3).map(lambda w: tuple(int(i == w) for i in range(4))),
)
#: float rows: normalised draws, a row whose 1 - P(A) differs from its
#: P(~A) cell sum, and a row with negative zeros
float_rows = st.one_of(
    st.lists(st.floats(0, 1), min_size=4, max_size=4).filter(lambda xs: sum(xs) > 0).map(
        lambda xs: tuple(x / sum(xs) for x in xs)
    ),
    st.just((0.05, 0.05, 0.3, 0.6)),
    st.just((-0.0, 0.5, 0.5, -0.0)),
)


class TestEventColumn:
    """`event_column` is `query` over the rows of an (n, 4) cell array."""

    @settings(max_examples=60)
    @given(st.lists(exact_rows, min_size=1, max_size=6))
    def test_exact_rows_match_query_in_value_and_type(self, rows):
        cells = np.array(rows, dtype=object)
        for event in ALL_EVENTS:
            expected = [query(JointTable(row), event) for row in rows]
            got = event_column(cells, event).tolist()
            assert got == expected
            assert [type(v) for v in got] == [type(v) for v in expected]

    @settings(max_examples=60)
    @given(st.lists(float_rows, min_size=1, max_size=6))
    def test_float_rows_match_query_bit_for_bit(self, rows):
        cells = np.array(rows, dtype=float)
        for event in ALL_EVENTS:
            expected = [float(query(JointTable(row), event)).hex() for row in rows]
            column = event_column(cells, event)
            assert column.dtype == np.float64
            assert [v.hex() for v in column.tolist()] == expected


class TestJointFromMarginals:
    def test_half_half_is_uniform(self):
        assert joint_from_marginals(F(1, 2), F(1, 2)).cells == (
            F(1, 4), F(1, 4), F(1, 4), F(1, 4),
        )

    def test_degenerate_corner(self):
        assert joint_from_marginals(1, 0).cells == (0, 1, 0, 0)

    def test_skiing_independent_table(self):
        t = joint_from_marginals(F(1, 5), F(91, 100))
        assert t.cells == (F(91, 500), F(9, 500), F(91, 125), F(9, 125))
        assert [float(c) for c in t.cells] == [0.182, 0.018, 0.728, 0.072]

    @given(fractions01, fractions01)
    def test_marginals_recovered(self, pa, pc):
        t = joint_from_marginals(pa, pc)
        assert sum(t.cells) == 1
        assert query(t, A) == pa
        assert query(t, C) == pc

    def test_out_of_range_rejected(self):
        with pytest.raises(ProbabilityError):
            joint_from_marginals(F(3, 2), F(1, 2))


def observed_parameters(relation, table):
    """Read (upsilon_p, upsilon_c, beta) back off a dependent table."""
    if relation is CausalStructure.AC_POS:
        return query(table, A), query(table, C, given=A), query(table, C, given=~A)
    if relation is CausalStructure.AC_NEG:
        return query(table, ~A), query(table, C, given=~A), query(table, C, given=A)
    if relation is CausalStructure.CA_POS:
        return query(table, C), query(table, A, given=C), query(table, A, given=~C)
    return query(table, ~C), query(table, A, given=~C), query(table, A, given=C)


class TestJointFromNoisyOr:
    def test_effect_probability(self):
        assert noisy_or_effect_probability(F(9, 10), F(1, 10)) == F(91, 100)

    def test_deterministic_limit_matches_skiing_dependent_table(self):
        t = joint_from_noisy_or(CausalStructure.AC_POS, F(1, 5), 1, 0)
        assert t.cells == (F(1, 5), 0, 0, F(4, 5))

    def test_hand_evaluated_example(self):
        t = joint_from_noisy_or(CausalStructure.AC_POS, 0.5, 0.9, 0.1)
        assert query(t, C, given=A) == pytest.approx(0.91)
        assert np.allclose(tuple(map(float, t.cells)), (0.455, 0.045, 0.05, 0.45))

    def test_independent_rejected(self):
        with pytest.raises(ProbabilityError):
            joint_from_noisy_or(CausalStructure.INDEPENDENT, F(1, 2), F(1, 2), F(1, 2))

    @pytest.mark.parametrize("relation", DEPENDENT)
    @given(
        upsilon_p=fractions01,
        tau=fractions01,
        beta=fractions01,
    )
    def test_round_trip(self, relation, upsilon_p, tau, beta):
        table = joint_from_noisy_or(relation, upsilon_p, tau, beta)
        assert sum(table.cells) == 1
        upsilon_c = noisy_or_effect_probability(tau, beta)
        try:
            got_p, got_c, got_b = observed_parameters(relation, table)
        except ZeroProbabilityEventError:
            return  # degenerate corner: a conditioning event has mass zero
        assert (got_p, got_c, got_b) == (upsilon_p, upsilon_c, beta)
        if beta < 1:
            assert (got_c - got_b) / (1 - got_b) == tau

    @pytest.mark.parametrize("relation", DEPENDENT)
    @given(
        upsilon_p=fractions01,
        tau=st.fractions(min_value="1/40", max_value=1, max_denominator=40),
        beta=st.fractions(min_value=0, max_value="39/40", max_denominator=40),
    )
    def test_cause_raises_effect_probability(self, relation, upsilon_p, tau, beta):
        table = joint_from_noisy_or(relation, upsilon_p, tau, beta)
        effect = C if relation.effect.value == "C" else A
        cause_true = (A if relation.cause.value == "A" else C)
        condition = cause_true if relation.cause_is_positive else ~cause_true
        try:
            boosted = query(table, effect, given=condition)
            base = query(table, effect, given=~condition)
        except ZeroProbabilityEventError:
            return
        assert boosted > base


class TestState:
    def test_defaults(self):
        s = State(joint_from_marginals(F(1, 2), F(1, 2)))
        assert s.relation is CausalStructure.INDEPENDENT
        assert s.label is None
