"""Acceptance suite.

One test per acceptance criterion; each prints a single
``[acceptance] criterion N: PASS|FAIL`` line (run with ``pytest -v -s``)
and then asserts every clause.  Exact criteria evaluate in rational
arithmetic; statistical criteria run on the canonical seeded sample
(seed 1, 10,000 states, theta 0.9, alpha 3) shared across tests, with all
bounds taken from the tolerance manifest.
"""

import random
from fractions import Fraction as F

import numpy as np

import condrsa as cr
from condrsa import (
    Argmax,
    CausalStructure,
    CertaintyCell,
    ContextError,
    JointTable,
    ScenarioContext,
    Softmax,
    State,
    UtteranceType,
    ZeroSupportError,
    default_utterances,
    query,
)
from condrsa.analysis import A_IMPLIES_C
from condrsa.tolerances import TOLERANCES as TOL
from condrsa.utterances import Conditional, Conjunction, Likely, Literal


def report(criterion: int, clauses: list[tuple[str, bool]]) -> None:
    passed = all(ok for _, ok in clauses)
    marker = "PASS" if passed else "FAIL"
    failing = ", ".join(name for name, ok in clauses if not ok)
    suffix = f" (failing: {failing})" if failing else ""
    print(f"[acceptance] criterion {criterion:>2}: {marker}{suffix}", flush=True)
    assert passed, f"criterion {criterion} clauses failed: {failing}"


# --------------------------------------------------------------------------
# exact rational golden criteria
# --------------------------------------------------------------------------


def test_criterion_1_toy_fractions(toy_ctx):
    clauses = []

    literal = {u: cr.literal_listener(toy_ctx, u).weights for u in ("likely C", "A -> C", "C")}
    clauses.append(("literal listener", literal == {
        "likely C": (F(1, 3), F(1, 3), F(1, 3)),
        "A -> C": (F(1, 2), F(1, 2), 0),
        "C": (1, 0, 0),
    }))

    def spk(label):
        return {str(u): p for u, p in cr.speaker(toy_ctx, label).items()}

    clauses.append(("speaker", (spk("s1"), spk("s2"), spk("s3")) == (
        {"likely C": F(2, 11), "A -> C": F(3, 11), "C": F(6, 11), "A & C": 0},
        {"likely C": F(2, 5), "A -> C": F(3, 5), "C": 0, "A & C": 0},
        {"likely C": 1, "A -> C": 0, "C": 0, "A & C": 0},
    )))

    pragmatic = {u: cr.pragmatic_listener(toy_ctx, u).weights for u in ("likely C", "A -> C", "C")}
    clauses.append(("pragmatic listener", pragmatic == {
        "likely C": (F(10, 87), F(22, 87), F(55, 87)),
        "A -> C": (F(5, 16), F(11, 16), 0),
        "C": (1, 0, 0),
    }))
    report(1, clauses)


def test_criterion_2_skiing(skiing):
    ctx = skiing.to_context()
    u = skiing.parse("E -> S")
    post = cr.pragmatic_listener(ctx, u)
    clauses = [
        ("P(dependent | conditional) = 5/6", post.weight("dep") == F(5, 6)),
        ("post-observation antecedent = 13/15",
         cr.observation_update(post, skiing.observation) == F(13, 15)),
    ]
    report(2, clauses)


def test_criterion_3_sundowners(sundowners):
    ctx = sundowners.to_context()
    u = sundowners.parse("R -> ~S")
    speaker_low = cr.speaker(ctx, "ind_low", Softmax(3))[u]
    surprise = cr.utterance_surprise(ctx, u)
    posterior = cr.pragmatic_listener(ctx, u)
    clauses = [
        ("speaker probability 1/17", speaker_low == F(1, 17)),
        ("utterance surprise 27/340", surprise == F(27, 340)),
        ("antecedent expectation 1/2", cr.antecedent_belief(posterior) == F(1, 2)),
    ]
    report(3, clauses)


def test_criterion_4_garden_party(garden_party):
    ctx = garden_party.to_context()
    u = garden_party.parse("D -> G")
    post = cr.pragmatic_listener(ctx, u)
    updated = cr.observation_update(post, garden_party.observation)
    clauses = [
        ("P(dependent | conditional) = 5/6", post.weight("dep") == F(5, 6)),
        ("post-observation antecedent = 1/12", updated == F(1, 12)),
        ("belief in antecedent decreases", updated < F(1, 2)),
    ]
    report(4, clauses)


# --------------------------------------------------------------------------
# statistical criteria on the canonical sample
# --------------------------------------------------------------------------


def test_criterion_5_best_utterance_frequencies(default_ctx):
    overall = cr.best_utterance_frequencies(default_ctx, group_by="none")
    split = cr.best_utterance_frequencies(default_ctx, group_by="independence")

    certain = overall[(CertaintyCell.CERTAIN_BOTH, "all")].frequencies
    mixed = overall[(CertaintyCell.MIXED, "all")].frequencies
    unc_ind = split[(CertaintyCell.UNCERTAIN_BOTH, "independent")].frequencies
    unc_dep = split[(CertaintyCell.UNCERTAIN_BOTH, "dependent")].frequencies

    clauses = [
        ("certain-both: conjunction or literal = 1.0",
         certain[UtteranceType.CONJUNCTION] + certain[UtteranceType.LITERAL] == 1.0),
        ("mixed: literal >= 0.99", mixed[UtteranceType.LITERAL] >= TOL.mixed_literal_min),
        ("uncertain-both, independent: likely = 1.0",
         unc_ind[UtteranceType.LIKELY] == 1.0),
        ("uncertain-both, dependent: conditional >= 0.95",
         unc_dep[UtteranceType.CONDITIONAL] >= TOL.uncertain_dep_conditional_min),
    ]
    report(5, clauses)


def test_criterion_6_relation_posterior(default_ctx):
    beliefs = cr.relation_beliefs(default_ctx)
    positive = (CausalStructure.AC_POS, CausalStructure.CA_POS)
    negative = (CausalStructure.AC_NEG, CausalStructure.CA_NEG)
    literal_pos = sum(beliefs["literal"][r] for r in positive)
    pragmatic_pos = sum(beliefs["pragmatic"][r] for r in positive)
    pragmatic_neg = sum(beliefs["pragmatic"][r] for r in negative)
    low = TOL.literal_positive_mass - TOL.literal_positive_mass_tol
    high = TOL.literal_positive_mass + TOL.literal_positive_mass_tol
    clauses = [
        (f"literal positive mass {literal_pos:.3f} in [{low}, {high}]",
         low <= literal_pos <= high),
        (f"pragmatic positive mass {pragmatic_pos:.3f} >= 0.90",
         pragmatic_pos >= TOL.pragmatic_positive_mass_min),
        (f"pragmatic negative mass {pragmatic_neg:.4f} <= 0.02",
         pragmatic_neg <= TOL.pragmatic_negative_mass_max),
    ]
    report(6, clauses)


def test_criterion_7_cp_metrics(default_ctx):
    cp = cr.cp_comparison(default_ctx)
    clauses = []
    for metric in ("not_c_given_not_a", "a_given_c"):
        prior = float(getattr(cp["prior"], metric))
        literal = float(getattr(cp["literal"], metric))
        pragmatic = float(getattr(cp["pragmatic"], metric))
        clauses.append((
            f"{metric}: literal beats prior by > {TOL.cp_gap_min}",
            literal - prior > TOL.cp_gap_min,
        ))
        clauses.append((
            f"{metric}: pragmatic beats literal by > {TOL.cp_gap_min}",
            pragmatic - literal > TOL.cp_gap_min,
        ))
    report(7, clauses)


def test_criterion_8_delta_p_cohorts(default_ctx):
    cohorts = cr.delta_p_cohorts(default_ctx)
    m_prior = cohorts.prior.median()
    m_assertable = cohorts.assertable.median()
    m_best = cohorts.best_choice.median()
    low_fraction = float((cohorts.best_choice.values < TOL.delta_p_high).mean())

    values, defined = cr.analysis._delta_p_array(default_ctx)
    j = default_ctx.index_of_utterance(A_IMPLIES_C)
    best_mask = cr.speaker_matrix(default_ctx, Argmax())[:, j] > 0
    large_not_best = defined & ~best_mask & (values >= TOL.delta_p_large)

    relations = cr.analysis.relation_array(default_ctx)
    ca = np.isin(relations, [
        cr.analysis.RELATION_ORDER.index(CausalStructure.CA_POS),
        cr.analysis.RELATION_ORDER.index(CausalStructure.CA_NEG),
    ])
    argmax_types = cr.analysis._type_mass_matrix(default_ctx, Argmax())
    literal_argmax = argmax_types[:, list(UtteranceType).index(UtteranceType.LITERAL)] == 1.0
    extreme = defined & ca & literal_argmax & (values < TOL.delta_p_extreme_negative)

    clauses = [
        (f"median ordering best {m_best:.4f} > assertable {m_assertable:.4f} "
         f"> prior {m_prior:.4f}", m_best > m_assertable > m_prior),
        (f"best-choice fraction below {TOL.delta_p_high} is {low_fraction:.4%} < 1%",
         low_fraction < TOL.best_choice_low_delta_p_max_fraction),
        ("high-contingency states outside the best-choice cohort exist",
         bool(large_not_best.any())),
        ("a literal-argmax C-to-A state below -10 exists", bool(extreme.any())),
    ]
    report(8, clauses)


def test_criterion_9_missing_link(default_ctx):
    softmax_table = cr.expected_choice_probabilities(default_ctx)
    argmax_table = cr.expected_choice_probabilities(default_ctx, Argmax())
    indep = CausalStructure.INDEPENDENT.value
    soft = softmax_table[indep][UtteranceType.CONDITIONAL]
    hard = argmax_table[indep][UtteranceType.CONDITIONAL]
    clauses = [
        (f"independent conditional mass {soft:.4f} < 0.05 at alpha=3",
         soft < TOL.missing_link_conditional_mass_max),
        ("exactly 0 under the hyperrational speaker", hard == 0.0),
    ]
    report(9, clauses)


def test_criterion_10_robustness_grid(default_states):
    n = len(default_states)
    prior = np.full(n, 1.0 / n)
    clauses = []
    for theta in TOL.grid_thetas:
        for alpha in TOL.grid_alphas:
            ctx = ScenarioContext(
                cells=default_states["cells"],
                prior=prior,
                relations=default_states["relation"],
                utterances=default_utterances(),
                alpha=float(alpha),
                theta=float(theta),
            )
            checks = cr.default_context_checks(ctx, "qualitative")
            failing = [c.name for c in checks if not c.passed]
            clauses.append((
                f"alpha={alpha:g} theta={theta:g}"
                + (f" [{', '.join(failing)}]" if failing else ""),
                not failing,
            ))
    report(10, clauses)


# --------------------------------------------------------------------------
# property suite
# --------------------------------------------------------------------------


def _random_exact_context(rnd: random.Random, max_states: int = 5) -> ScenarioContext:
    while True:
        n = rnd.randint(1, max_states)
        states = []
        for i in range(n):
            cells = [rnd.randint(0, 8) for _ in range(4)]
            if sum(cells) == 0:
                cells[rnd.randrange(4)] = 1
            total = sum(cells)
            states.append(State(
                JointTable(tuple(F(c, total) for c in cells)),
                rnd.choice(list(CausalStructure)),
                f"s{i}",
            ))
        raw = [rnd.randint(1, 5) for _ in range(n)]
        total = sum(raw)
        try:
            return ScenarioContext.from_states(
                states=tuple(states),
                weights=tuple(F(w, total) for w in raw),
                utterances=default_utterances(),
                alpha=rnd.randint(0, 3),
                theta=F(rnd.randint(11, 20), 20),
            )
        except ContextError:
            continue


def _oracle_assertable(u, state, theta):
    table = state.table
    if isinstance(u, Literal):
        return query(table, u.lit.event()) >= theta
    if isinstance(u, Likely):
        return query(table, u.lit.event()) > F(1, 2)
    if isinstance(u, Conjunction):
        return query(table, u.first.event() & u.second.event()) >= theta
    assert isinstance(u, Conditional)
    p_ant = query(table, u.antecedent.event())
    if p_ant == 0:
        return False
    return query(table, u.antecedent.event() & u.consequent.event()) / p_ant >= theta


def _oracle_pragmatic(ctx, utt_index):
    states, weights, utts = ctx.states, ctx.weights, ctx.utterances
    alpha = int(ctx.alpha)

    def literal(i, j):
        if not _oracle_assertable(utts[j], states[i], ctx.theta):
            return F(0)
        mass = sum(
            weights[k] for k in range(len(states))
            if _oracle_assertable(utts[j], states[k], ctx.theta)
        )
        return F(weights[i]) / mass

    def speaker_row(i):
        scores = [literal(i, j) ** alpha if literal(i, j) > 0 else F(0)
                  for j in range(len(utts))]
        total = sum(scores)
        return [s / total for s in scores]

    production = [weights[i] * speaker_row(i)[utt_index] for i in range(len(states))]
    total = sum(production)
    return None if total == 0 else tuple(p / total for p in production)


def test_criterion_11_property_suite(default_states):
    rnd = random.Random(2024)
    contexts = [_random_exact_context(rnd) for _ in range(20)]
    clauses = []

    ok = True
    for ctx in contexts:
        for i in range(ctx.n_states):
            for rule in (Softmax(ctx.alpha), Argmax()):
                ok &= sum(cr.speaker(ctx, i, rule).values()) == 1
        for u in ctx.utterances:
            try:
                ok &= sum(cr.literal_listener(ctx, u).weights) == 1
                ok &= sum(cr.pragmatic_listener(ctx, u).weights) == 1
            except ZeroSupportError:
                continue
    clauses.append(("every distribution normalizes exactly", ok))

    ok = True
    for ctx in contexts[:8]:
        scaled = ScenarioContext.from_unnormalized(
            states=ctx.states, weights=tuple(w * 3 for w in ctx.weights),
            utterances=ctx.utterances, alpha=ctx.alpha, theta=ctx.theta,
        )
        for u in ctx.utterances:
            try:
                expected = cr.pragmatic_listener(ctx, u).weights
            except ZeroSupportError:
                continue
            ok &= cr.pragmatic_listener(scaled, u).weights == expected
    clauses.append(("prior scaling leaves listeners unchanged", ok))

    ok = True
    for name in cr.BUILTIN_NAMES:
        ctx = cr.builtin(name).to_context()
        for i in range(ctx.n_states):
            best = set(cr.argmax_utterances(ctx, i))
            previous = None
            for alpha in (1, 3, 5, 10, 100):
                mass = sum(cr.speaker(ctx, i, Softmax(alpha))[u] for u in best)
                ok &= previous is None or mass >= previous
                previous = mass
    clauses.append(("soft-max converges monotonically to argmax", ok))

    ok = True
    for ctx in contexts[:8]:
        tighter = F(19, 20) if ctx.theta <= F(19, 20) else 1
        for i, state in enumerate(ctx.states):
            for u in ctx.utterances:
                if cr.assertable(u, state, tighter):
                    ok &= cr.assertable(u, state, ctx.theta) or ctx.theta > tighter
    clauses.append(("assertability is monotone in the threshold", ok))

    ok = True
    for _ in range(60):
        relation = rnd.choice([r for r in CausalStructure if r.is_dependent])
        upsilon_p = F(rnd.randint(0, 10), 10)
        tau = F(rnd.randint(0, 10), 10)
        beta = F(rnd.randint(0, 9), 10)
        table = cr.joint_from_noisy_or(relation, upsilon_p, tau, beta)
        ok &= sum(table.cells) == 1
        upsilon_c = cr.noisy_or_effect_probability(tau, beta)
        cause_true = cr.event_for(relation.cause, relation.cause_is_positive)
        effect = cr.event_for(relation.effect)
        if 0 < upsilon_p < 1:
            ok &= query(table, effect, given=cause_true) == upsilon_c
            ok &= query(table, effect, given=~cause_true) == beta
    clauses.append(("noisy-or parameters round-trip through the table", ok))

    ok = True
    for ctx in contexts:
        for j, u in enumerate(ctx.utterances):
            expected = _oracle_pragmatic(ctx, j)
            if expected is None:
                continue
            ok &= cr.pragmatic_listener(ctx, u).weights == expected
    clauses.append(("pragmatic listener matches the enumeration oracle", ok))

    same_states = np.array_equal(
        cr.sample_default_states(5, 300), cr.sample_default_states(5, 300)
    )
    ctx1 = cr.build_default_context(5, 300)
    ctx2 = cr.build_default_context(5, 300)
    checks1 = [(c.name, c.passed, c.observed) for c in cr.default_context_checks(ctx1, "qualitative")]
    checks2 = [(c.name, c.passed, c.observed) for c in cr.default_context_checks(ctx2, "qualitative")]
    clauses.append(("a seed always gives the same results",
                    same_states and checks1 == checks2))

    report(11, clauses)
