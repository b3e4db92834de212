import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import condrsa as cr
from condrsa import (
    CausalStructure,
    ImpossibleObservationError,
    ObservationLink,
    Var,
    antecedent_belief,
    joint_event_belief,
    observation_update,
    query,
)


class TestBuiltins:
    def test_names(self):
        assert cr.BUILTIN_NAMES == ("toy", "skiing", "garden_party", "sundowners")
        with pytest.raises(KeyError, match="unknown scenario"):
            cr.builtin("picnic")

    def test_toy_configuration(self):
        toy = cr.builtin("toy")
        assert toy.states[1].table.cells == (F(60, 100), F(5, 100), F(5, 100), F(30, 100))
        assert toy.weights == (F(1, 3), F(1, 3), F(1, 3))
        assert toy.alpha == 1 and toy.theta == F(9, 10)
        assert len(toy.utterances) == 4

    def test_skiing_configuration(self):
        ski = cr.builtin("skiing")
        assert len(ski.utterances) == 3
        dep, ind = ski.states
        assert dep.table.cells == (F(1, 5), 0, 0, F(4, 5))
        assert query(ind.table, cr.C) == 1  # the trip is taken for granted
        assert ski.observation.mediator is Var.C
        assert ski.observation.p_obs_given_false == 0

    def test_garden_party_configuration(self):
        gp = cr.builtin("garden_party")
        dep, ind = gp.states
        assert query(dep.table, cr.C, given=cr.A) == 1
        assert query(dep.table, cr.C, given=~cr.A) == F(1, 2)
        assert query(ind.table, cr.C) == F(19, 20)
        assert gp.alpha == 3

    def test_sundowners_configuration(self):
        sun = cr.builtin("sundowners")
        assert sun.weights == (F(3, 40), F(3, 40), F(17, 20))
        assert sun.weights[2] == F(85, 100)
        assert len(sun.utterances) == 5
        assert sun.states[0].relation is CausalStructure.AC_NEG
        assert sun.observation is None

    def test_variant_fixture_matches_published_product_table(self):
        variant = cr.SKIING_UNCERTAIN_TRIP_VARIANT
        ind = variant.states[1]
        assert [float(c) for c in ind.table.cells] == [0.182, 0.018, 0.728, 0.072]


class TestShippedFiles:
    """The built-ins are package data: one file per name, shipped by a build."""

    FILES = Path(cr.__file__).with_name("scenario_files")

    def test_one_file_per_builtin_named_by_its_stem(self):
        paths = sorted(self.FILES.iterdir())
        assert [p.name for p in paths] == sorted(f"{n}.json" for n in cr.BUILTIN_NAMES)
        for path in paths:
            assert json.loads(path.read_text(encoding="utf-8"))["name"] == path.stem

    def test_build_ships_the_scenario_files(self, tmp_path):
        # a missing package-data entry breaks only installed copies, never a
        # run from the source tree, so build the package and look
        pytest.importorskip("setuptools")
        root = Path(__file__).resolve().parents[1]
        shutil.copy(root / "pyproject.toml", tmp_path)
        shutil.copytree(root / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        build = tmp_path / "build_lib"
        subprocess.run(
            [sys.executable, "-c", "import setuptools; setuptools.setup()",
             "build_py", "--build-lib", str(build)],
            cwd=tmp_path, check=True, capture_output=True,
        )
        shipped = sorted(p.name for p in (build / "condrsa" / "scenario_files").iterdir())
        assert shipped == sorted(f"{n}.json" for n in cr.BUILTIN_NAMES)


class TestAntecedentBelief:
    def test_skiing_stays_at_prior_before_observation(self, skiing):
        ctx = skiing.to_context()
        post = cr.pragmatic_listener(ctx, skiing.parse("E -> S"))
        assert antecedent_belief(post) == F(1, 5)
        assert antecedent_belief(cr.prior_posterior(ctx)) == F(1, 5)

    def test_literal_listener_invariance(self, skiing, garden_party):
        for defn in (skiing, garden_party):
            ctx = defn.to_context()
            conditional = next(u for u in defn.utterances if u.kind.value == "conditional")
            literal = cr.literal_listener(ctx, conditional)
            assert antecedent_belief(literal) == antecedent_belief(cr.prior_posterior(ctx))

    def test_sundowners_unchanged(self, sundowners):
        ctx = sundowners.to_context()
        post = cr.pragmatic_listener(ctx, sundowners.parse("R -> ~S"))
        assert antecedent_belief(post) == F(1, 2)


class TestJointEventBelief:
    def test_sundowners_joint_event(self, sundowners):
        ctx = sundowners.to_context()
        post = cr.pragmatic_listener(ctx, sundowners.parse("R -> ~S"))
        assert joint_event_belief(post, cr.A & cr.C) == F(1, 720)
        prior = cr.prior_posterior(ctx)
        assert joint_event_belief(prior, cr.A & cr.C) == F(649, 1600)

    def test_point_mass_on_exclusive_state(self, sundowners):
        ctx = sundowners.to_context()
        post = cr.Posterior(ctx, (1, 0, 0))
        assert joint_event_belief(post, cr.A & cr.C) == 0


def oracle_update(post, link):
    """Expected antecedent belief via the full joint over
    (antecedent, mediator, observation), enumerated per state."""
    total = 0
    med = cr.event_for(link.mediator)
    p1, p0 = link.p_obs_given_true, link.p_obs_given_false
    if not link.observed:
        p1, p0 = 1 - p1, 1 - p0
    for w, s in zip(post.weights, post.context.states):
        joint = {}
        for ant_true in (True, False):
            ant = cr.A if ant_true else ~cr.A
            for med_true in (True, False):
                cell = query(s.table, ant & (med if med_true else ~med))
                joint[(ant_true, med_true)] = cell * (p1 if med_true else p0)
        evidence = sum(joint.values())
        p_ant = (joint[(True, True)] + joint[(True, False)]) / evidence
        total += w * p_ant
    return total


class TestObservationUpdate:
    def test_skiing_update(self, skiing):
        ctx = skiing.to_context()
        post = cr.pragmatic_listener(ctx, skiing.parse("E -> S"))
        assert observation_update(post, skiing.observation) == F(13, 15)

    def test_garden_party_update(self, garden_party):
        ctx = garden_party.to_context()
        post = cr.pragmatic_listener(ctx, garden_party.parse("D -> G"))
        value = observation_update(post, garden_party.observation)
        assert value == F(1, 12)
        assert value < antecedent_belief(post)

    def test_update_triad_directions(self, skiing, garden_party, sundowners):
        ski_ctx = skiing.to_context()
        ski_post = cr.pragmatic_listener(ski_ctx, skiing.parse("E -> S"))
        assert observation_update(ski_post, skiing.observation) > antecedent_belief(
            cr.prior_posterior(ski_ctx)
        )

        gp_ctx = garden_party.to_context()
        gp_post = cr.pragmatic_listener(gp_ctx, garden_party.parse("D -> G"))
        assert observation_update(gp_post, garden_party.observation) < antecedent_belief(
            cr.prior_posterior(gp_ctx)
        )

        sun_ctx = sundowners.to_context()
        sun_post = cr.pragmatic_listener(sun_ctx, sundowners.parse("R -> ~S"))
        assert antecedent_belief(sun_post) == antecedent_belief(cr.prior_posterior(sun_ctx))

    def test_uninformative_link_changes_nothing(self, skiing):
        ctx = skiing.to_context()
        post = cr.pragmatic_listener(ctx, skiing.parse("E -> S"))
        flat = ObservationLink(Var.C, F(1, 3), F(1, 3))
        assert observation_update(post, flat) == antecedent_belief(post)

    def test_matches_joint_enumeration_oracle(self, skiing, garden_party):
        cases = [
            (skiing, skiing.observation),
            (garden_party, garden_party.observation),
            (skiing, ObservationLink(Var.C, F(2, 3), F(1, 5))),
            (skiing, ObservationLink(Var.A, F(1, 2), F(1, 10), observed=False)),
            (garden_party, ObservationLink(Var.C, 0, F(1, 2))),
        ]
        for defn, link in cases:
            ctx = defn.to_context()
            conditional = next(u for u in defn.utterances if u.kind.value == "conditional")
            post = cr.pragmatic_listener(ctx, conditional)
            assert observation_update(post, link) == oracle_update(post, link)

    def test_variant_fixture_reproduces_update(self):
        variant = cr.SKIING_UNCERTAIN_TRIP_VARIANT
        ctx = variant.to_context()
        post = cr.pragmatic_listener(ctx, variant.parse("E -> S"))
        assert observation_update(post, variant.observation) == F(13, 15)

    def test_zero_probability_branch_is_a_named_error(self):
        # within the float tolerance the row sums to just under 1, so
        # 1 - P(C) > 0 while P(~C) = 0
        state = cr.State(cr.JointTable((0.3, 0.0, 0.7 - 1e-12, 0.0)), label="s")
        ctx = cr.ScenarioContext.from_states(
            [state], [1.0], [cr.parse_utterance("likely C")], 1.0, 0.9
        )
        link = ObservationLink(Var.C, F(1, 2), F(1, 2))
        with pytest.raises(cr.ZeroProbabilityEventError):
            observation_update(cr.prior_posterior(ctx), link)

    def test_link_level_impossibility(self, skiing):
        post = cr.prior_posterior(skiing.to_context())
        impossible = ObservationLink(Var.C, 0, 0)
        with pytest.raises(ImpossibleObservationError):
            observation_update(post, impossible)

    def test_state_level_impossibility(self):
        # the evidence requires the consequent, but the only supported state
        # rules the consequent out entirely
        no_trip = cr.State(cr.joint_from_marginals(F(1, 5), 0), label="grounded")
        custom = cr.ScenarioContext.from_states(
            states=(no_trip,),
            weights=(1,),
            utterances=(cr.parse_utterance("~C"),),
            alpha=1,
            theta=F(9, 10),
        )
        post = cr.prior_posterior(custom)
        link = ObservationLink(Var.C, F(1, 2), 0)
        with pytest.raises(ImpossibleObservationError, match="grounded"):
            observation_update(post, link)
