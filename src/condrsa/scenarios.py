"""Built-in communication scenarios and post-interpretation belief updates.

Each scenario fixes a small set of candidate world models, the utterance
alternatives, and the model parameters; some add an *observation link*: a
two-node piece of world knowledge connecting one model variable to an
evidence variable the listener has observed (e.g. "people only buy skiing
clothes if they go skiing").  After interpreting the utterance, the
listener adopts the inferred speaker beliefs and then conditions each
candidate world model on the observation through that link.

All built-in numbers are exact rationals, so the published fractions
reproduce bit-for-bit.  The belief read-outs take each state's event
probabilities from `core.event_column`, in both arithmetics only on the
posterior's support, the states that `engine.expectation` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import engine
from .context import ScenarioContext
from .core import (
    A,
    CausalStructure,
    Event,
    ImpossibleObservationError,
    JointTable,
    Scalar,
    State,
    Var,
    ZeroProbabilityEventError,
    event_column,
    event_for,
)
from .engine import Posterior
from .utterances import Utterance, parse_utterance

F = Fraction


@dataclass(frozen=True)
class ObservationLink:
    """World knowledge tying an observed evidence variable to one model variable.

    ``p_obs_given_true`` / ``p_obs_given_false`` give the probability of the
    evidence variable being true when the mediating model variable is true
    / false; ``observed`` is the value the listener actually saw.
    """

    mediator: Var
    p_obs_given_true: Scalar
    p_obs_given_false: Scalar
    observed: bool = True
    label: str = ""


@dataclass(frozen=True)
class ScenarioDefinition:
    """A named, displayable scenario that lowers to a `ScenarioContext`."""

    name: str
    antecedent_name: str
    consequent_name: str
    states: tuple[State, ...]
    weights: tuple[Scalar, ...]
    utterances: tuple[Utterance, ...]
    alpha: Scalar
    theta: Scalar
    observation: ObservationLink | None = None
    description: str = ""
    antecedent_gloss: str = ""
    consequent_gloss: str = ""

    @property
    def variable_names(self) -> dict[Var, str]:
        return {Var.A: self.antecedent_name, Var.C: self.consequent_name}

    def parse(self, text: str) -> Utterance:
        """Parse an utterance written with this scenario's variable names."""
        return parse_utterance(text, self.variable_names)

    def to_context(self) -> ScenarioContext:
        """The context this scenario lowers to: built on the first call and
        kept, so validating a parsed file and running it share one build
        (`dataclasses.replace` gives a definition that builds afresh)."""
        return self._context

    @cached_property
    def _context(self) -> ScenarioContext:
        return ScenarioContext.from_states(
            self.states, self.weights, self.utterances, self.alpha, self.theta
        )


def _table(both: Scalar, a_only: Scalar, c_only: Scalar, neither: Scalar) -> JointTable:
    return JointTable((both, a_only, c_only, neither))


def _toy() -> ScenarioDefinition:
    """Three equally likely beliefs about whether Alex and Chris attend a party."""
    states = (
        # both very likely attend, independently
        State(_table(F(81, 100), F(9, 100), F(9, 100), F(1, 100)),
              CausalStructure.INDEPENDENT, "s1"),
        # they mostly attend together or not at all
        State(_table(F(60, 100), F(5, 100), F(5, 100), F(30, 100)),
              CausalStructure.AC_POS, "s2"),
        # each attends more often than not, independently
        State(_table(F(36, 100), F(24, 100), F(24, 100), F(16, 100)),
              CausalStructure.INDEPENDENT, "s3"),
    )
    utterances = tuple(parse_utterance(t) for t in ("likely C", "A -> C", "C", "A & C"))
    return ScenarioDefinition(
        name="toy",
        antecedent_name="A",
        consequent_name="C",
        antecedent_gloss="Alex comes to the party",
        consequent_gloss="Chris comes to the party",
        description=(
            "A speaker describes which of two friends will attend a party; "
            "hearing the conditional favours the state where the two "
            "attendances are linked."
        ),
        states=states,
        weights=(F(1, 3), F(1, 3), F(1, 3)),
        utterances=utterances,
        alpha=1,
        theta=F(9, 10),
    )


def _skiing(independent_marginal: Scalar = 1) -> ScenarioDefinition:
    """Learning "if she passed the exam, she goes skiing" after seeing
    evidence of a skiing trip raises belief in the antecedent."""
    p_pass = F(1, 5)
    dep = State(
        _table(p_pass, 0, 0, 1 - p_pass), CausalStructure.AC_POS, "dep"
    )
    p_ski = independent_marginal
    ind = State(
        _table(p_pass * p_ski, p_pass * (1 - p_ski),
               (1 - p_pass) * p_ski, (1 - p_pass) * (1 - p_ski)),
        CausalStructure.INDEPENDENT, "ind",
    )
    names = {Var.A: "E", Var.C: "S"}
    utterances = tuple(
        parse_utterance(t, names) for t in ("S", "likely S", "E -> S")
    )
    return ScenarioDefinition(
        name="skiing",
        antecedent_name="E",
        consequent_name="S",
        antecedent_gloss="Sue passed the exam",
        consequent_gloss="Sue goes on a skiing trip",
        description=(
            "The listener thinks passing unlikely, has seen Sue buy skiing "
            "clothes, and hears that passing would trigger the trip."
        ),
        states=(dep, ind),
        weights=(F(1, 2), F(1, 2)),
        utterances=utterances,
        alpha=1,
        theta=F(9, 10),
        observation=ObservationLink(
            mediator=Var.C,
            p_obs_given_true=F(1, 2),
            p_obs_given_false=0,
            observed=True,
            label="Sue buys skiing clothes",
        ),
    )


def _garden_party() -> ScenarioDefinition:
    """Learning "if he passed, they throw a party" after seeing the garden
    spaded lowers belief in the antecedent."""
    dep = State(_table(F(1, 2), 0, F(1, 4), F(1, 4)), CausalStructure.AC_POS, "dep")
    p_d, p_g = F(1, 2), F(19, 20)
    ind = State(
        _table(p_d * p_g, p_d * (1 - p_g), (1 - p_d) * p_g, (1 - p_d) * (1 - p_g)),
        CausalStructure.INDEPENDENT, "ind",
    )
    names = {Var.A: "D", Var.C: "G"}
    utterances = tuple(parse_utterance(t, names) for t in ("G", "D -> G", "likely G"))
    return ScenarioDefinition(
        name="garden_party",
        antecedent_name="D",
        consequent_name="G",
        antecedent_gloss="Kevin passed the driving test",
        consequent_gloss="Kevin's parents throw a garden party",
        description=(
            "The listener sees the neighbours spading their garden, which "
            "rules out a party, and hears that passing would trigger one."
        ),
        states=(dep, ind),
        weights=(F(1, 2), F(1, 2)),
        utterances=utterances,
        alpha=3,
        theta=F(9, 10),
        observation=ObservationLink(
            mediator=Var.C,
            p_obs_given_true=0,
            p_obs_given_false=F(1, 2),
            observed=True,
            label="the neighbours spade their garden",
        ),
    )


def _sundowners() -> ScenarioDefinition:
    """Learning "if it rains, no sundowners" leaves belief in rain unchanged."""
    dep = State(_table(0, F(1, 2), F(1, 2), 0), CausalStructure.AC_NEG, "dep")
    p_r = F(1, 2)
    low, high = F(1, 20), F(19, 20)
    ind_low = State(
        _table(p_r * low, p_r * (1 - low), (1 - p_r) * low, (1 - p_r) * (1 - low)),
        CausalStructure.INDEPENDENT, "ind_low",
    )
    ind_high = State(
        _table(p_r * high, p_r * (1 - high), (1 - p_r) * high, (1 - p_r) * (1 - high)),
        CausalStructure.INDEPENDENT, "ind_high",
    )
    names = {Var.A: "R", Var.C: "S"}
    utterances = tuple(
        parse_utterance(t, names)
        for t in ("R -> ~S", "likely S", "likely ~S", "S", "~S")
    )
    return ScenarioDefinition(
        name="sundowners",
        antecedent_name="R",
        consequent_name="S",
        antecedent_gloss="it rains tomorrow",
        consequent_gloss="sundowners at the hotel take place",
        description=(
            "The listener strongly expects the drinks to happen regardless "
            "of rain; the conditional is surprising and shifts beliefs about "
            "the joint event, not about rain itself."
        ),
        states=(dep, ind_low, ind_high),
        weights=(F(3, 40), F(3, 40), F(17, 20)),
        utterances=utterances,
        alpha=3,
        theta=F(9, 10),
    )


_BUILDERS = {
    "toy": _toy,
    "skiing": _skiing,
    "garden_party": _garden_party,
    "sundowners": _sundowners,
}

BUILTIN_NAMES = tuple(_BUILDERS)


def builtin(name: str) -> ScenarioDefinition:
    """One of the built-in scenarios: toy, skiing, garden_party, sundowners."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        known = ", ".join(BUILTIN_NAMES)
        raise KeyError(f"unknown scenario {name!r} (built-ins: {known})") from None
    return build()


#: variant of the skiing scenario whose independent state has P(S) = 0.91
#: instead of 1; assertability and all reported results are identical at
#: theta = 0.9, so both fixtures are kept
SKIING_UNCERTAIN_TRIP_VARIANT = replace(
    _skiing(independent_marginal=F(91, 100)), name="skiing_uncertain_trip"
)


# --------------------------------------------------------------------------
# belief read-outs and the observation update
# --------------------------------------------------------------------------


def antecedent_belief(post: Posterior, which: str = "posterior") -> Scalar:
    """Expected probability of the antecedent variable, under the posterior
    weights or (``which="prior"``) the context's prior weights."""
    if which == "prior":
        post = engine.prior_posterior(post.context)
    elif which != "posterior":
        raise ValueError(f"which must be 'prior' or 'posterior', got {which!r}")
    return joint_event_belief(post, A)


def joint_event_belief(post: Posterior, event: Event) -> Scalar:
    """Expected probability of an arbitrary event over the two variables."""
    # `expectation` reads only the nonzero weights: add the cells there
    cells = post.context.cells
    (support,) = np.nonzero(post.column)
    column = np.zeros(len(cells), cells.dtype)
    column[support] = event_column(cells[support], event)
    return engine.expectation(post, column)


def observation_update(post: Posterior, link: ObservationLink) -> Scalar:
    """Expected antecedent belief after conditioning on the observation.

    Per state, Bayes inverts the link to get the mediator posterior (the
    state's own mediator marginal serves as the prior; it cancels whenever
    one link branch is zero), then mixes the state's antecedent
    conditionals accordingly, assuming the antecedent and the observation
    are independent given the mediator.  The result averages the per-state
    updates under the posterior over states.
    """
    p_true = link.p_obs_given_true
    p_false = link.p_obs_given_false
    if not link.observed:
        p_true, p_false = 1 - p_true, 1 - p_false
    if p_true == 0 and p_false == 0:
        raise ImpossibleObservationError(
            "the link assigns the observation probability zero under every "
            "mediator value"
        )

    mediator = event_for(link.mediator)
    # per state of the posterior's support (a state of zero weight adds
    # nothing): P(m), P(~m), P(a, m) and P(a, ~m), with `query`'s sums
    (support,) = np.nonzero(post.column)
    cells = post.context.cells[support]
    columns = zip(*(
        event_column(cells, event).tolist()
        for event in (mediator, ~mediator, A & mediator, A & ~mediator)
    ))
    total = 0
    for weight, state, (p_med, p_not_med, a_med, a_not_med) in zip(
        post.column[support].tolist(), support.tolist(), columns
    ):
        label = post.context.labels[state]
        evidence = p_true * p_med + p_false * (1 - p_med)
        if evidence == 0:
            raise ImpossibleObservationError(
                f"the observation is impossible in {label or 'a supported state'}"
            )
        med_given_obs = p_true * p_med / evidence
        updated = 0
        if med_given_obs > 0:
            updated = updated + a_med / p_med * med_given_obs
        if med_given_obs < 1:
            if p_not_med == 0:  # a float row may sum to just under 1
                raise ZeroProbabilityEventError(f"cannot condition on {~mediator}")
            updated = updated + a_not_med / p_not_med * (1 - med_given_obs)
        total = total + weight * updated
    return total
