"""Scenario definitions and post-interpretation belief updates.

A scenario fixes a small set of candidate world models, the utterance
alternatives, and the model parameters; some add an *observation link*: a
two-node piece of world knowledge connecting one model variable to an
evidence variable the listener has observed (e.g. "people only buy skiing
clothes if they go skiing").  After interpreting the utterance, the
listener adopts the inferred speaker beliefs and then conditions each
candidate world model on the observation through that link.

Scenarios are read from files by `scenario_io`, the built-ins included.
The belief read-outs take each state's event probabilities from
`core.event_column`, in both arithmetics only on the posterior's support,
the states that `engine.expectation` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import engine
from .context import ScenarioContext
from .core import (
    A,
    Event,
    ImpossibleObservationError,
    Scalar,
    State,
    Var,
    ZeroProbabilityEventError,
    event_column,
    event_for,
)
from .engine import Posterior
from .utterances import Utterance, parse_utterance


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
