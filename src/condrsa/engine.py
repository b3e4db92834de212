"""The pragmatic recursion: literal listener, speaker, pragmatic listener.

The literal listener updates the prior with the assertability indicator:

    P_lit(s | u)  proportional to  assertable(u, s) * prior(s)

The speaker scores utterances by the log-probability the literal listener
would then assign to the speaker's state, and soft-maxes with rationality
``alpha``; the pragmatic listener Bayes-inverts the speaker:

    P_S(u | s)    proportional to  P_lit(s | u) ** alpha   over assertable u
    P_PL(s | u)   proportional to  P_S(u | s) * prior(s)

Because ``P_lit(s | u) = prior(s) / mass(u)`` whenever ``u`` is assertable
in ``s`` (with ``mass(u)`` the prior mass of the states supporting ``u``),
the per-state prior factor cancels in the speaker's normalization.  The
same cancellation applies to the prior mass of any group of states sharing
one table, so marginalizing listener mass over causal relations attached
to the same table leaves the speaker unchanged; speakers here depend only
on which utterances are assertable and on the masses.

One matrix engine serves both numeric backends.  It reads only the
context's arrays (``ctx.cells``, ``ctx.prior``, ``ctx.assertability``,
``ctx.relations``), in the context's own dtype, whatever the rendering: an
exact context (all ints and Fractions, integer alpha) runs it on ``object``
arrays of Fractions, with the soft-max ``(1 / mass(u)) ** alpha`` computed
once per utterance and row-normalised; a float context runs it on float64
arrays, with the soft-max in log space.  A zero-prior state whose
assertable utterances have no mass gets a zero speaker row.

Each context memoises the utterance masses and, per speaker rule, the
speaker matrix and the surprise vector, as read-only arrays.  The
per-state and per-utterance operations (`speaker`, `literal_listener`,
`pragmatic_listener`, `utterance_surprise`) read one row or column of
them.  The listener matrices are not memoised: on large sampled contexts
they would add a full (states x utterances) array per rule to memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .context import ScenarioContext
from .core import (
    RELATION_ORDER,
    CausalStructure,
    ContextError,
    Scalar,
    State,
    ZeroSupportError,
)
from .utterances import Utterance


@dataclass(frozen=True)
class Softmax:
    """Soft-max utterance choice with rationality ``alpha``.

    ``Softmax(0)`` is uniform over assertable utterances; increasing
    ``alpha`` approaches `Argmax`.
    """

    alpha: Scalar

    def __post_init__(self) -> None:
        # Softmax(True) == Softmax(1), so a bool would share 1's memo entry
        if isinstance(self.alpha, (bool, np.bool_)):
            raise ContextError(
                f"alpha must be a number: a bool is not an integer alpha, got {self.alpha!r}"
            )
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha!r}")


@dataclass(frozen=True)
class Argmax:
    """The hyperrational limit: uniform over utility-maximizing utterances."""


SpeakerRule = Union[Softmax, Argmax]


@dataclass(frozen=True)
class Posterior:
    """A distribution over the states of a context."""

    context: ScenarioContext
    weights: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.context.n_states:
            raise ValueError("one weight per context state required")

    def weight(self, state: State | str | int) -> Scalar:
        if isinstance(state, int):
            return self.weights[state]
        return self.weights[self.context.index_of_state(state)]


def prior_posterior(ctx: ScenarioContext) -> Posterior:
    """The prior, wrapped as a posterior for uniform downstream handling."""
    return Posterior(ctx, tuple(ctx.prior.tolist()))


def _resolve_rule(ctx: ScenarioContext, rule: SpeakerRule | None) -> SpeakerRule:
    return Softmax(ctx.alpha) if rule is None else rule


def _integer_alpha(alpha: Scalar) -> int:
    """A finite ``alpha`` as an int, by the context's rule for exactness."""
    if Fraction(alpha).denominator == 1:
        return int(alpha)
    raise ContextError(
        f"exact arithmetic needs an integer alpha, got {alpha!r}; "
        "use a float context for non-integer rationality"
    )


def _memoised(
    ctx: ScenarioContext, key: object, compute: Callable[[], np.ndarray]
) -> np.ndarray:
    memo = ctx._memo
    if key not in memo:
        value = compute()
        value.setflags(write=False)
        memo[key] = value
    return memo[key]


def _compute_masses(ctx: ScenarioContext) -> np.ndarray:
    return ctx.prior @ ctx.assertability


def _compute_speaker(ctx: ScenarioContext, rule: SpeakerRule) -> np.ndarray:
    mass = utterance_masses(ctx)
    # a state's assertable utterances all have mass when its own prior is
    # positive; the rows of zero-prior states without one stay zero, and
    # they add nothing to the pragmatic listener or the surprise vector
    valid = ctx.assertability & (mass > 0)

    zero, one = (Fraction(0), Fraction(1)) if ctx.exact else (0.0, 1.0)
    if isinstance(rule, Argmax):
        mass_rows = np.where(valid, mass, np.inf)
        best = valid & (mass_rows == mass_rows.min(axis=1, keepdims=True))
        scores = np.where(best, one, zero)
    elif ctx.exact:
        # the per-state prior factor of the literal listener cancels
        # row-wise, leaving (1 / mass) ** alpha
        alpha = _integer_alpha(rule.alpha)
        power = np.array(
            [(1 / m) ** alpha if m > 0 else zero for m in mass], dtype=object
        )
        scores = np.where(valid, power, zero)
    else:
        # the same soft-max in log space: -alpha * log(mass)
        alpha = float(rule.alpha)
        utility = np.zeros_like(mass)
        np.log(mass, where=mass > 0, out=utility)
        logits = np.where(valid, -alpha * utility[None, :], -np.inf)
        logits -= np.nan_to_num(logits.max(axis=1, keepdims=True), neginf=0.0)
        scores = np.exp(logits, where=np.isfinite(logits), out=np.zeros_like(logits))
    return _bayes(scores, scores.sum(axis=1, keepdims=True))


def _bayes(production: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Divide by ``totals``, per column or per row; a zero total leaves zeros."""
    return production / np.where(totals > 0, totals, 1)


# --------------------------------------------------------------------------
# whole-context arrays, in the context's dtype
# --------------------------------------------------------------------------


def utterance_masses(ctx: ScenarioContext) -> np.ndarray:
    """Prior mass supporting each utterance: ``mass(u) = sum of prior(s) over s
    where u is assertable``.  Read-only, memoised per context."""
    return _memoised(ctx, "masses", lambda: _compute_masses(ctx))


def literal_listener_matrix(ctx: ScenarioContext) -> np.ndarray:
    """P_lit(state | utterance) as an (n_states, n_utterances) matrix.

    Columns for utterances assertable nowhere are identically zero.
    """
    production = ctx.prior[:, None] * ctx.assertability
    return _bayes(production, utterance_masses(ctx))


def speaker_matrix(
    ctx: ScenarioContext, rule: SpeakerRule | None = None
) -> np.ndarray:
    """P_S(utterance | state) as an (n_states, n_utterances) matrix.
    Read-only, memoised per context and rule."""
    rule = _resolve_rule(ctx, rule)
    return _memoised(ctx, ("speaker", rule), lambda: _compute_speaker(ctx, rule))


def pragmatic_listener_matrix(
    ctx: ScenarioContext, rule: SpeakerRule | None = None
) -> np.ndarray:
    """P_PL(state | utterance) columns; zero columns where no speaker ever
    produces the utterance."""
    production = ctx.prior[:, None] * speaker_matrix(ctx, rule)
    return _bayes(production, surprise_vector(ctx, rule))


def surprise_vector(
    ctx: ScenarioContext, rule: SpeakerRule | None = None
) -> np.ndarray:
    """Expected production probability of every utterance under the prior.
    Read-only, memoised per context and rule."""
    rule = _resolve_rule(ctx, rule)
    return _memoised(
        ctx, ("surprise", rule), lambda: ctx.prior @ speaker_matrix(ctx, rule)
    )


# --------------------------------------------------------------------------
# public operations: rows and columns of the arrays above
# --------------------------------------------------------------------------


def literal_listener(ctx: ScenarioContext, utterance: Utterance | str) -> Posterior:
    """Prior conditioned on the states where ``utterance`` is assertable."""
    j = ctx.index_of_utterance(utterance)
    mass = utterance_masses(ctx)[j]
    if mass == 0:
        raise ZeroSupportError(
            f"utterance {ctx.utterances[j]} is assertable in no state"
        )
    column = ctx.prior * ctx.assertability[:, j] / mass
    return Posterior(ctx, tuple(column.tolist()))


def speaker(
    ctx: ScenarioContext,
    state: State | str | int,
    rule: SpeakerRule | None = None,
) -> dict[Utterance, Scalar]:
    """Utterance choice probabilities of a speaker in ``state``."""
    i = state if isinstance(state, int) else ctx.index_of_state(state)
    return dict(zip(ctx.utterances, speaker_matrix(ctx, rule)[i].tolist()))


def argmax_utterances(
    ctx: ScenarioContext, state: State | str | int
) -> tuple[Utterance, ...]:
    """The utility-maximizing utterances (the `Argmax` tie set) for a state."""
    row = speaker(ctx, state, Argmax())
    return tuple(u for u, p in row.items() if p > 0)


def pragmatic_listener(
    ctx: ScenarioContext,
    utterance: Utterance | str,
    rule: SpeakerRule | None = None,
) -> Posterior:
    """Bayesian inversion of the speaker: prior times production probability."""
    j = ctx.index_of_utterance(utterance)
    total = surprise_vector(ctx, rule)[j]
    if total == 0:
        raise ZeroSupportError(f"no speaker ever produces {ctx.utterances[j]}")
    column = ctx.prior * speaker_matrix(ctx, rule)[:, j] / total
    return Posterior(ctx, tuple(column.tolist()))


def interpretations(
    ctx: ScenarioContext,
    utterance: Utterance | str,
    rule: SpeakerRule | None = None,
    read: Callable[[Posterior], object] = lambda post: post,
) -> dict[str, object]:
    """The prior, literal listener and pragmatic listener of ``utterance``,
    keyed by stage name, each passed through ``read`` before the next is
    built: on a large context, one posterior at a time is alive."""
    return {
        "prior": read(prior_posterior(ctx)),
        "literal": read(literal_listener(ctx, utterance)),
        "pragmatic": read(pragmatic_listener(ctx, utterance, rule)),
    }


def utterance_surprise(
    ctx: ScenarioContext,
    utterance: Utterance | str,
    rule: SpeakerRule | None = None,
) -> Scalar:
    """How much the listener expects to hear ``utterance`` at all:
    ``sum over s of prior(s) * P_S(u | s)``.  Low values mark utterances a
    cooperative speaker would rarely produce under the prior."""
    j = ctx.index_of_utterance(utterance)
    return surprise_vector(ctx, rule).tolist()[j]


def expectation(post: Posterior, values: np.ndarray) -> Scalar:
    """Posterior expectation of a per-state quantity, given as one value per
    state (such as a column of ``ctx.cells``)."""
    weights = np.array(post.weights, dtype=post.context.prior.dtype)
    # a running sum adds in state order, so floats match a state-by-state loop
    return np.cumsum(weights * values)[-1:].tolist()[0]


def relation_posterior(post: Posterior) -> dict[CausalStructure, Scalar]:
    """Posterior mass per causal structure (all five variants listed)."""
    ctx = post.context
    weights = np.array(post.weights, dtype=ctx.prior.dtype)
    zero = Fraction(0) if ctx.exact else 0.0
    # the last running sum adds a structure's weights one at a time in state
    # order, so float masses equal those of a state-by-state loop
    return {
        relation: sum(np.cumsum(weights[ctx.relations == code])[-1:].tolist(), zero)
        for code, relation in enumerate(RELATION_ORDER)
    }
