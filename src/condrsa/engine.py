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
``ctx.relations``), in the context's own dtype, whatever the rendering.  A
float context runs dense float64 kernels, with the soft-max in log space
and the masses and surprise as ``prior @ ...`` in BLAS summation order,
which the sampled output digests pin.  An exact context (all ints and
Fractions, integer alpha) holds ``object`` arrays of Fractions but does
Fraction arithmetic only on the support: the masses and the surprise
vector add only the cells where an utterance is assertable or produced,
and the listener matrices divide only those cells and hold ``Fraction(0)``
everywhere else.  Whatever depends only on a state's row of the
assertability matrix is computed once per distinct row and gathered: the
speaker row, with the soft-max ``(1 / mass(u)) ** alpha`` computed once per
utterance and row-normalised; a row's share of each listener column,
``1 / mass(u)`` or ``P_S(u | s) / surprise(u)``, which each state's prior
then scales; and the row's terms of the masses and the surprise vector,
weighted by the prior mass of its states.  A zero-prior state whose
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
    if not ctx.exact:
        return ctx.prior @ ctx.assertability
    patterns, _, inverse = _patterns(ctx)
    return _prior_dot(ctx, patterns, inverse)


def _best(valid: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The `Argmax` tie set of each row: its valid utterances of least mass.

    An utterance is valid in a row where it is assertable and has mass.  A
    state's assertable utterances all have mass when its own prior is
    positive; the rows of zero-prior states without one stay zero, under
    either rule, and they add nothing to the pragmatic listener or the
    surprise vector.
    """
    mass_rows = np.where(valid, mass, np.inf)
    return valid & (mass_rows == mass_rows.min(axis=1, keepdims=True))


def _compute_speaker(ctx: ScenarioContext, rule: SpeakerRule) -> np.ndarray:
    mass = utterance_masses(ctx)
    if ctx.exact:
        patterns, _, inverse = _patterns(ctx)
        return _exact_speaker_rows(patterns, mass, rule)[inverse]
    valid = ctx.assertability & (mass > 0)
    if isinstance(rule, Argmax):
        scores = np.where(_best(valid, mass), 1.0, 0.0)
    else:
        # the soft-max in log space: -alpha * log(mass)
        alpha = float(rule.alpha)
        utility = np.zeros_like(mass)
        np.log(mass, where=mass > 0, out=utility)
        logits = np.where(valid, -alpha * utility[None, :], -np.inf)
        logits -= np.nan_to_num(logits.max(axis=1, keepdims=True), neginf=0.0)
        scores = np.exp(logits, where=np.isfinite(logits), out=np.zeros_like(logits))
    return _bayes(scores, scores.sum(axis=1, keepdims=True))


def _compute_surprise(ctx: ScenarioContext, rule: SpeakerRule) -> np.ndarray:
    speaker = speaker_matrix(ctx, rule)
    if not ctx.exact:
        return ctx.prior @ speaker
    _, first, inverse = _patterns(ctx)
    return _prior_dot(ctx, speaker[first], inverse)


def _bayes(production: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Divide by ``totals``, per column or per row; a zero total leaves zeros."""
    return production / np.where(totals > 0, totals, 1)


def _column(ctx: ScenarioContext, production: np.ndarray, total: Scalar) -> np.ndarray:
    """One listener column, ``ctx.prior * production / total``; exactly, on
    the nonzero cells of ``production`` only."""
    if not ctx.exact:
        return ctx.prior * production / total
    states = np.flatnonzero(production)
    return _on_support(ctx.n_states, states, ctx.prior[states] * production[states] / total)


# --------------------------------------------------------------------------
# the exact backend: Fraction arithmetic on the support only
# --------------------------------------------------------------------------


def _patterns(ctx: ScenarioContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct assertability rows, the first state of each, and the row
    index of every state."""
    patterns, first, inverse = np.unique(
        ctx.assertability, axis=0, return_index=True, return_inverse=True
    )
    return patterns, first, inverse.reshape(-1)


def _sums(values: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Exact sum of ``values`` per ``index`` in ``range(n)``, ``index``
    sorted; an index without values sums to ``Fraction(0)``."""
    present, starts = np.unique(index, return_index=True)
    return _on_support(n, present, np.add.reduceat(values, starts))


def _prior_dot(ctx: ScenarioContext, rows: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Exact ``ctx.prior @ rows[inverse]``: the prior mass of each row's
    states times the row, added over the row's nonzero cells only."""
    order = np.argsort(inverse, kind="stable")
    row_prior = _sums(ctx.prior[order], inverse[order], len(rows))
    utterance, row = np.nonzero(rows.T)
    return _sums(row_prior[row] * rows[row, utterance], utterance, rows.shape[1])


def _exact_bayes(
    ctx: ScenarioContext, rows: np.ndarray, inverse: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Exact ``_bayes(ctx.prior[:, None] * rows[inverse], totals)``: each
    nonzero cell of a row over its total once per row, times each state's
    prior."""
    produced = rows.astype(bool) & (totals > 0)
    row, utterance = np.nonzero(produced)
    share = _on_support(
        rows.shape, (row, utterance), rows[row, utterance] / totals[utterance]
    )
    cells = produced[inverse]
    state, utterance = np.nonzero(cells)
    return _on_support(
        cells.shape, (state, utterance), ctx.prior[state] * share[inverse[state], utterance]
    )


def _on_support(shape, cells, values) -> np.ndarray:
    """An ``object`` array holding ``values`` at ``cells`` and ``Fraction(0)``
    everywhere else."""
    out = np.full(shape, Fraction(0), dtype=object)
    out[cells] = values
    return out


def _exact_speaker_rows(
    patterns: np.ndarray, mass: np.ndarray, rule: SpeakerRule
) -> np.ndarray:
    """The speaker row of each assertability row, normalised over its chosen
    utterances."""
    valid = patterns & (mass > 0)
    if isinstance(rule, Argmax):
        row, utterance = np.nonzero(_best(valid, mass))
        scores = np.full(len(row), Fraction(1), dtype=object)
    else:
        # the per-state prior factor of the literal listener cancels
        # row-wise, leaving (1 / mass) ** alpha
        alpha = _integer_alpha(rule.alpha)
        row, utterance = np.nonzero(valid)
        power = np.array([(1 / m) ** alpha if m > 0 else 0 for m in mass], dtype=object)
        scores = power[utterance]
    totals = _sums(scores, row, len(patterns))
    return _on_support(patterns.shape, (row, utterance), scores / totals[row])


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
    mass = utterance_masses(ctx)
    if not ctx.exact:
        return _bayes(ctx.prior[:, None] * ctx.assertability, mass)
    patterns, _, inverse = _patterns(ctx)
    return _exact_bayes(ctx, patterns, inverse, mass)


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
    speaker, surprise = speaker_matrix(ctx, rule), surprise_vector(ctx, rule)
    if not ctx.exact:
        return _bayes(ctx.prior[:, None] * speaker, surprise)
    _, first, inverse = _patterns(ctx)
    return _exact_bayes(ctx, speaker[first], inverse, surprise)


def surprise_vector(
    ctx: ScenarioContext, rule: SpeakerRule | None = None
) -> np.ndarray:
    """Expected production probability of every utterance under the prior.
    Read-only, memoised per context and rule."""
    rule = _resolve_rule(ctx, rule)
    return _memoised(ctx, ("surprise", rule), lambda: _compute_surprise(ctx, rule))


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
    column = _column(ctx, ctx.assertability[:, j], mass)
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
    column = _column(ctx, speaker_matrix(ctx, rule)[:, j], total)
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
