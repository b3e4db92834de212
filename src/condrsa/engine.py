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

So every stage of the recursion is a function of a state's row of the
assertability matrix, and one recursion serves both numeric backends.  It
reads only the context's arrays, in the context's own dtype, and groups
the states by assertability row once per context (`_patterns`).  The
speaker is scored and normalised on the distinct rows, the pattern rows
(`_speaker_rows`).  The masses and the surprise vector are each one
`_prior_dot`, and both listener matrices and every listener column one
`_listener`, of pattern rows.  The backends differ in the speaker's
scores and in these two kernels.  A float context soft-maxes in log space
and runs dense float64 kernels on the per-state gather ``rows[inverse]``,
``prior @ ...`` in the BLAS summation order that the sampled output
digests pin.  An exact context (all ints and Fractions, integer alpha)
scores ``(1 / mass(u)) ** alpha`` and does Fraction arithmetic once per
distinct row and only on the support: its speaker scores, adds and
divides only the valid cells of each pattern row, its masses and surprise
add only the cells where an utterance is assertable or produced, and its
listener matrices divide only those cells; every other cell holds the one
shared ``Fraction(0)``.  Its sums are `_group_sums`, as are the float
grouped sums and both backends' `expectation`, which adds only nonzero
weights.  A zero-prior state whose assertable utterances have no mass gets
a zero speaker row.

Each context memoises the grouping, the utterance masses and, per speaker
rule, the speaker's pattern rows and the surprise vector, as read-only
arrays; none has a row per state.  A per-state matrix is a gather made
where it is needed: `speaker_matrix` returns a new one on each call, and
the per-state and per-utterance operations (`speaker`, `literal_listener`,
`pragmatic_listener`, `utterance_surprise`) read one pattern row or
column.  The listener matrices are not memoised: on large sampled
contexts they would add a full (states x utterances) array per rule to
memory.  A `Posterior` holds its weights as one read-only column in the
context's dtype, and `expectation` and `relation_posterior` read that
column directly; its ``weights`` tuple is only built when a caller asks
for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    ``alpha`` approaches `Argmax`; a float ``alpha`` whose ``-alpha * log(mass)`` overflows raises.
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


@dataclass(frozen=True, eq=False)
class Posterior:
    """A distribution over the states of a context: one read-only column of
    weights, a copy in the context's dtype."""

    context: ScenarioContext
    column: np.ndarray

    def __post_init__(self) -> None:
        column = np.array(self.column, dtype=self.context.prior.dtype)
        if column.shape != (self.context.n_states,):
            raise ValueError("one weight per context state required")
        column.setflags(write=False)
        object.__setattr__(self, "column", column)

    @cached_property
    def weights(self) -> tuple[Scalar, ...]:
        return tuple(self.column.tolist())

    def weight(self, state: State | str | int) -> Scalar:
        return self.column.item(self.context.index_of_state(state))


def prior_posterior(ctx: ScenarioContext) -> Posterior:
    """The prior, wrapped as a posterior for uniform downstream handling."""
    return Posterior(ctx, ctx.prior)


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


def _memoised(ctx: ScenarioContext, key: object, compute: Callable[[], object]):
    memo = ctx._memo
    if key not in memo:
        value = compute()
        for array in value if isinstance(value, tuple) else (value,):
            array.setflags(write=False)
        memo[key] = value
    return memo[key]


def _patterns(ctx: ScenarioContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct assertability rows, the first state of each, and the row
    index of every state.  Read-only, memoised per context."""

    def group():
        # each row packed into one big-endian uint64 key, whose order is the
        # rows' memcmp order: a 1-D unique finds the groups of
        # np.unique(axis=0), in the same order.  One word always suffices:
        # over two variables the grammar has at most 40 distinct utterances
        # (4 literals, 4 `likely`, 16 conjunctions, 16 conditionals), and a
        # context rejects duplicates.
        packed = np.packbits(ctx.assertability, axis=1)
        keys = np.zeros((len(packed), 8), np.uint8)
        keys[:, : packed.shape[1]] = packed
        _, first, inverse = np.unique(
            keys.view(">u8")[:, 0], return_index=True, return_inverse=True
        )
        return ctx.assertability[first], first, inverse

    return _memoised(ctx, "patterns", group)


def _compute_masses(ctx: ScenarioContext) -> np.ndarray:
    return _prior_dot(ctx, _patterns(ctx)[0])


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
    valid = _patterns(ctx)[0] & (mass > 0)
    if ctx.exact:
        # the per-state prior factor of the literal listener cancels
        # row-wise, leaving (1 / mass) ** alpha, scored on valid cells only
        if isinstance(rule, Argmax):
            valid, power = _best(valid, mass), np.full(len(mass), Fraction(1), dtype=object)
        else:
            alpha = _integer_alpha(rule.alpha)
            power = np.array(
                [(1 / m) ** alpha if m > 0 else Fraction(0) for m in mass], dtype=object
            )
        row, utterance = np.nonzero(valid)
        scores = power[utterance]
        totals = _group_sums(scores, row, len(valid))
        return _on_support(valid.shape, (row, utterance), scores / totals[row])
    if isinstance(rule, Argmax):
        scores = np.where(_best(valid, mass), 1.0, 0.0)
    else:
        # the soft-max in log space: -alpha * log(mass)
        alpha = float(rule.alpha)
        utility = np.zeros_like(mass)
        np.log(mass, where=mass > 0, out=utility)
        with np.errstate(over="ignore"):
            utility *= -alpha
        if not np.isfinite(utility).all():
            raise ContextError(f"alpha {rule.alpha!r} overflows the float soft-max; use Argmax")
        logits = np.where(valid, utility[None, :], -np.inf)
        logits -= np.nan_to_num(logits.max(axis=1, keepdims=True), neginf=0.0)
        scores = np.exp(logits, where=np.isfinite(logits), out=np.zeros_like(logits))
    return _bayes(scores, scores.sum(axis=1, keepdims=True))


def _compute_surprise(ctx: ScenarioContext, rule: SpeakerRule) -> np.ndarray:
    return _prior_dot(ctx, _speaker_rows(ctx, rule))


def _bayes(production: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Divide by ``totals``, per column or per row; a zero total leaves zeros."""
    return production / np.where(totals > 0, totals, 1)


# --------------------------------------------------------------------------
# kernels on pattern rows: one row per distinct assertability row
# --------------------------------------------------------------------------


def _prior_dot(ctx: ScenarioContext, rows: np.ndarray) -> np.ndarray:
    """``ctx.prior @ rows[inverse]``; exactly, the prior mass of each
    pattern's states times its row, added over the row's nonzero cells only."""
    _, first, inverse = _patterns(ctx)
    if not ctx.exact:
        return ctx.prior @ rows[inverse]
    row_prior = _group_sums(ctx.prior, inverse, len(first))
    row, utterance = np.nonzero(rows)
    return _group_sums(row_prior[row] * rows[row, utterance], utterance, rows.shape[1])


def _listener(ctx: ScenarioContext, rows: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``_bayes(ctx.prior[:, None] * rows[inverse], totals)``; exactly, each
    nonzero cell of a pattern row over its total once per row, times each
    state's prior, and ``Fraction(0)`` in every other cell."""
    inverse = _patterns(ctx)[2]
    if not ctx.exact:
        return _bayes(ctx.prior[:, None] * rows[inverse], totals)
    produced = rows.astype(bool) & (totals > 0)
    row, utterance = np.nonzero(produced)
    share = _on_support(produced.shape, (row, utterance), rows[row, utterance] / totals[utterance])
    cells = produced[inverse]
    state, utterance = np.nonzero(cells)
    return _on_support(
        cells.shape, (state, utterance), ctx.prior[state] * share[inverse[state], utterance]
    )


def _group_sums(values: np.ndarray, key: np.ndarray, n: int) -> np.ndarray:
    """The sum of the rows of ``values`` (one per state, 1-D or 2-D) per
    ``key`` in ``range(n)``; a key without rows sums to zero.

    Floats are one `np.bincount` per column, which adds each group's values
    one at a time in state order, as a state-by-state loop or a running sum
    does.  An exact (``object``) array is added exactly, each sum a
    Fraction; `np.bincount` takes only float weights.
    """
    if values.dtype != object:  # cast: `np.bincount` of no rows gives ints
        columns = values.T if values.ndim == 2 else values[None]
        sums = np.stack([np.bincount(key, weights=c, minlength=n) for c in columns], axis=-1)
        return sums.astype(float, copy=False).reshape(n, *values.shape[1:])
    sums = np.full((n, *values.shape[1:]), Fraction(0), dtype=object)
    np.add.at(sums, key, values)
    return sums


def _on_support(shape, cells, values) -> np.ndarray:
    """An ``object`` array holding ``values`` at ``cells`` and ``Fraction(0)``
    everywhere else."""
    out = np.full(shape, Fraction(0), dtype=object)
    out[cells] = values
    return out


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
    return _listener(ctx, _patterns(ctx)[0], utterance_masses(ctx))


def _speaker_rows(ctx: ScenarioContext, rule: SpeakerRule | None = None) -> np.ndarray:
    """P_S(utterance | state) on each distinct assertability row, in the
    order of `_patterns`.  Read-only, memoised per context and rule."""
    rule = _resolve_rule(ctx, rule)
    return _memoised(ctx, ("speaker", rule), lambda: _compute_speaker(ctx, rule))


def speaker_matrix(
    ctx: ScenarioContext, rule: SpeakerRule | None = None
) -> np.ndarray:
    """P_S(utterance | state) as an (n_states, n_utterances) matrix, a new
    gather of the pattern rows on each call."""
    return _speaker_rows(ctx, rule)[_patterns(ctx)[2]]


def pragmatic_listener_matrix(
    ctx: ScenarioContext, rule: SpeakerRule | None = None
) -> np.ndarray:
    """P_PL(state | utterance) columns; zero columns where no speaker ever
    produces the utterance."""
    return _listener(ctx, _speaker_rows(ctx, rule), surprise_vector(ctx, rule))


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
    mass = utterance_masses(ctx)
    if mass[j] == 0:
        raise ZeroSupportError(
            f"utterance {ctx.utterances[j]} is assertable in no state"
        )
    column = _listener(ctx, _patterns(ctx)[0][:, [j]], mass[[j]])
    return Posterior(ctx, column[:, 0])


def speaker(
    ctx: ScenarioContext,
    state: State | str | int,
    rule: SpeakerRule | None = None,
) -> dict[Utterance, Scalar]:
    """Utterance choice probabilities of a speaker in ``state``."""
    row = _speaker_rows(ctx, rule)[_patterns(ctx)[2][ctx.index_of_state(state)]]
    return dict(zip(ctx.utterances, row.tolist()))


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
    surprise = surprise_vector(ctx, rule)
    if surprise[j] == 0:
        raise ZeroSupportError(f"no speaker ever produces {ctx.utterances[j]}")
    column = _listener(ctx, _speaker_rows(ctx, rule)[:, [j]], surprise[[j]])
    return Posterior(ctx, column[:, 0])


def interpretations(
    ctx: ScenarioContext,
    utterance: Utterance | str,
    rule: SpeakerRule | None = None,
) -> dict[str, Posterior]:
    """The prior, literal listener and pragmatic listener of ``utterance``,
    keyed by stage name."""
    return {
        "prior": prior_posterior(ctx),
        "literal": literal_listener(ctx, utterance),
        "pragmatic": pragmatic_listener(ctx, utterance, rule),
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
    state (such as a column of ``ctx.cells``), added in state order over the
    posterior's support: a state of zero weight adds nothing, whatever its value."""
    (support,) = np.nonzero(post.column)
    terms = post.column[support] * np.take(values, support)
    return _group_sums(terms, np.zeros(len(support), np.intp), 1).tolist()[0]


def relation_posterior(post: Posterior) -> dict[CausalStructure, Scalar]:
    """Posterior mass per causal structure (all five variants listed)."""
    masses = _group_sums(post.column, post.context.relations, len(RELATION_ORDER))
    return dict(zip(RELATION_ORDER, masses.tolist()))
