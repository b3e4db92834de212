"""Assertability of utterances in world states.

An utterance is assertable in a state when the relevant probability clears
the context's threshold ``theta``:

==============  =======================================
utterance       assertable iff
==============  =======================================
conjunction     P(first and second)  >= theta
literal         P(literal)           >= theta
conditional     P(consequent | antecedent) >= theta
likely literal  P(literal)           > 1/2
==============  =======================================

A conditional whose antecedent has probability zero is not assertable
(rather than an error), so speakers stay well-defined on degenerate
sampled states.  The probabilities come from `core.query` for one state
and from `core.event_column` for a context's (n, 4) float cells
(`bool_matrix_float`); a negated literal's probability, a negated
antecedent's included, is ``1 - p`` on both paths, so the two agree bit
for bit on float cells too.  Exact contexts are decided on Python ints
(`bool_matrix_exact`): each row's `core.integer_rows` numerators ``k``
over its denominator ``D``, cross-multiplied with ``theta = a / b``, with
``D - k`` for a negated literal and ``j * b >= a * k`` for a conditional
whose joint numerator is ``j``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import A, C, Scalar, State, Var, event_column, query
from .utterances import (
    Conditional,
    Conjunction,
    Likely,
    Lit,
    Literal,
    Utterance,
)


def _literal_probability(table, lit: Lit) -> Scalar:
    # a negated literal is 1 - p, as in `bool_matrix_float` (D - k in
    # `bool_matrix_exact`)
    p = query(table, Lit(lit.var).event())
    return p if lit.positive else 1 - p


def assertable(utterance: Utterance, state: State, theta: Scalar) -> bool:
    """Whether ``utterance`` may be produced in ``state`` at threshold ``theta``."""
    table = state.table
    if isinstance(utterance, Literal):
        return _literal_probability(table, utterance.lit) >= theta
    if isinstance(utterance, Likely):
        # 0.5 is exactly representable, so Fraction comparisons stay exact
        return _literal_probability(table, utterance.lit) > 0.5
    if isinstance(utterance, Conjunction):
        joint = utterance.first.event() & utterance.second.event()
        return query(table, joint) >= theta
    if isinstance(utterance, Conditional):
        den = _literal_probability(table, utterance.antecedent)
        if not den > 0:
            return False
        num = query(table, utterance.antecedent.event() & utterance.consequent.event())
        if isinstance(num, int) and isinstance(den, int):
            num = Fraction(num)  # int / int would be a float
        return num / den >= theta
    raise TypeError(f"not an utterance: {utterance!r}")


def default_utterances(include_reverse_conditionals: bool = True) -> tuple[Utterance, ...]:
    """The balanced utterance set over two variables.

    Four literals, four likely-literals, the four sign-pair conjunctions,
    and conditionals in all sign pairs; ``include_reverse_conditionals``
    controls whether consequent-to-antecedent conditionals (``C -> A``
    etc.) are part of the set, making that ablation a single flag.
    """
    lits = [Lit(v, pos) for v in (Var.A, Var.C) for pos in (True, False)]
    a_pos, a_neg, c_pos, c_neg = lits

    utterances: list[Utterance] = [Literal(l) for l in lits]
    utterances += [Likely(l) for l in lits]
    utterances += [
        Conjunction(first, second)
        for first in (a_pos, a_neg)
        for second in (c_pos, c_neg)
    ]
    utterances += [
        Conditional(ant, cons)
        for ant in (a_pos, a_neg)
        for cons in (c_pos, c_neg)
    ]
    if include_reverse_conditionals:
        utterances += [
            Conditional(ant, cons)
            for ant in (c_pos, c_neg)
            for cons in (a_pos, a_neg)
        ]
    return tuple(utterances)


def bool_matrix_float(
    tables: np.ndarray, utterances: Sequence[Utterance], theta: float
) -> np.ndarray:
    """The `assertable` formulas over the rows of an (n, 4) float64 table of
    cells, one column per utterance."""
    # a negated literal is 1 - p, not the sum of its two cells: the two can
    # differ in floats, and with them a decision at theta
    lit_probs = {}
    for var, event in ((Var.A, A), (Var.C, C)):
        p = event_column(tables, event)
        lit_probs[Lit(var)], lit_probs[Lit(var, False)] = p, 1 - p
    columns = []
    for u in utterances:
        if isinstance(u, Literal):
            columns.append(lit_probs[u.lit] >= theta)
        elif isinstance(u, Likely):
            columns.append(lit_probs[u.lit] > 0.5)
        elif isinstance(u, Conjunction):
            columns.append(event_column(tables, u.first.event() & u.second.event()) >= theta)
        elif isinstance(u, Conditional):
            num = event_column(tables, u.antecedent.event() & u.consequent.event())
            den = lit_probs[u.antecedent]
            ok = den > 0
            col = np.zeros(len(tables), dtype=bool)
            col[ok] = num[ok] / den[ok] >= theta
            columns.append(col)
        else:
            raise TypeError(f"not an utterance: {u!r}")
    return np.stack(columns, axis=1)


def bool_matrix_exact(
    numerators: np.ndarray,
    denominators: np.ndarray,
    utterances: Sequence[Utterance],
    theta: Scalar,
) -> np.ndarray:
    """The `assertable` formulas decided on Python ints, one column per
    utterance, for exact cells given as `core.integer_rows`: an (n, 4)
    ``object`` array of numerators over each row's denominator ``D``.

    A probability ``k / D`` clears ``theta = a / b`` when ``k * b >= a * D``,
    a negated literal's ``k`` is ``D - k`` (``1 - p``), ``likely`` holds when
    ``2 * k > D``, and a conditional with antecedent ``k > 0`` compares its
    joint numerator ``j`` as ``j * b >= a * k``: ``D`` cancels."""
    a, b = theta.numerator, theta.denominator
    bar = a * denominators
    lits = {}
    for var, event in ((Var.A, A), (Var.C, C)):
        k = event_column(numerators, event)
        lits[Lit(var)], lits[Lit(var, False)] = k, denominators - k
    columns = []
    for u in utterances:
        if isinstance(u, Literal):
            columns.append(lits[u.lit] * b >= bar)
        elif isinstance(u, Likely):
            columns.append(2 * lits[u.lit] > denominators)
        elif isinstance(u, Conjunction):
            columns.append(event_column(numerators, u.first.event() & u.second.event()) * b >= bar)
        elif isinstance(u, Conditional):
            joint = event_column(numerators, u.antecedent.event() & u.consequent.event())
            k = lits[u.antecedent]
            columns.append((k > 0) & (joint * b >= a * k))
        else:
            raise TypeError(f"not an utterance: {u!r}")
    return np.stack(columns, axis=1)
