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
sampled states.  `assertable` decides one state through `core.query`; a
context's matrix has one body, `_assertability`, over (n, 4) counts and
their totals, with `core.event_column` adding each event's count ``k``.
A negated literal's count is ``total - k`` (``1 - p`` on both paths, so
the two agree bit for bit on float cells), ``likely`` needs
``2 * k > total``, and a conditional needs an antecedent count ``k > 0``.
Only the test against theta takes the arithmetic: `bool_matrix_float`
divides float cells over a total of 1, and `bool_matrix_exact`
cross-multiplies `core.integer_rows` numerators and denominators with
``theta = a / b``.
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
    # a negated literal is 1 - p, as in `_assertability`
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
    cells, one column per utterance; the cells are counts over a total of 1."""

    def clears(num, den):  # divides only where den > 0: no floating-point warning
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0) >= theta

    return _assertability(tables, 1.0, utterances, clears)


def bool_matrix_exact(
    numerators: np.ndarray,
    denominators: np.ndarray,
    utterances: Sequence[Utterance],
    theta: Scalar,
) -> np.ndarray:
    """The `assertable` formulas decided on Python ints, one column per
    utterance, for exact cells given as `core.integer_rows` numerators over
    each row's denominator: ``k / d`` clears ``theta = a / b`` when ``k * b >= a * d``."""
    a, b = theta.numerator, theta.denominator
    return _assertability(numerators, denominators, utterances, lambda k, d: k * b >= a * d)


def _assertability(counts, totals, utterances: Sequence[Utterance], clears) -> np.ndarray:
    """The `assertable` formulas on (n, 4) ``counts`` over their ``totals``,
    one column per utterance; ``clears(num, den)`` tells whether ``num /
    den >= theta`` (see the module docstring)."""
    lits = {}
    for var, event in ((Var.A, A), (Var.C, C)):
        k = event_column(counts, event)
        lits[Lit(var)], lits[Lit(var, False)] = k, totals - k
    columns = []
    for u in utterances:
        if isinstance(u, Literal):
            columns.append(clears(lits[u.lit], totals))
        elif isinstance(u, Likely):
            columns.append(2 * lits[u.lit] > totals)
        elif isinstance(u, Conjunction):
            columns.append(clears(event_column(counts, u.first.event() & u.second.event()), totals))
        elif isinstance(u, Conditional):
            joint = event_column(counts, u.antecedent.event() & u.consequent.event())
            k = lits[u.antecedent]
            columns.append((k > 0) & clears(joint, k))
        else:
            raise TypeError(f"not an utterance: {u!r}")
    return np.stack(columns, axis=1)
