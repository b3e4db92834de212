"""World states for two-proposition communication.

A world state couples a joint probability table over the four truth
assignments to two propositions (called A and C throughout) with a causal
structure that says how, if at all, the two propositions depend on each
other.  Everything in this module is immutable and safe to share across
threads.

Probabilities may be `fractions.Fraction` (exact arithmetic, used by the
hand-built scenarios and their golden values) or `float` (used by Monte
Carlo sampling).  All operations preserve exactness: feeding Fractions in
gets Fractions out.

Event probabilities are read off cells in one place: `query` for one
table and `event_column` for an (n, 4) array of them, both adding an
event's cells in `World` order.  `integer_rows` writes exact cells as
Python ints over each row's common denominator, so that exact checks and
decisions compare integers instead of Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from operator import attrgetter
from typing import Union

import numpy as np

Scalar = Union[int, float, Fraction]

#: how far a float total may deviate from 1 and still count as summing to 1
SUM_TOL = 1e-9


class ModelError(Exception):
    """Base class for all domain errors raised by this package."""


class ProbabilityError(ModelError, ValueError):
    """An input that must be a probability is outside [0, 1]."""


class ZeroProbabilityEventError(ModelError):
    """Conditioning on an event of probability zero.

    Raised instead of silently returning 0 or 1; whether a degenerate
    conditional matters must be decided by the caller.
    """


class ZeroSupportError(ModelError):
    """A listener update on an utterance no state supports."""


class ContextError(ModelError):
    """A scenario context violates a construction invariant."""


class ImpossibleObservationError(ModelError):
    """An observation that has probability zero wherever it is evaluated."""


def is_rational(x: Scalar) -> bool:
    """True if ``x`` participates in exact arithmetic (int or Fraction)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def sums_to(total: Scalar | np.ndarray, target: Scalar | np.ndarray, exact: bool):
    """Whether ``total`` is ``target``: exactly for rationals, within
    `SUM_TOL` for floats; element-wise for arrays."""
    return total == target if exact else abs(total - target) <= SUM_TOL


def check_probability(x: Scalar | np.ndarray, name: str) -> None:
    inside = ((0 <= x) & (x <= 1)).all() if isinstance(x, np.ndarray) else 0 <= x <= 1
    if not inside:
        raise ProbabilityError(f"{name} must lie in [0, 1], got {x!r}")


class Var(Enum):
    """The two propositional variables a state talks about."""

    A = "A"
    C = "C"


class World(IntEnum):
    """The four joint truth assignments to (A, C).

    The integer values fix the storage order of `JointTable` cells and of
    all array representations.
    """

    BOTH = 0      # A true,  C true
    ONLY_A = 1    # A true,  C false
    ONLY_C = 2    # A false, C true
    NEITHER = 3   # A false, C false

    @property
    def a_true(self) -> bool:
        return self in (World.BOTH, World.ONLY_A)

    @property
    def c_true(self) -> bool:
        return self in (World.BOTH, World.ONLY_C)


#: the name of each world in scenario files and output tables, in World order
WORLD_NAMES = ("both", "antecedent_only", "consequent_only", "neither")


@dataclass(frozen=True)
class Event:
    """A Boolean event over {A, C}: a set of worlds.

    Build events from the atoms `A` and `C` with ``&``, ``|`` and ``~``,
    e.g. ``A & ~C`` for "A true and C false".
    """

    worlds: frozenset[World]

    def __and__(self, other: "Event") -> "Event":
        return Event(self.worlds & other.worlds)

    def __or__(self, other: "Event") -> "Event":
        return Event(self.worlds | other.worlds)

    def __invert__(self) -> "Event":
        return Event(frozenset(World) - self.worlds)

    def __contains__(self, world: World) -> bool:
        return world in self.worlds

    def __str__(self) -> str:
        names = {
            frozenset({World.BOTH, World.ONLY_A}): "A",
            frozenset({World.BOTH, World.ONLY_C}): "C",
            frozenset({World.ONLY_C, World.NEITHER}): "~A",
            frozenset({World.ONLY_A, World.NEITHER}): "~C",
        }
        if self.worlds in names:
            return names[self.worlds]
        return "{" + ", ".join(w.name for w in sorted(self.worlds)) + "}"


#: atomic events: "A is true" and "C is true"
A = Event(frozenset(w for w in World if w.a_true))
C = Event(frozenset(w for w in World if w.c_true))


def event_for(var: Var, positive: bool = True) -> Event:
    """The event that ``var`` has truth value ``positive``."""
    base = A if var is Var.A else C
    return base if positive else ~base


class CausalStructure(Enum):
    """How the two propositions relate.

    The four dependent variants name the cause direction and whether the
    truth or the falsity of the cause promotes the effect:

    - ``AC_POS``: truth of A raises the probability that C is true.
    - ``AC_NEG``: falsity of A raises the probability that C is true.
    - ``CA_POS``: truth of C raises the probability that A is true.
    - ``CA_NEG``: falsity of C raises the probability that A is true.
    """

    INDEPENDENT = "independent"
    AC_POS = "AC_pos"
    AC_NEG = "AC_neg"
    CA_POS = "CA_pos"
    CA_NEG = "CA_neg"

    @property
    def is_dependent(self) -> bool:
        return self is not CausalStructure.INDEPENDENT

    @property
    def cause(self) -> Var | None:
        """The cause variable, or None for the independent structure."""
        if self in (CausalStructure.AC_POS, CausalStructure.AC_NEG):
            return Var.A
        if self in (CausalStructure.CA_POS, CausalStructure.CA_NEG):
            return Var.C
        return None

    @property
    def effect(self) -> Var | None:
        cause = self.cause
        if cause is None:
            return None
        return Var.C if cause is Var.A else Var.A

    @property
    def cause_is_positive(self) -> bool | None:
        """Whether the *truth* (rather than falsity) of the cause promotes the effect."""
        if not self.is_dependent:
            return None
        return self in (CausalStructure.AC_POS, CausalStructure.CA_POS)


#: canonical order of causal structures: array encodings, output tables and
#: the prior's draw order (part of the sampling determinism contract)
RELATION_ORDER: tuple[CausalStructure, ...] = (
    CausalStructure.INDEPENDENT,
    CausalStructure.AC_POS,
    CausalStructure.AC_NEG,
    CausalStructure.CA_POS,
    CausalStructure.CA_NEG,
)
#: the output name of each causal structure, indexed by relation code
RELATION_NAMES = [relation.value for relation in RELATION_ORDER]


@dataclass(frozen=True)
class JointTable:
    """A probability distribution over the four worlds.

    ``cells`` is indexed by `World`, i.e. ordered
    ``(P(a, c), P(a, ~c), P(~a, c), P(~a, ~c))``.
    """

    cells: tuple[Scalar, Scalar, Scalar, Scalar]

    def __post_init__(self) -> None:
        if len(self.cells) != 4:
            raise ProbabilityError("a joint table needs exactly four cells")
        for world, cell in zip(World, self.cells):
            check_probability(cell, f"cell {world.name}")
        total = sum(self.cells)
        if not sums_to(total, 1, self.exact):
            raise ProbabilityError(f"table cells must sum to 1, got {total}")

    @property
    def exact(self) -> bool:
        return all(is_rational(c) for c in self.cells)

    def cell(self, world: World) -> Scalar:
        return self.cells[world]


def query(table: JointTable, event: Event, given: Event | None = None) -> Scalar:
    """Marginal or conditional probability of ``event`` under ``table``.

    Conditioning on an event of probability zero raises
    `ZeroProbabilityEventError`; it never silently returns 0.
    """
    if given is None:
        # fixed summation order keeps float results reproducible
        return sum(table.cells[w] for w in sorted(event.worlds))
    p_given = sum(table.cells[w] for w in sorted(given.worlds))
    if p_given == 0:
        raise ZeroProbabilityEventError(
            f"cannot condition on zero-probability event {given}"
        )
    p_joint = sum(table.cells[w] for w in sorted((event & given).worlds))
    if isinstance(p_joint, int) and isinstance(p_given, int):
        return Fraction(p_joint, p_given)  # int / int would be a float
    return p_joint / p_given


def event_column(cells: np.ndarray, event: Event) -> np.ndarray:
    """P(``event``) in every row of an (n, 4) array of cells, in its dtype:
    the vector twin of `query`, adding the cells in the same order."""
    return sum((cells[:, w] for w in sorted(event.worlds)), np.zeros(len(cells), cells.dtype))


_numerators = np.frompyfunc(attrgetter("numerator"), 1, 1)
_denominators = np.frompyfunc(attrgetter("denominator"), 1, 1)


def integer_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An ``object`` array of ints and Fractions as Python ints over common
    denominators, one per row of its last axis: ``(numerators,
    denominators)`` with ``values == numerators / denominators[..., None]``
    and each denominator the least common one of its row.  A 1-D array is
    one row, and its denominator a 0-d array."""
    denominators = _denominators(values)
    common = np.lcm.reduce(denominators, axis=-1, keepdims=True)
    return _numerators(values) * (common // denominators), common[..., 0]


def product_cells(pa: Scalar, pc: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """Cells of the product table of two independent marginals P(a) and
    P(c), in `World` order; scalars, or arrays giving one table per entry."""
    check_probability(pa, "pa")
    check_probability(pc, "pc")
    return (pa * pc, pa * (1 - pc), (1 - pa) * pc, (1 - pa) * (1 - pc))


def joint_from_marginals(pa: Scalar, pc: Scalar) -> JointTable:
    """Product table of two independent marginals P(a) and P(c)."""
    return JointTable(product_cells(pa, pc))


def noisy_or_effect_probability(tau: Scalar, beta: Scalar) -> Scalar:
    """P(effect | cause present) when the cause has power ``tau`` and
    background causes have power ``beta``: ``1 - (1-tau)(1-beta)``."""
    check_probability(tau, "tau")
    check_probability(beta, "beta")
    return tau + beta - tau * beta


def noisy_or_cells(
    relation: CausalStructure, upsilon_p: Scalar, tau: Scalar, beta: Scalar
) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """Cells, in `World` order, of the joint table entailed by a leaky
    noisy-or link for a dependent relation; scalars, or arrays giving one
    table per entry.

    ``upsilon_p`` is the prior probability that the cause condition holds
    (the cause variable is true for positive variants, false for negative
    ones), ``tau`` the causal power, and ``beta`` the power of unmodelled
    background causes.  The conditional probability of the effect when the
    cause condition holds is ``tau + beta - tau*beta``; when it does not
    hold, the effect occurs with probability ``beta``.
    """
    if not relation.is_dependent:
        raise ProbabilityError("the independent structure has no noisy-or link")
    check_probability(upsilon_p, "upsilon_p")
    upsilon_c = noisy_or_effect_probability(tau, beta)

    # P(cause variable true), P(effect | cause var true), P(effect | cause var false)
    if relation.cause_is_positive:
        p_cause_true, p_eff_t, p_eff_f = upsilon_p, upsilon_c, beta
    else:
        p_cause_true, p_eff_t, p_eff_f = 1 - upsilon_p, beta, upsilon_c

    tt = p_cause_true * p_eff_t          # cause var true,  effect true
    tf = p_cause_true * (1 - p_eff_t)    # cause var true,  effect false
    ft = (1 - p_cause_true) * p_eff_f    # cause var false, effect true
    ff = (1 - p_cause_true) * (1 - p_eff_f)

    if relation.cause is Var.A:
        return (tt, tf, ft, ff)
    return (tt, ft, tf, ff)  # cause is C: swap the roles of the two variables


def joint_from_noisy_or(
    relation: CausalStructure, upsilon_p: Scalar, tau: Scalar, beta: Scalar
) -> JointTable:
    """Joint table entailed by a leaky noisy-or link (see `noisy_or_cells`)."""
    return JointTable(noisy_or_cells(relation, upsilon_p, tau, beta))


@dataclass(frozen=True)
class State:
    """A world state: a joint table plus the causal structure behind it."""

    table: JointTable
    relation: CausalStructure = CausalStructure.INDEPENDENT
    label: str | None = None
