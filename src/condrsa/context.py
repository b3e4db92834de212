"""Scenario contexts: the unit the pragmatic recursion runs on.

A context is its per-state arrays, ``cells`` ((n_states, 4) joint tables in
`World` order), ``prior``, ``relations`` (int8 indices into
`RELATION_ORDER`) and ``labels`` (None where a state has none), plus the
utterance alternatives, the rationality ``alpha`` and the threshold
``theta``.  It is immutable, and ``__post_init__`` is its one construction
body: the context is *exact* when ``cells`` and ``prior`` are ``object``
arrays of ints and Fractions, ``theta`` is rational and ``alpha`` an integer
(it then holds Fractions, ints cast); otherwise the arrays are cast to
float64 and ``alpha`` and ``theta`` to float.  Nothing downstream converts
it to the other arithmetic.  It validates once, vectorised, keeps read-only
copies, and adds the bool ``assertability`` matrix.  Validation and
assertability are decided before any cast, in exact arithmetic whenever the
cells, the prior and ``theta`` are rational, so they never depend on
``alpha``: only the soft-max needs an integer ``alpha`` to stay exact.  Both
arithmetics check and decide one pair of counts and totals: exact cells
as Python-int numerators over each row's common denominator
(`core.integer_rows`) and the prior over one, float cells and prior over
a total of 1.  Counts lie in ``[0, total]`` and sum to their totals
(`core.sums_to`), and `semantics` decides each row.  The integers are
dropped after construction; ``cells`` and ``prior`` hold Fractions, each
input Fraction kept and each int cast.
The engine, the analyses and the runner read only these arrays.  Hand-built
scenarios lower their `State` objects with `from_states`; sampled contexts
never hold one, and the ``states`` and ``weights`` views are rebuilt from
the arrays on first use.  Each context also carries a private memo for the
engine's arrays and for the record of its analyses
(`analysis.context_analyses`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    RELATION_ORDER,
    ContextError,
    JointTable,
    Scalar,
    State,
    integer_rows,
    is_rational,
    sums_to,
)
from .utterances import Utterance

#: an ``object`` array's ints as Fractions, each Fraction kept as it is
_as_fraction = np.frompyfunc(lambda x: x if type(x) is Fraction else Fraction(x), 1, 1)


@dataclass(frozen=True, eq=False)
class ScenarioContext:
    cells: np.ndarray
    prior: np.ndarray
    relations: np.ndarray
    utterances: tuple[Utterance, ...]
    alpha: Scalar
    theta: Scalar
    labels: tuple[str | None, ...] | None = None

    #: whether every number is an int or Fraction and alpha an integer,
    #: decided at construction
    exact: bool = field(init=False, repr=False)
    assertability: np.ndarray = field(init=False, repr=False)
    #: the engine's per-context arrays (read-only) and the analyses record,
    #: filled lazily
    _memo: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cells, prior = np.asarray(self.cells), np.asarray(self.prior)
        relations = np.array(self.relations, dtype=np.int8)
        utterances = tuple(self.utterances)
        n = len(cells)
        labels = (None,) * n if self.labels is None else tuple(self.labels)

        if n == 0:
            raise ContextError("a context needs at least one state")
        if (cells.shape, prior.shape, relations.shape, len(labels)) != ((n, 4), (n,), (n,), n):
            raise ContextError(
                "one row of four cells, one prior weight, one relation and "
                "one label per state required"
            )
        if not np.isin(relations, range(len(RELATION_ORDER))).all():
            raise ContextError("relation codes must index RELATION_ORDER")
        if not utterances:
            raise ContextError("a context needs at least one utterance")
        if len(set(utterances)) != len(utterances):
            raise ContextError("duplicate utterances in the alternative set")
        for name, value in (("alpha", self.alpha), ("theta", self.theta)):
            if isinstance(value, (bool, np.bool_)):  # True would pass as 1
                raise ContextError(f"{name} must be a number, not a bool, got {value!r}")
        if not 0.5 < self.theta <= 1:
            raise ContextError(f"theta must lie in (0.5, 1], got {self.theta!r}")
        if not 0 <= self.alpha < math.inf:
            raise ContextError(f"alpha must be finite and nonnegative, got {self.alpha!r}")

        # the semantics is exact when the cells, the prior and theta are
        # rational, and the soft-max when alpha is also an integer: a
        # rational table's assertability never depends on alpha
        alpha, theta = self.alpha, self.theta
        rational = cells.dtype == prior.dtype == object and all(
            map(is_rational, (theta, *cells.flat, *prior))
        )
        exact = rational and is_rational(alpha) and Fraction(alpha).denominator == 1
        if rational:
            # checked and decided on Python ints over common denominators
            cells, prior = (_as_fraction(a) for a in (cells, prior))
            (counts, totals), (weights, weight_total) = map(integer_rows, (cells, prior))
        else:
            cells, prior = np.array(cells, dtype=float), np.array(prior, dtype=float)
            theta = float(theta)
            counts, totals, weights, weight_total = cells, 1.0, prior, 1.0
        inside = ((0 <= counts.T) & (counts.T <= totals)).all()
        if not (inside and np.all(sums_to(counts.sum(axis=1), totals, rational))):
            raise ContextError("the cells of each state must lie in [0, 1] and sum to 1")
        if (weights < 0).any():
            raise ContextError(f"prior weights must be nonnegative, got {prior.min()}")
        if not sums_to(weights.sum(), weight_total, rational):
            raise ContextError(f"prior weights must sum to 1, got {prior.sum()}")

        from . import semantics  # deferred: semantics has no context dependency

        if rational:
            matrix = semantics.bool_matrix_exact(counts, totals, utterances, theta)
        else:
            matrix = semantics.bool_matrix_float(cells, utterances, theta)
        unsupported = np.flatnonzero(~matrix.any(axis=1))
        if unsupported.size:
            i = int(unsupported[0])
            label = labels[i] if labels[i] is not None else f"state #{i}"
            raise ContextError(
                f"{label} has no assertable utterance; every state must support "
                f"at least one utterance ({unsupported.size} offending state(s))"
            )

        if not exact:
            cells, prior = (a.astype(float, copy=False) for a in (cells, prior))
            alpha, theta = float(alpha), float(theta)
        for array in (cells, prior, relations, matrix):
            array.setflags(write=False)
        for name, value in dict(
            cells=cells, prior=prior, relations=relations, utterances=utterances,
            alpha=alpha, theta=theta, labels=labels, exact=exact,
            assertability=matrix, _memo={},
        ).items():
            object.__setattr__(self, name, value)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_states(
        cls,
        states: Sequence[State],
        weights: Sequence[Scalar],
        utterances: Sequence[Utterance],
        alpha: Scalar,
        theta: Scalar,
    ) -> "ScenarioContext":
        """Lower `State` objects and their prior weights to a context."""
        return cls(
            cells=np.array([s.table.cells for s in states], dtype=object),
            prior=np.array(weights, dtype=object),
            relations=[RELATION_ORDER.index(s.relation) for s in states],
            labels=[s.label for s in states],
            utterances=utterances,
            alpha=alpha,
            theta=theta,
        )

    @classmethod
    def from_unnormalized(
        cls,
        states: Sequence[State],
        weights: Sequence[Scalar],
        utterances: Sequence[Utterance],
        alpha: Scalar,
        theta: Scalar,
    ) -> "ScenarioContext":
        """`from_states` for nonnegative weights of any positive total: listener
        outputs depend on weights only up to a positive factor."""
        total = sum(weights)
        if total <= 0:
            raise ContextError("prior weights must have positive total")
        return cls.from_states(
            states, [w / total for w in weights], utterances, alpha, theta
        )

    def with_params(
        self, alpha: Scalar | None = None, theta: Scalar | None = None
    ) -> "ScenarioContext":
        """The same states and utterances under different model parameters;
        a float ``alpha`` or ``theta``, or a non-integer ``alpha``, gives a
        float context."""
        return dataclasses.replace(
            self,
            alpha=self.alpha if alpha is None else alpha,
            theta=self.theta if theta is None else theta,
        )

    # -- views rebuilt from the arrays on first use ----------------------------

    @cached_property
    def states(self) -> tuple[State, ...]:
        return tuple(
            State(JointTable(tuple(row)), RELATION_ORDER[code], label)
            for row, code, label in zip(
                self.cells.tolist(), self.relations.tolist(), self.labels
            )
        )

    @cached_property
    def weights(self) -> tuple[Scalar, ...]:
        return tuple(self.prior.tolist())

    # -- simple queries --------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.cells)

    def index_of_state(self, state: State | str | int) -> int:
        """The index of a `State`, a state label, or an index itself: an int
        or numpy integer in ``range(n_states)``."""
        if isinstance(state, (bool, np.bool_)):  # True would pass as 1
            raise TypeError(f"a state index must be an integer, not a bool, got {state!r}")
        if isinstance(state, (int, np.integer)):
            if not 0 <= state < self.n_states:
                raise IndexError(f"state index {state} is outside range({self.n_states})")
            return int(state)
        if isinstance(state, str):
            if state not in self.labels:
                raise KeyError(f"no state labelled {state!r}")
            return self.labels.index(state)
        return self.states.index(state)

    def index_of_utterance(self, utterance: Utterance | str) -> int:
        if isinstance(utterance, str):
            # canonical A/C syntax; scenario-specific variable names are
            # resolved by ScenarioDefinition.parse before the lookup
            for i, u in enumerate(self.utterances):
                if str(u) == utterance:
                    return i
            from .utterances import parse_utterance

            try:
                parsed = parse_utterance(utterance)
            except ValueError:
                raise KeyError(f"no utterance {utterance!r}") from None
            if parsed in self.utterances:
                return self.utterances.index(parsed)
            raise KeyError(f"no utterance {utterance!r}")
        return self.utterances.index(utterance)
