"""Scenario contexts: the unit the pragmatic recursion runs on.

A context bundles weighted world states, the utterance alternatives, the
speaker rationality ``alpha`` and the assertability threshold ``theta``.
Contexts are immutable; derived arrays (float tables, weights, the
assertability matrix) are computed once at construction and cached, and
each context carries a private memo for the engine's results.

A context is *exact* when every number in it is an int or Fraction; the
engine then computes with exact rational arithmetic.  Any float anywhere
switches the whole context to the float backend.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ContextError, Scalar, State, is_rational, sums_to_one
from .utterances import Utterance


@dataclass(frozen=True)
class ScenarioContext:
    states: tuple[State, ...]
    weights: tuple[Scalar, ...]
    utterances: tuple[Utterance, ...]
    alpha: Scalar
    theta: Scalar

    #: whether every number is an int or Fraction, decided at construction
    exact: bool = field(init=False, repr=False, compare=False)

    # caches, filled in __post_init__
    _tables: np.ndarray = field(init=False, repr=False, compare=False)
    _weight_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _assertability: np.ndarray = field(init=False, repr=False, compare=False)
    #: the engine's per-context results (read-only arrays), filled lazily
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        states = tuple(self.states)
        weights = tuple(self.weights)
        utterances = tuple(self.utterances)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "utterances", utterances)

        if not states:
            raise ContextError("a context needs at least one state")
        if len(weights) != len(states):
            raise ContextError("one prior weight per state required")
        if not utterances:
            raise ContextError("a context needs at least one utterance")
        if len(set(utterances)) != len(utterances):
            raise ContextError("duplicate utterances in the alternative set")
        if not 0.5 < self.theta <= 1:
            raise ContextError(f"theta must lie in (0.5, 1], got {self.theta!r}")
        if self.alpha < 0:
            raise ContextError(f"alpha must be nonnegative, got {self.alpha!r}")
        for w in weights:
            if w < 0:
                raise ContextError(f"prior weights must be nonnegative, got {w!r}")
        exact = all(is_rational(x) for x in (self.alpha, self.theta, *weights)) and all(
            s.table.exact for s in states
        )
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_memo", {})
        total = sum(weights)
        if not sums_to_one(total, exact):
            raise ContextError(f"prior weights must sum to 1, got {total}")

        tables = np.array([s.table.as_floats() for s in states], dtype=float)
        weight_arr = np.array([float(w) for w in weights], dtype=float)
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "_weight_arr", weight_arr)

        from . import semantics  # deferred: semantics has no context dependency

        if exact:
            matrix = semantics.bool_matrix_exact(states, utterances, self.theta)
        else:
            matrix = semantics.bool_matrix_float(tables, utterances, float(self.theta))
        semantics.check_all_rows_assertable(matrix, [s.label for s in states])
        matrix.setflags(write=False)
        object.__setattr__(self, "_assertability", matrix)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_unnormalized(
        cls,
        states: Sequence[State],
        weights: Sequence[Scalar],
        utterances: Sequence[Utterance],
        alpha: Scalar,
        theta: Scalar,
    ) -> "ScenarioContext":
        """Build a context from nonnegative weights of any positive total.

        Listener outputs depend on weights only up to a positive factor, so
        normalizing here is behaviour-preserving.
        """
        total = sum(weights)
        if total <= 0:
            raise ContextError("prior weights must have positive total")
        return cls(
            states=tuple(states),
            weights=tuple(w / total for w in weights),
            utterances=tuple(utterances),
            alpha=alpha,
            theta=theta,
        )

    def with_params(
        self, alpha: Scalar | None = None, theta: Scalar | None = None
    ) -> "ScenarioContext":
        """The same states and utterances under different model parameters."""
        return dataclasses.replace(
            self,
            alpha=self.alpha if alpha is None else alpha,
            theta=self.theta if theta is None else theta,
        )

    # -- simple queries --------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def tables(self) -> np.ndarray:
        """Float view of all joint tables, shape (n_states, 4), read-only."""
        view = self._tables.view()
        view.setflags(write=False)
        return view

    @property
    def weight_array(self) -> np.ndarray:
        view = self._weight_arr.view()
        view.setflags(write=False)
        return view

    @property
    def assertability(self) -> np.ndarray:
        """Bool matrix (n_states, n_utterances), computed at construction."""
        return self._assertability

    def index_of_state(self, state: State | str) -> int:
        if isinstance(state, str):
            for i, s in enumerate(self.states):
                if s.label == state:
                    return i
            raise KeyError(f"no state labelled {state!r}")
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
