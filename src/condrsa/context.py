"""Scenario contexts: the unit the pragmatic recursion runs on.

A context bundles weighted world states, the utterance alternatives, the
speaker rationality ``alpha`` and the assertability threshold ``theta``.
Contexts are immutable.  Construction decides the arithmetic once: a
context is *exact* when every number in it is an int or Fraction, and the
engine then computes with exact rational arithmetic; any float anywhere
switches the whole context to the float backend.

Construction also builds every per-state array once, read-only, and the
engine, the analyses and the runner read them instead of the states:

- ``cells``: the (n_states, 4) joint tables in the context's arithmetic,
  an ``object`` array of Fractions (int cells cast) on exact contexts and
  float64 otherwise;
- ``prior``: the (n_states,) prior weights, in the dtype of ``cells``;
- ``relations``: each state's causal structure, as int8 indices into
  `RELATION_ORDER`;
- ``tables``: float64 cells (the same array as ``cells`` on float contexts);
- ``assertability``: the (n_states, n_utterances) bool matrix, decided on
  ``cells``.

Each context also carries a private memo for the engine's results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    RELATION_ORDER,
    ContextError,
    Scalar,
    State,
    is_rational,
    sums_to_one,
)
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

    # per-state arrays (see the module docstring), filled in __post_init__
    cells: np.ndarray = field(init=False, repr=False, compare=False)
    prior: np.ndarray = field(init=False, repr=False, compare=False)
    relations: np.ndarray = field(init=False, repr=False, compare=False)
    tables: np.ndarray = field(init=False, repr=False, compare=False)
    assertability: np.ndarray = field(init=False, repr=False, compare=False)
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

        from . import semantics  # deferred: semantics has no context dependency

        if exact:
            cells = np.array(
                [[Fraction(c) for c in s.table.cells] for s in states], dtype=object
            )
            prior = np.array([Fraction(w) for w in weights], dtype=object)
            tables = cells.astype(float)
            matrix = semantics.bool_matrix_exact(cells, utterances, self.theta)
        else:
            tables = np.array([s.table.as_floats() for s in states], dtype=float)
            cells = tables
            prior = np.array([float(w) for w in weights], dtype=float)
            matrix = semantics.bool_matrix_float(tables, utterances, float(self.theta))
        codes = {r: i for i, r in enumerate(RELATION_ORDER)}
        relations = np.array([codes[s.relation] for s in states], dtype=np.int8)
        semantics.check_all_rows_assertable(matrix, [s.label for s in states])
        for name, array in (
            ("cells", cells), ("prior", prior), ("relations", relations),
            ("tables", tables), ("assertability", matrix),
        ):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

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
