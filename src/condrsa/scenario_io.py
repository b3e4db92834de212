"""Reading and writing scenario definition files.

Scenario files are JSON; the full schema is documented in
``docs/scenario-format.md``.  Probabilities may be written as JSON numbers
(floats) or as strings holding exact rationals (``"1/2"``, ``"0.95"``);
string and integer inputs evaluate in exact arithmetic end to end.

Every state gives its joint distribution in exactly one of three ways: an
explicit four-cell ``table``, independent ``marginals``, or a ``noisy_or``
parameter triple together with a dependent ``relation``.

The built-in scenarios are such files, shipped in ``scenario_files`` and
read by `builtin`; their numbers are string rationals, so the published
fractions reproduce bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import (
    WORLD_NAMES,
    CausalStructure,
    ContextError,
    JointTable,
    ModelError,
    ProbabilityError,
    Scalar,
    State,
    Var,
    joint_from_marginals,
    joint_from_noisy_or,
)
from .scenarios import ObservationLink, ScenarioDefinition
from .utterances import Utterance, parse_utterance


class ScenarioFormatError(ModelError):
    """A scenario file violates the schema; the message names the field."""


def _fail(path: str, message: str) -> "ScenarioFormatError":
    return ScenarioFormatError(f"{path}: {message}")


def _require(data: dict, key: str, path: str) -> Any:
    if key not in data:
        raise _fail(path, f"missing required field {key!r}")
    return data[key]


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_number(value: Any, path: str) -> Scalar:
    """Numbers: JSON ints and floats pass through; strings parse as exact
    rationals."""
    if isinstance(value, bool):
        raise _fail(path, "expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise _fail(path, f"cannot parse {value!r} as a rational number") from None
    raise _fail(path, f"expected a number, got {type(value).__name__}")


def _parse_state(
    data: Any, path: str, index: int
) -> tuple[State, Scalar]:
    if not isinstance(data, dict):
        raise _fail(path, "each state must be an object")
    label = data.get("label", f"state{index}")
    if not isinstance(label, str):
        raise _fail(f"{path}.label", "must be a string")

    relation_name = data.get("relation", CausalStructure.INDEPENDENT.value)
    try:
        relation = CausalStructure(relation_name)
    except ValueError:
        known = ", ".join(r.value for r in CausalStructure)
        raise _fail(f"{path}.relation", f"unknown relation {relation_name!r} (known: {known})") from None

    weight = _as_number(_require(data, "weight", path), f"{path}.weight")

    sources = [k for k in ("table", "marginals", "noisy_or") if k in data]
    if len(sources) != 1:
        raise _fail(path, "exactly one of 'table', 'marginals' or 'noisy_or' required")
    source = sources[0]
    spec = data[source]
    if not isinstance(spec, dict):
        raise _fail(f"{path}.{source}", "must be an object")

    try:
        if source == "table":
            cells = tuple(
                _as_number(_require(spec, key, f"{path}.table"), f"{path}.table.{key}")
                for key in WORLD_NAMES
            )
            table = JointTable(cells)
        elif source == "marginals":
            if relation.is_dependent:
                raise _fail(f"{path}.relation",
                            "'marginals' states must use the independent relation")
            pa = _as_number(_require(spec, "antecedent", f"{path}.marginals"),
                            f"{path}.marginals.antecedent")
            pc = _as_number(_require(spec, "consequent", f"{path}.marginals"),
                            f"{path}.marginals.consequent")
            table = joint_from_marginals(pa, pc)
        else:
            if not relation.is_dependent:
                raise _fail(f"{path}.relation",
                            "'noisy_or' states need a dependent relation")
            upsilon_p = _as_number(_require(spec, "upsilon_p", f"{path}.noisy_or"),
                                   f"{path}.noisy_or.upsilon_p")
            tau = _as_number(_require(spec, "tau", f"{path}.noisy_or"),
                             f"{path}.noisy_or.tau")
            beta = _as_number(_require(spec, "beta", f"{path}.noisy_or"),
                              f"{path}.noisy_or.beta")
            table = joint_from_noisy_or(relation, upsilon_p, tau, beta)
    except ProbabilityError as exc:
        raise _fail(f"{path}.{source}", str(exc)) from None

    return State(table, relation, label), weight


def _parse_observation(data: Any, path: str, names: dict[str, Var]) -> ObservationLink:
    if not isinstance(data, dict):
        raise _fail(path, "must be an object")
    mediator_name = _as_str(_require(data, "mediator", path), f"{path}.mediator")
    if mediator_name not in names:
        known = ", ".join(sorted(names))
        raise _fail(f"{path}.mediator", f"unknown variable {mediator_name!r} (known: {known})")
    observed = data.get("observed", True)
    if not isinstance(observed, bool):
        raise _fail(f"{path}.observed", "must be a boolean")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise _fail(f"{path}.label", "must be a string")
    p_true = _as_number(_require(data, "prob_given_true", path), f"{path}.prob_given_true")
    p_false = _as_number(_require(data, "prob_given_false", path), f"{path}.prob_given_false")
    for name, p in (("prob_given_true", p_true), ("prob_given_false", p_false)):
        if not 0 <= p <= 1:
            raise _fail(f"{path}.{name}", f"must lie in [0, 1], got {p}")
    return ObservationLink(
        mediator=names[mediator_name],
        p_obs_given_true=p_true,
        p_obs_given_false=p_false,
        observed=observed,
        label=label,
    )


def parse_scenario_dict(data: Any, source: str = "<scenario>") -> ScenarioDefinition:
    if not isinstance(data, dict):
        raise _fail(source, "the top level must be an object")

    name = _as_str(_require(data, "name", source), "name")
    variables = _require(data, "variables", source)
    if not isinstance(variables, dict):
        raise _fail("variables", "must be an object")
    antecedent = _as_str(_require(variables, "antecedent", "variables"), "variables.antecedent")
    consequent = _as_str(_require(variables, "consequent", "variables"), "variables.consequent")
    if antecedent == consequent:
        raise _fail("variables", "antecedent and consequent need distinct names")
    by_name = {antecedent: Var.A, consequent: Var.C}

    alpha = _as_number(_require(data, "alpha", source), "alpha")
    if not 0 <= alpha < math.inf:
        raise _fail("alpha", f"must be finite and nonnegative, got {alpha}")
    theta = _as_number(_require(data, "theta", source), "theta")
    if not 0.5 < theta <= 1:
        raise _fail("theta", f"must lie in (0.5, 1], got {theta}")

    utt_texts = _require(data, "utterances", source)
    if not isinstance(utt_texts, list) or not utt_texts:
        raise _fail("utterances", "must be a non-empty list of utterance strings")
    var_names = {Var.A: antecedent, Var.C: consequent}
    utterances: list[Utterance] = []
    for i, text in enumerate(utt_texts):
        try:
            utterances.append(parse_utterance(_as_str(text, f"utterances[{i}]"), var_names))
        except ValueError as exc:
            raise _fail(f"utterances[{i}]", str(exc)) from None

    states_data = _require(data, "states", source)
    if not isinstance(states_data, list) or not states_data:
        raise _fail("states", "must be a non-empty list")
    states: list[State] = []
    weights: list[Scalar] = []
    for i, item in enumerate(states_data):
        state, weight = _parse_state(item, f"states[{i}]", i)
        states.append(state)
        weights.append(weight)
    labels = [s.label for s in states]
    if len(set(labels)) != len(labels):
        duplicate = next(l for l in labels if labels.count(l) > 1)
        raise _fail("states", f"duplicate state label {duplicate!r}")

    observation = None
    if "observation" in data:
        observation = _parse_observation(data["observation"], "observation", by_name)

    glosses = data.get("glosses", {})
    if not isinstance(glosses, dict):
        raise _fail("glosses", "must be an object")

    definition = ScenarioDefinition(
        name=name,
        antecedent_name=antecedent,
        consequent_name=consequent,
        states=tuple(states),
        weights=tuple(weights),
        utterances=tuple(utterances),
        alpha=alpha,
        theta=theta,
        observation=observation,
        description=_as_str(data.get("description", ""), "description"),
        antecedent_gloss=_as_str(glosses.get("antecedent", ""), "glosses.antecedent"),
        consequent_gloss=_as_str(glosses.get("consequent", ""), "glosses.consequent"),
    )

    # lower now so context invariants (prior weights summing to 1, a state
    # without any assertable utterance) surface at parse time, with the
    # label; the definition keeps the context for the run
    try:
        definition.to_context()
    except ContextError as exc:
        raise ScenarioFormatError(f"states: {exc}") from None
    return definition


def parse_scenario_file(path: str | Path) -> ScenarioDefinition:
    """Parse and fully validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return parse_scenario_dict(data, source=str(path))


BUILTIN_NAMES = ("toy", "skiing", "garden_party", "sundowners")


def builtin(name: str) -> ScenarioDefinition:
    """One of the built-in scenarios, parsed from its file in
    ``scenario_files``: toy, skiing, garden_party, sundowners."""
    if name not in BUILTIN_NAMES:
        known = ", ".join(BUILTIN_NAMES)
        raise KeyError(f"unknown scenario {name!r} (built-ins: {known})")
    return parse_scenario_file(Path(__file__).with_name("scenario_files") / f"{name}.json")


def _skiing_uncertain_trip() -> ScenarioDefinition:
    skiing = builtin("skiing")
    dep, ind = skiing.states
    ind = replace(ind, table=joint_from_marginals(Fraction(1, 5), Fraction(91, 100)))
    return replace(skiing, name="skiing_uncertain_trip", states=(dep, ind))


#: variant of the skiing scenario whose independent state has P(S) = 0.91
#: instead of 1; assertability and all reported results are identical at
#: theta = 0.9, so both fixtures are kept
SKIING_UNCERTAIN_TRIP_VARIANT = _skiing_uncertain_trip()


def _number_to_json(x: Scalar) -> Any:
    if isinstance(x, Fraction):
        return str(x)
    return x


def scenario_to_dict(definition: ScenarioDefinition) -> dict:
    """Inverse of `parse_scenario_dict` (up to numeric representation)."""
    names = definition.variable_names
    data: dict[str, Any] = {
        "name": definition.name,
        "variables": {
            "antecedent": definition.antecedent_name,
            "consequent": definition.consequent_name,
        },
        "alpha": _number_to_json(definition.alpha),
        "theta": _number_to_json(definition.theta),
        "utterances": [u.format(names) for u in definition.utterances],
        "states": [
            {
                "label": s.label,
                "relation": s.relation.value,
                "weight": _number_to_json(w),
                "table": {
                    key: _number_to_json(cell)
                    for key, cell in zip(WORLD_NAMES, s.table.cells)
                },
            }
            for s, w in zip(definition.states, definition.weights)
        ],
    }
    if definition.description:
        data["description"] = definition.description
    if definition.antecedent_gloss or definition.consequent_gloss:
        data["glosses"] = {}
        if definition.antecedent_gloss:
            data["glosses"]["antecedent"] = definition.antecedent_gloss
        if definition.consequent_gloss:
            data["glosses"]["consequent"] = definition.consequent_gloss
    if definition.observation is not None:
        link = definition.observation
        data["observation"] = {
            "mediator": names[link.mediator],
            "prob_given_true": _number_to_json(link.p_obs_given_true),
            "prob_given_false": _number_to_json(link.p_obs_given_false),
            "observed": link.observed,
        }
        if link.label:
            data["observation"]["label"] = link.label
    return data


def write_scenario_file(definition: ScenarioDefinition, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(definition), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
