"""In-memory spans around the public functions of each condrsa layer.

The traced run wraps functions from the outside, so the program itself is
unchanged.  A wrapper replaces the function at every module attribute that
refers to it, because callers resolve names differently: ``runner`` imports
``sample_default_states`` and ``write_bundle`` by name, while it calls the
engine through ``engine.<name>``.  Methods are wrapped on their class, which
covers every construction path (``ScenarioContext.__post_init__`` runs for
direct construction, ``with_params`` and ``to_context`` alike).

Each span records its layer, function name, start, end, parent span and
request (the top-level ``runner.run`` call it belongs to).  A layer's self
time is the duration of its spans minus the part of each span that its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    request: int


#: (layer, module, attribute) for every wrapped module-level function; a
#: dotted attribute names a method on a class of that module
TRACED = (
    ("default_context", "condrsa.default_context", "sample_default_states"),
    ("scenario_io", "condrsa.scenario_io", "parse_scenario_file"),
    ("context", "condrsa.context", "ScenarioContext.__post_init__"),
    ("semantics", "condrsa.semantics", "bool_matrix_exact"),
    ("semantics", "condrsa.semantics", "bool_matrix_float"),
    *(
        ("engine", "condrsa.engine", name)
        for name in (
            "prior_posterior", "utterance_masses", "literal_listener_matrix",
            "speaker_matrix", "pragmatic_listener_matrix", "surprise_vector",
            "literal_listener", "speaker", "argmax_utterances",
            "pragmatic_listener", "utterance_surprise", "expectation",
            "relation_posterior",
        )
    ),
    *(
        ("analysis", "condrsa.analysis", name)
        for name in (
            "marginal_arrays", "certainty_cell_array", "relation_array",
            "best_utterance_frequencies", "cp_metrics", "delta_p_cohorts",
            "expected_choice_probabilities", "relation_beliefs",
            "cp_comparison", "default_context_checks",
        )
    ),
    *(
        ("runner", "condrsa.runner", name)
        for name in (
            "run", "scenario_bundle", "default_context_bundle", "sweep_bundles",
        )
    ),
    ("results", "condrsa.results", "make_bundle"),
    ("results", "condrsa.results", "bundle_json_text"),
    ("results", "condrsa.results", "write_bundle"),
    ("results", "condrsa.results", "emit_plot_data"),
    ("results", "condrsa.results", "ResultTable.rendered"),
)


class Tracer:
    """Records spans and counts while installed; restores everything on
    `uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._requests = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if parent is None:
                tracer._requests += 1
                request = tracer._requests
            else:
                request = tracer.spans[parent].request
            index = len(tracer.spans)
            span = Span(layer, name, time.perf_counter(), 0.0, parent, request)
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            tracer._count(name, result)
            return result

        return wrapper

    def _count(self, name: str, result) -> None:
        if name == "sample_default_states":
            self.counts["default_context.states"] += len(result)
        elif name == "write_bundle":
            self.counts["results.bytes"] += sum(p.stat().st_size for p in result)

    def take(self) -> tuple[list[Span], Counter[str]]:
        """Spans and counts recorded since the last call; between requests
        only, so that parent indices stay within the returned list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        taken = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return taken

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in `TRACED`, plus a row counter on
        ``ResultBundle.add``.  The condrsa package must be imported."""
        for layer, module_name, attribute in TRACED:
            module = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                self._replace(owner, method, self.wrap(layer, method, getattr(owner, method)))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(layer, attribute, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "condrsa":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, wrapper)

        results = sys.modules["condrsa.results"]
        add = results.ResultBundle.add
        tracer = self

        def counting_add(bundle, table):
            tracer.counts["runner.rows"] += len(table.rows)
            return add(bundle, table)

        self._replace(results.ResultBundle, "add", counting_add)

    def _replace(self, owner: object, key: str, value: object) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


# --------------------------------------------------------------------------
# arithmetic on recorded spans
# --------------------------------------------------------------------------


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        inside = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        ]
        out.append(span.end - span.start - covered_length(inside))
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] = out.get(span.layer, 0.0) + own
    return out


def inclusive_time(spans: list[Span], name: str) -> float:
    """Total duration of the spans of function ``name``, counting a span
    nested inside another span of the same name only once."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != name:
            parent = spans[parent].parent
        if parent is None:
            total += span.end - span.start
    return total


def call_counts(spans: list[Span]) -> Counter[str]:
    return Counter(f"{span.layer}.{span.name}" for span in spans)


def layer_metrics(spans: list[Span], counts: Counter[str]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see ``bench/README.md``)."""
    own = layer_self_times(spans)
    calls = call_counts(spans)
    return {
        "default_context.sample_s": inclusive_time(spans, "sample_default_states"),
        "default_context.states": counts["default_context.states"],
        "scenario_io.parse_s": inclusive_time(spans, "parse_scenario_file"),
        "context.build_s": inclusive_time(spans, "__post_init__"),
        "context.builds": calls["context.__post_init__"],
        "semantics.assertability_s": inclusive_time(spans, "bool_matrix_exact")
        + inclusive_time(spans, "bool_matrix_float"),
        "engine.self_s": own.get("engine", 0.0),
        "engine.calls": sum(n for k, n in calls.items() if k.startswith("engine.")),
        "engine.utterance_masses_calls": calls["engine.utterance_masses"],
        "engine.speaker_matrix_calls": calls["engine.speaker_matrix"],
        "analysis.self_s": own.get("analysis", 0.0),
        "analysis.checks_s": inclusive_time(spans, "default_context_checks"),
        "runner.self_s": own.get("runner", 0.0),
        "runner.rows": counts["runner.rows"],
        "results.write_s": inclusive_time(spans, "write_bundle"),
        "results.render_calls": calls["results.rendered"],
        "results.bytes": counts["results.bytes"],
    }


def dump(passes: list[list[Span]], path: Path) -> None:
    """Write the spans of each pass as JSON lines; ``id`` and ``parent``
    index the spans of the same pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for number, recorded in enumerate(passes):
            for i, s in enumerate(recorded):
                fh.write(json.dumps({
                    "pass": number, "id": i, "layer": s.layer, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "request": s.request,
                }) + "\n")
