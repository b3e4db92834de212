"""Pin the sha256 of every file the runner writes for a fixed set of runs.

The digests live in ``output_digests.json`` next to this file.  A change
that is meant to leave every output byte-identical must keep them; a
change that alters outputs on purpose regenerates them with

    PYTHONPATH=src python tests/test_output_digests.py > tests/output_digests.json

and says in its description which files changed and why.

Each ``bundle.json`` also has a value digest, under its path plus
``#values``: the sha256 of ``json.dumps(json.loads(text), sort_keys=True)``,
which ignores the layout of the text.  A change of layout alone must keep
every value digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from condrsa import BUILTIN_NAMES
from condrsa.runner import RunConfig, parse_grid, run

DIGESTS = Path(__file__).with_name("output_digests.json")

#: a file scenario with string rationals, an observation and one utterance
#: that no state supports
FIXTURE = Path(__file__).with_name("orchard_scenario.json")

#: a file scenario with JSON-float cells, an integer alpha, a string theta
#: and an observation: a float context, echoing alpha and theta as floats
FLOAT_FIXTURE = Path(__file__).with_name("orchard_float_scenario.json")

#: a 48-state exact file scenario: tables and noisy-OR states, states exactly
#: on theta = 9/10, a zero-weight state that alone asserts one utterance, and
#: one utterance that no state asserts
LARGE_FIXTURE = Path(__file__).with_name("riverbank_scenario.json")

#: run name -> configuration (without its output directory)
RUNS = {
    **{
        f"{name}-rational": RunConfig(
            command="run-scenario", scenario=name, numeric="rational",
            formats=("csv", "json", "plotdata"),
        )
        for name in BUILTIN_NAMES
    },
    **{
        f"{name}-float": RunConfig(
            command="run-scenario", scenario=name, numeric="float",
        )
        for name in BUILTIN_NAMES
    },
    "default-context-seed1-500": RunConfig(
        command="run-default-context", seed=1, n_states=500,
    ),
    "default-context-seed1-500-plotdata": RunConfig(
        command="run-default-context", seed=1, n_states=500,
        formats=("csv", "json", "plotdata"),
    ),
    "orchard-file-rational": RunConfig(
        command="run-scenario", scenario=str(FIXTURE), numeric="rational",
        formats=("csv", "json", "plotdata"),
    ),
    "orchard-file-float": RunConfig(
        command="run-scenario", scenario=str(FLOAT_FIXTURE),
    ),
    "riverbank-file-rational": RunConfig(
        command="run-scenario", scenario=str(LARGE_FIXTURE), numeric="rational",
        formats=("csv", "json", "plotdata"),
    ),
    "sweep-seed1-2000": RunConfig(command="sweep", seed=1, n_states=2000),
    # each format alone: no bundle.json beside the CSV, no CSV beside the JSON
    **{
        f"sweep-seed1-500-{fmt}": RunConfig(
            command="sweep", seed=1, n_states=500, grid=parse_grid("alpha=1,3;theta=0.9"),
            formats=(fmt,),
        )
        for fmt in ("csv", "json")
    },
    # plot data with no JSON or CSV beside it
    "garden_party-plotdata-only": RunConfig(
        command="run-scenario", scenario="garden_party", formats=("plotdata",),
    ),
    # one requested figure next to a JSON-only write
    "default-context-seed2-800-fig9": RunConfig(
        command="run-default-context", seed=2, n_states=800, figure="fig9",
        formats=("json",),
    ),
}


#: the key suffix of a bundle.json's value digest
VALUES = "#values"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(name: str, out: Path) -> dict[str, str]:
    """Run ``RUNS[name]`` into ``out``; sha256 of each written file by path,
    and the value digest of each ``bundle.json``."""
    run(dataclasses.replace(RUNS[name], output_dir=out))
    digests = {}
    for p in sorted(out.rglob("*")):
        if p.is_file():
            key = p.relative_to(out).as_posix()
            digests[key] = _sha256(p.read_bytes())
            if p.name == "bundle.json":
                values = json.dumps(json.loads(p.read_text(encoding="utf-8")), sort_keys=True)
                digests[key + VALUES] = _sha256(values.encode("utf-8"))
    return digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes_are_pinned(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name]
    actual = output_digests(name, tmp_path)
    # values first, so that a change of layout alone is told apart
    assert {k: v for k, v in actual.items() if k.endswith(VALUES)} == {
        k: v for k, v in expected.items() if k.endswith(VALUES)
    }
    assert actual == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: output_digests(name, Path(tmp) / name) for name in sorted(RUNS)}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
