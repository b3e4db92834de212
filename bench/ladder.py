"""Seeded generator for the exact scenario ladder of ``exact_scenarios``.

Every file follows ``docs/scenario-format.md`` and holds only exact numbers
(strings such as ``"3/20"``), so ``run-scenario`` evaluates it with the
Fraction backend.  States are drawn from the documented sources (explicit
``table``, independent ``marginals``, dependent ``noisy_or``) on fixed
rational grids; nothing is filtered on model outcomes.  The grids include
values that sit exactly on the threshold 9/10, so threshold states occur.

Validity holds by construction: in every state the probability of the
antecedent or of the consequent is not exactly 1/2 (a cause prior or an
independent antecedent marginal in odd twentieths, or table cells in
twenty-firsts), so a ``likely`` literal is always assertable and the parser
accepts every state.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

#: number of states per ladder rung
LADDER_SIZES = (10, 20, 40, 80, 160, 320)

#: the balanced two-variable utterance set, written with variables A and C
UTTERANCES = (
    "A", "~A", "C", "~C",
    "likely A", "likely ~A", "likely C", "likely ~C",
    "A & C", "A & ~C", "~A & C", "~A & ~C",
    "A -> C", "A -> ~C", "~A -> C", "~A -> ~C",
    "C -> A", "C -> ~A", "~C -> A", "~C -> ~A",
)

_DEPENDENT = ("AC_pos", "AC_neg", "CA_pos", "CA_neg")
_ODD_TWENTIETHS = tuple(f"{k}/20" for k in range(1, 20, 2))


def _twentieth(rng: random.Random, low: int, high: int) -> str:
    return f"{rng.randint(low, high)}/20"


def _table(rng: random.Random) -> dict[str, str]:
    # a random composition of 21 into four cells; P(A) = m/21 is never 1/2
    cuts = sorted(rng.randint(0, 21) for _ in range(3))
    parts = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 21 - cuts[2])
    keys = ("both", "antecedent_only", "consequent_only", "neither")
    return {k: f"{p}/21" for k, p in zip(keys, parts)}


def _state(rng: random.Random, index: int, weight: str) -> dict:
    state: dict = {"label": f"s{index}", "weight": weight}
    if rng.random() < 0.5:
        state["relation"] = "independent"
        if rng.random() < 0.75:
            state["marginals"] = {
                "antecedent": rng.choice(_ODD_TWENTIETHS),
                "consequent": _twentieth(rng, 0, 20),
            }
        else:
            state["table"] = _table(rng)
        return state
    state["relation"] = rng.choice(_DEPENDENT)
    if rng.random() < 0.75:
        state["noisy_or"] = {
            "upsilon_p": rng.choice(_ODD_TWENTIETHS),
            "tau": _twentieth(rng, 14, 20),
            "beta": _twentieth(rng, 0, 4),
        }
    else:
        state["table"] = _table(rng)
    return state


def scenario(seed: int, n_states: int) -> dict:
    """One ladder rung as a scenario-file mapping."""
    rng = random.Random(seed * 1_000_003 + n_states)
    raw = [rng.randint(1, 4) for _ in range(n_states)]
    total = sum(raw)
    return {
        "name": f"ladder_{n_states}",
        "description": f"generated exact scenario, seed {seed}, {n_states} states",
        "variables": {"antecedent": "A", "consequent": "C"},
        "alpha": 3,
        "theta": "9/10",
        "utterances": list(UTTERANCES),
        "states": [_state(rng, i, f"{w}/{total}") for i, w in enumerate(raw)],
        "observation": {
            "mediator": "C",
            "prob_given_true": "3/4",
            "prob_given_false": "1/10",
            "observed": True,
        },
    }


def write_ladder(seed: int, outdir: Path, sizes=LADDER_SIZES) -> list[Path]:
    """Write one file per rung into ``outdir``; returns the paths in order."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for n in sizes:
        path = outdir / f"ladder_{n}.json"
        text = json.dumps(scenario(seed, n), indent=1) + "\n"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
