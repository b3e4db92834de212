"""Every script in ``demos/``, and README's quick start, runs to completion
against the package source."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


def _runs(script: Path, cwd: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    _runs(script, tmp_path)


def test_readme_quick_start_runs_and_states_its_values(tmp_path):
    """The README's ``python`` block runs as written, and each line whose
    comment begins with a value (``# Fraction(1, 5): ...``) gives it."""
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    lines, values = ["from fractions import Fraction"], []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        value = comment.split(":")[0].strip()
        if value.startswith(("Fraction(", "(Fraction(")):
            values.append(value)
            line = f"assert ({code.strip()}) == {value}, {code.strip()!r}"
        lines.append(line)
    assert values == ["(Fraction(5, 6), Fraction(1, 6))", "Fraction(1, 5)", "Fraction(13, 15)"]
    script = tmp_path / "quick_start.py"
    script.write_text("\n".join(lines) + "\n")
    _runs(script, tmp_path)
