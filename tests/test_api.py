"""The package's public names, and the README's library quickstart run as written."""
import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import oimsim

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# names that only tests call, and types of values the drivers return, each
# importable from its submodule but not from the package
SUBMODULE_ONLY = {
    "rhs": "dynamics",
    "potential_energy": "dynamics",
    "PhaseState": "dynamics",
    "order_parameter": "metrics",
    "phase_lock_error": "metrics",
    "binarize": "metrics",
    "MetricTraces": "metrics",
    "Trajectory": "integrate",
    "ComparisonSummary": "experiments",
}


def test_all_is_the_public_namespace():
    public = {name for name, value in vars(oimsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(oimsim.__all__) == sorted(public)


def test_readme_and_demos_use_only_exported_names():
    used = set()
    for path in (ROOT / "README.md", *DEMOS):
        used |= set(re.findall(r"\boim\.(\w+)", path.read_text()))
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "oimsim":
                used |= {alias.name for alias in node.names}
    assert "traces_to_csv" in used
    assert used <= set(oimsim.__all__), used - set(oimsim.__all__)


@pytest.mark.parametrize("name, module", sorted(SUBMODULE_ONLY.items()))
def test_name_lives_in_its_submodule(name, module):
    assert not hasattr(oimsim, name)
    assert hasattr(importlib.import_module(f"oimsim.{module}"), name)


def test_readme_quickstart_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # solve's cut and spins, its lock fraction, the exact optimum, one line
    # per sweep row (2 values x 2 seeds x 2 modes), and the comparison
    assert len(lines) == 3 + 8 + 1
    assert float(lines[0].split()[0]) <= float(lines[2])
