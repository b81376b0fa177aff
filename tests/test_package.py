"""The package's public names, and its runtime dependencies."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import bittide_sim

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
# exported with no reader yet: a planned scenario round-trip test writes documents with it
UNREAD_EXPORTS = {"save_scenario"}


def test_every_exported_name_resolves():
    missing = [name for name in bittide_sim.__all__ if not hasattr(bittide_sim, name)]
    assert missing == []
    assert len(set(bittide_sim.__all__)) == len(bittide_sim.__all__)


def test_every_export_has_a_reader():
    # a name a module loads (not its definition, an attribute or a docstring),
    # or one the benchmark or the README names; code only the tests read
    # belongs in the tests
    package = Path(bittide_sim.__file__).resolve().parent
    loaded = {node.id for path in package.glob("*.py") if path.name != "__init__.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    text = "".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    text += (ROOT / "README.md").read_text()
    unread = [name for name in bittide_sim.__all__ if name not in loaded
              and not re.search(rf"\b{name}\b", text)]
    assert unread == sorted(UNREAD_EXPORTS)


def test_no_runtime_dependency_beyond_numpy(tmp_path):
    # a fresh interpreter that loads the CLI and runs every analyze report
    # imports nothing outside the standard library, numpy and the package
    src = str(Path(bittide_sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
            "--out", str(tmp_path / "out"), "--performance", "--simulate", "--lyapunov"]
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import bittide_sim.cli\n"
            f"rc = bittide_sim.cli.main({argv!r})\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps([rc, sorted(new)]), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    rc, new = json.loads(out.stderr.strip().splitlines()[-1])
    assert rc == 0
    assert "numpy" in new and "bittide_sim" in new
    assert [name for name in new if name not in sys.stdlib_module_names
            and name not in ("numpy", "bittide_sim")] == []
