"""The package's public names, and its runtime dependencies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bittide_sim

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_every_exported_name_resolves():
    missing = [name for name in bittide_sim.__all__ if not hasattr(bittide_sim, name)]
    assert missing == []
    assert len(set(bittide_sim.__all__)) == len(bittide_sim.__all__)


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
