"""The package's public names and record types, and its runtime dependencies."""

import ast
import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bittide_sim
from bittide_sim.graph import complete
from bittide_sim.ode import Gains, ParameterError
from helpers import make_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


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
    assert unread == []


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


def test_every_exported_record_is_a_named_tuple():
    # README: the record types are named tuples; every other exported class is
    # an exception (warnings included)
    exported = [getattr(bittide_sim, name) for name in bittide_sim.__all__]
    records = [obj for obj in exported
               if isinstance(obj, type) and not issubclass(obj, Exception)]
    assert records and [cls.__name__ for cls in records if not issubclass(cls, tuple)] == []


def test_cli_import_generates_no_dataclass_code():
    # every record type is a named tuple: a dataclass generates and compiles
    # its methods when its class is created, and every command paid for that
    src = str(Path(bittide_sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import json, sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import bittide_sim.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    new = json.loads(out.stdout.strip().splitlines()[-1])
    assert "bittide_sim.cli" in new
    assert "dataclasses" not in new


_GAINS = Gains(k_p=1e-6, k_i=1e-9)
# a valid record of each type that checks its fields
VALIDATED = (complete(3), _GAINS, make_scenario(complete(3), (1.0, 1.0, 1.0), _GAINS))
# (a valid record, a field, a value it refuses, the error type and text)
REFUSED = [pytest.param(record, name, *refusal, id=f"{type(record).__name__}.{name}")
           for record, name, *refusal in (
    (VALIDATED[0], "n", 1, ValueError, "need at least 2 nodes, got n=1"),
    (VALIDATED[0], "edges", ((0, 1), (1, 1)), ValueError, "self-loop at node 1"),
    (VALIDATED[1], "k_p", -1.0, ParameterError, "k_p must be > 0, got -1.0"),
    (VALIDATED[1], "omega_c", 0.0, ParameterError, "omega_c must be > 0, got 0.0"),
    (VALIDATED[2], "meas_period", 0.0, ParameterError, "meas_period must be > 0, got 0.0"),
)]


@pytest.mark.parametrize("build", ["constructor", "_replace", "_make", "copy.copy"])
@pytest.mark.parametrize("record, name, bad, error, message", REFUSED)
def test_validated_records_refuse_a_bad_value_however_built(build, record, name, bad,
                                                              error, message):
    cls = type(record)
    values = {**record._asdict(), name: bad}
    builders = {
        "constructor": lambda: cls(**values),
        "_replace": lambda: record._replace(**{name: bad}),
        "_make": lambda: cls._make(values.values()),
        # a record forged past the checks is checked again when it is copied
        "copy.copy": lambda: copy.copy(tuple.__new__(cls, values.values())),
    }
    with pytest.raises(error) as info:
        builders[build]()
    assert type(info.value) is error and str(info.value) == message
    if error is ParameterError:
        assert info.value.field == name


@pytest.mark.parametrize("record", VALIDATED, ids=lambda r: type(r).__name__)
def test_validated_records_rebuild_unchanged(record):
    cls = type(record)
    for same in (cls(**record._asdict()), record._replace(), cls._make(record),
                 copy.copy(record)):
        assert type(same) is cls and same == record and hash(same) == hash(record)
