"""The benchmark's contract with the package.

``bench/tracer.py`` replaces the module attributes named in its
``LAYER_FUNCTIONS`` and fails at install when one is missing, so a refactor
that drops or renames one of them would stop every benchmark run. This test
fails first. It only reads ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [f"{module.__name__}.{attr}"
               for targets in tracer.LAYER_FUNCTIONS.values()
               for module, attr in targets if not callable(getattr(module, attr, None))]
    assert missing == []
