"""The benchmark's contract with the package.

``bench/tracer.py`` replaces the module attributes named in its
``LAYER_FUNCTIONS`` and fails at install when one is missing, so a refactor
that drops or renames one of them would stop every benchmark run. This test
fails first. The documents ``bench/workloads.py`` generates must also pass the
scenario key check. These tests only read ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

from bittide_sim.scenario import check_keys

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracer = load_bench_module(monkeypatch, "tracer")
    missing = [f"{module.__name__}.{attr}"
               for targets in tracer.LAYER_FUNCTIONS.values()
               for module, attr in targets if not callable(getattr(module, attr, None))]
    assert missing == []


def test_generated_documents_use_known_keys(monkeypatch):
    workloads = load_bench_module(monkeypatch, "workloads")
    for seed in (1, 7, 5381):
        for doc in workloads.ladder_docs(ROOT, seed) + [workloads.fluid_doc(ROOT, seed)]:
            check_keys(doc)
