"""The benchmark's contract with the package.

``bench/tracer.py`` replaces the module attributes named in its
``LAYER_FUNCTIONS`` and fails at install when one is missing, so a refactor
that drops or renames one of them would stop every benchmark run. This test
fails first. The tracer's fact readers and the mesh-ladder operations of
``bench/workloads.py`` read trace attributes, so they run here on real traces:
removing an attribute they read fails these tests, not only the benchmark. The
documents ``bench/workloads.py`` generates must pass the scenario key check and
load. These tests only read ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from bittide_sim import cli
from bittide_sim.afm import simulate_afm
from bittide_sim.graph import complete, spectral_data
from bittide_sim.ode import _CHUNK_STEPS, Gains, build_full_system, simulate_ode
from bittide_sim.scenario import check_keys, load_scenario_dict
from helpers import make_scenario

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
            # the 12x12 fluid mesh, n*m = 38,016, is the largest graph built here
            load_scenario_dict(doc)


def test_fact_readers_on_real_traces(monkeypatch):
    tracer = load_bench_module(monkeypatch, "tracer")
    scn = make_scenario(complete(3), (1.0001, 1.0, 0.9999), Gains(k_p=3e-5, k_i=2e-9),
                        latency=50.0, p=100.0, d=10.0, t_end=2000.0, output_dt=150.0)
    trace = simulate_afm(scn)
    facts = tracer._afm_facts((scn,), trace)
    tracer._settle_afm(facts)
    kinds = [ev.kind for ev in trace.events]
    assert facts == {
        "n": 3, "events_measure": kinds.count("measure"), "events_hold": kinds.count("hold"),
        "events_bound": 0, "samples": trace.times.shape[0],
        # all but the 14 rows of the 150 s grid and the row at t_end
        "samples_event_instant": trace.times.shape[0] - 15}
    assert facts["events_measure"] > 0 and facts["samples_event_instant"] > 0

    sys_full = build_full_system(spectral_data(complete(4)), Gains(k_p=0.2, k_i=0.05))
    omega_u = np.array([1.1, 1.0, 0.9, 1.0])
    ode = simulate_ode(sys_full, omega_u, 50.0)
    assert tracer._ode_facts((), ode) == {"rows": ode.times.shape[0], "n": 4, "m": 6}
    # a run of more than one chunk, too small to start a worker thread
    rows = 2 * _CHUNK_STEPS + 1
    ode = simulate_ode(sys_full, omega_u, 50.0, dt=50.0 / (rows - 1))
    assert tracer._ode_facts((), ode) == {"rows": rows, "n": 4, "m": 6}


def test_mesh_ladder_operation_runs_and_checks(monkeypatch, tmp_path):
    workloads = load_bench_module(monkeypatch, "workloads")
    doc = workloads.ladder_docs(ROOT, 7)[0]
    assert (doc["graph"]["rows"], doc["graph"]["cols"]) == (1, 3)
    op = workloads._ladder_op(doc, tmp_path)
    assert op.call() == 0
    assert op.check("") == {}
    assert all(path.exists() for path in op.outputs)


def test_lyapunov_calls_each_traced_name_once(monkeypatch, tmp_path, capsys):
    # the tracer's ode.build and analysis.lyapunov spans count these calls
    calls = []
    for name in ("build_reduced_system", "build_lyapunov_certificate"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    assert cli.main(["analyze", "--scenario", str(ROOT / "scenarios" / "triangle_pi.json"),
                     "--out", str(tmp_path), "--lyapunov"]) == 0
    capsys.readouterr()
    assert calls == ["build_reduced_system", "build_lyapunov_certificate"]
