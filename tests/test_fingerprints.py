"""Pinned sha256 digests of the frame-model trace and event files, of the
fluid-model trace files, and of the report files the README commands write.

Every event, sample row and formatted byte of these runs feeds a digest, so a
change to event order, row evaluation, bound-event placement or float
formatting shows here. The two mesh scenarios overflow and exit 2, so their
event files also pin where bound events sit in the log. The report digests pin
every key and every formatted value of the text and JSON reports. A change
that alters an output on purpose records the new digests and says why in
CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bittide_sim
from bittide_sim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
README_COMPARE_FLAGS = ["--set", "afm.latency=0.0", "--set", "afm.d=0.0",
                        "--set", "afm.p=100", "--set", "afm.beta_max=1024"]

CASES = {
    "simulate_triangle_pi": (
        ["simulate", "--model", "afm", "--scenario", str(SCENARIOS / "triangle_pi.json")], 0,
        "3130d93ef593404103df0e8ddf75fe410b9a3c13d67094211d3c44b3b0692a58",
        "c224f1e308b74d8d0ce1a09ebdd75cb16dae31a7caec17bfe6f15a5a622ec96d"),
    "simulate_mesh_close_pair": (
        ["simulate", "--model", "afm", "--scenario", str(SCENARIOS / "mesh_close_pair.json")], 2,
        "715c294dc1702090ea48eb51fdb607831a0c774b08909ccf0e606c6e8984b777",
        "996000446b1564c134d896f57bc323b5f6da5e25a4a4c4504313336ae71ab6fe"),
    "simulate_mesh_far_pair": (
        ["simulate", "--model", "afm", "--scenario", str(SCENARIOS / "mesh_far_pair.json")], 2,
        "93e8de820aa333f53c7de3f1f00359680bc3fc5b21f1d1c16e12e89ad2c1a934",
        "6a8459cbb69da98014656832fd0b58d056b9465fda4b7a324bad2bb6bea27d01"),
    "compare_readme_flags": (
        ["compare", "--scenario", str(SCENARIOS / "triangle_pi.json")] + README_COMPARE_FLAGS, 0,
        "9d1990e061f3fab4d905e8a92d3f6feb375c245d8afd10bbdfd509d02deb6ced",
        "80cc1721e9ef09f979ef708d278816c96ce33431a9383901fee3aaa3199a4919"),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_frame_model_outputs_pinned(name, tmp_path, capsys):
    argv, exit_code, trace_digest, events_digest = CASES[name]
    assert main(argv + ["--out", str(tmp_path)]) == exit_code
    capsys.readouterr()
    assert sha256(tmp_path / "trace_afm.csv") == trace_digest
    assert sha256(tmp_path / "trace_afm_events.csv") == events_digest


# mesh scenario -> stderr of its frame-model run, which names the first bound event
MESH_ERRORS = {
    "mesh_close_pair": "error: buffer overflow on link 0 at t=325000.0 (occupancy 129.0)\n",
    "mesh_far_pair": "error: buffer overflow on link 0 at t=652500.0 (occupancy 129.0)\n",
}


@pytest.mark.parametrize("name", sorted(MESH_ERRORS))
def test_mesh_overflow_stderr_pinned(name, tmp_path, capsys):
    # compare runs the same frame model, so it names the same hit and exits 2 too
    for command in (["simulate", "--model", "afm"], ["compare"]):
        argv = command + ["--scenario", str(SCENARIOS / f"{name}.json")]
        assert main(argv + ["--out", str(tmp_path / command[0])]) == 2
        assert capsys.readouterr().err == MESH_ERRORS[name]


# command -> (exit code, sha256 of trace_ode.csv); the digests are the same
# with one and with two BLAS threads
FLUID_CASES = {
    "simulate_ode_triangle_pi": (
        ["simulate", "--model", "ode", "--scenario", str(SCENARIOS / "triangle_pi.json")], 0,
        "346236e0e193e381560c6b4bd95cf3f1487e734c75c31782a9e9ad6288c7fd67"),
    "simulate_ode_mesh_far_pair": (
        ["simulate", "--model", "ode", "--scenario", str(SCENARIOS / "mesh_far_pair.json")], 0,
        "da47e1deb488d90a2a432afb4376f66c84bbc22bd56a8c88af153544ff1b3d9c"),
    "compare_readme_flags": (
        ["compare", "--scenario", str(SCENARIOS / "triangle_pi.json")] + README_COMPARE_FLAGS, 0,
        "346236e0e193e381560c6b4bd95cf3f1487e734c75c31782a9e9ad6288c7fd67"),
}


@pytest.mark.parametrize("name", sorted(FLUID_CASES))
def test_fluid_model_traces_pinned(name, tmp_path, capsys):
    argv, exit_code, trace_digest = FLUID_CASES[name]
    assert main(argv + ["--out", str(tmp_path)]) == exit_code
    capsys.readouterr()
    assert sha256(tmp_path / "trace_ode.csv") == trace_digest


# command -> (exit code, {report file: sha256}); the digests are the same with
# one and with two BLAS threads
REPORT_CASES = {
    "simulate_afm_triangle_pi": (
        ["simulate", "--model", "afm", "--scenario", str(SCENARIOS / "triangle_pi.json")], 0,
        {"summary.txt": "5b79aa35daae1c57b0017c56b87168b2091e71881772c315b7106f0df4894123",
         "report.json": "96d9e14d815c387d98c2fcbcdd8b32b54eda79f075bc99c1a9e53d408a9a2733"}),
    "simulate_ode_triangle_pi": (
        ["simulate", "--model", "ode", "--scenario", str(SCENARIOS / "triangle_pi.json")], 0,
        {"summary.txt": "2933090f62e0bb0efdd9466dab42a3794844e47344d349071704bfbadf5ed799",
         "report.json": "1ff939f3f40229a53a14839403290d64bc3a9f273cf1cadafc8b500eed76be01"}),
    "compare_readme_flags": (
        ["compare", "--scenario", str(SCENARIOS / "triangle_pi.json")] + README_COMPARE_FLAGS, 0,
        {"comparison.txt": "f522e13a7bd3c6e769a5247bb229b70d3ff5a3c35cdc8498602eda30ab155692",
         "comparison.json": "837fac90491027a20241345bd692b9f30c2daef9381345018e82aaf6d800f6d7"}),
    # 32,006 fluid rows, so the run forms omega and delta over many chunks
    "analyze_simulate_mesh_close_pair": (
        ["analyze", "--performance", "--simulate",
         "--scenario", str(SCENARIOS / "mesh_close_pair.json")], 0,
        {"analysis.json": "cb0eff7a8c0fa17f8fc96f19b446e9432e22ec79f531aa302d121f8d0c8eb125",
         "analysis.txt": "292eec63e0a5c295017af874edfd829f7742303d556a765c44939f6e5949a445"}),
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_files_pinned(name, tmp_path, capsys):
    argv, exit_code, digests = REPORT_CASES[name]
    assert main(argv + ["--out", str(tmp_path)]) == exit_code
    capsys.readouterr()
    assert {f: sha256(tmp_path / f) for f in digests} == digests


# --set overrides -> {report file: sha256} of analyze with every report on
# triangle_pi, run in a fresh interpreter on one BLAS thread: the last bits of
# the dense Lyapunov residuals depend on the thread count
LYAPUNOV_CASES = {
    "shipped_gains": ([], {
        "analysis.json": "6cfb36e1ee19feb1cefe6f3405a81bc488611155d33ee8dd5e72eebf348ea953",
        "analysis.txt": "97302db2c9a01e0bde5a91f17d418844552b0f42311fe2b36d6d4da73489ded7"}),
    "k_p_1": (["--set", "controller.k_p=1"], {
        "analysis.json": "7a70b74eab100ed5fc4f2f262a1d16c75f4888eabeb0e5d8f32c2404821f647e",
        "analysis.txt": "e0e34d515c35680eb9d4d6386285331ab1c9d0740814eec906dada48b7661114"}),
}


@pytest.mark.parametrize("name", sorted(LYAPUNOV_CASES))
def test_lyapunov_reports_pinned(name, tmp_path):
    overrides, digests = LYAPUNOV_CASES[name]
    src = str(Path(bittide_sim.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["analyze", "--lyapunov", "--performance", "--resistance", "--worst-case",
            "--scenario", str(SCENARIOS / "triangle_pi.json"), "--out", str(tmp_path),
            *overrides]
    subprocess.run([sys.executable, "-m", "bittide_sim.cli", *argv], env=env, check=True,
                   capture_output=True, timeout=120)
    assert {f: sha256(tmp_path / f) for f in digests} == digests
