"""Pinned sha256 digests of the frame-model trace and event files.

Every event, sample row and formatted byte of these runs feeds a digest, so a
change to event order, row evaluation, bound-event placement or float
formatting shows here. The two mesh scenarios overflow and exit 2, so their
event files also pin where bound events sit in the log. A change that alters
an output on purpose records the new digests and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from bittide_sim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
README_COMPARE_FLAGS = ["--set", "afm.latency=0.0", "--set", "afm.d=0.0",
                        "--set", "afm.p=100", "--set", "afm.beta_max=1024"]

CASES = {
    "simulate_triangle_pi": (
        ["simulate", "--model", "afm", "--scenario", str(SCENARIOS / "triangle_pi.json")], 0,
        "e2454d30d1bddc421a80864206b988451f554ad0b9e6cea4a15f24fd93144520",
        "9063d5007045c574907c48b31c88767742b8a4248dde44f51bdcb7e21e293944"),
    "simulate_mesh_close_pair": (
        ["simulate", "--model", "afm", "--scenario", str(SCENARIOS / "mesh_close_pair.json")], 2,
        "3ae5243b1f4e3ab05df2e9ab8bf58b770892b9dd623a26f901101ac45e9ee203",
        "08488737c67e3f8516a10b1c3081e35507762001107214a038ab5c080fe59586"),
    "simulate_mesh_far_pair": (
        ["simulate", "--model", "afm", "--scenario", str(SCENARIOS / "mesh_far_pair.json")], 2,
        "e53ee7c8e78188a1e4ddc0b6dfcc44556d690c7a7a06ab6147c4ad996aeeca20",
        "ba3dc2423c9a14058f2f3bbf82cb4fdb108c2dc44e62eb324f44e5d3763c4820"),
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
