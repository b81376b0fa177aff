"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from bittide_sim import cli
from bittide_sim.cli import main
from bittide_sim.scenario import read_trace

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_doc(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def small_triangle(tmp_path, **run):
    doc = {
        "graph": {"generator": "complete", "n": 3},
        "frequencies": {"omega_u": [1.00005, 1.0, 0.99995]},
        "controller": {"k_p": 3e-5, "k_i": 2e-9, "omega_c": 1.0},
        "afm": {"p": 1000, "d": 100, "latency": 500.0, "beta_max": 128,
                "theta0": 0.1, "omega_min": 0.5, "omega_max": 2.0},
        "run": {"t_end": 40000.0, "output_dt": 1000.0, **run},
    }
    return write_doc(tmp_path, doc)


class TestSimulate:
    def test_ode_run_converges(self, tmp_path, capsys):
        scn = small_triangle(tmp_path, t_end=400000.0)
        out = tmp_path / "out"
        rc = main(["simulate", "--model", "ode", "--scenario", str(scn),
                   "--out", str(out)])
        assert rc == 0
        table = read_trace(out / "trace_ode.csv")
        assert table.columns[:3] == ("omega_0", "omega_1", "omega_2")
        assert np.abs(table.values[-1, :3] - 1.0).max() < 1e-8
        assert (out / "summary.txt").exists()
        assert json.loads((out / "report.json").read_text())["reports"][0]["model"] == "ode"

    def test_ode_trace_on_output_grid(self, tmp_path, capsys):
        # the default RK4 step here is about 3.5e5 s, far above output_dt
        out = tmp_path / "out"
        rc = main(["simulate", "--model", "ode", "--scenario",
                   str(SCENARIOS / "mesh_far_pair.json"), "--out", str(out)])
        assert rc == 0
        table = read_trace(out / "trace_ode.csv")
        assert np.array_equal(table.times, np.arange(401) * 2500.0)

    def test_afm_symmetric_constant(self, tmp_path):
        scn = small_triangle(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", "--model", "afm", "--scenario", str(scn),
                   "--out", str(out), "--set", "frequencies.omega_u=[1.0,1.0,1.0]"])
        assert rc == 0
        table = read_trace(out / "trace_afm.csv")
        beta = table.values[:, 3:]
        assert beta.min() == beta.max() == 64.0

    def test_invalid_scenario_names_field(self, tmp_path, capsys):
        scn = small_triangle(tmp_path)
        rc = main(["simulate", "--model", "afm", "--scenario", str(scn),
                   "--out", str(tmp_path / "out"), "--set", "afm.theta0=1.0"])
        assert rc == 1
        assert "initial_phase" in capsys.readouterr().err

    @pytest.mark.parametrize("override, field", [
        ("frequencies.omega_u=NaN", "frequencies.omega_u"),
        ("run.t_end=abc", "run.t_end"),
        ("controller.k_p=null", "controller.k_p"),
        ("graph.n=3.5", "graph.n"),
        ('frequencies={"two_node": 5}', "frequencies.two_node"),
        ("run.t_end=-5", "run.t_end"),
        ("controller.k_p=-1", "controller.k_p"),
        ("afm.p=0", "afm.p"),
        ("run.output_dt=1e-300", "run.output_dt"),
        ("afm.p=1e-9", "afm.p"),
    ])
    def test_malformed_value_names_field(self, tmp_path, capsys, monkeypatch,
                                         override, field):
        # every case must be refused before the run: one that got through the
        # run-size cap would otherwise never finish
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "simulate_afm", refuse)
        scn = small_triangle(tmp_path)
        rc = main(["simulate", "--model", "afm", "--scenario", str(scn),
                   "--out", str(tmp_path / "out"), "--set", override])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_fluid_step_budget_names_field(self, tmp_path, capsys):
        # k_p = 1e9 makes the default RK4 step about 1.7e-11 s: 2.4e15 steps
        scn = small_triangle(tmp_path)
        rc = main(["simulate", "--model", "ode", "--scenario", str(scn),
                   "--out", str(tmp_path / "out"), "--set", "controller.k_p=1e9"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: run.t_end: " in err and "run-size cap" in err

    def test_overflow_exit_code(self, tmp_path, capsys):
        doc = {
            "graph": {"generator": "path", "n": 2},
            "frequencies": {"omega_u": [1.1, 0.9]},
            "controller": {"k_p": 1e-9, "k_i": 1e-15},
            "afm": {"p": 10, "beta_max": 8, "omega_min": 0.5, "omega_max": 2.0},
            "run": {"t_end": 500.0, "output_dt": 50.0},
        }
        scn = write_doc(tmp_path, doc)
        rc = main(["simulate", "--model", "afm", "--scenario", str(scn),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "overflow" in err or "underflow" in err

    def test_missing_file_io_error(self, tmp_path):
        rc = main(["simulate", "--model", "afm", "--scenario",
                   str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")])
        assert rc == 3


class TestCompare:
    def test_fig_style_comparison(self, tmp_path):
        scn = small_triangle(tmp_path)
        out = tmp_path / "out"
        rc = main(["compare", "--scenario", str(scn), "--out", str(out),
                   "--set", "afm.latency=0.0", "--set", "afm.d=0.0",
                   "--set", "afm.p=100", "--set", "afm.beta_max=1024"])
        assert rc == 0
        tree = json.loads((out / "comparison.json").read_text())
        rep = tree["reports"][0]
        assert rep["type"] == "comparison"
        assert rep["max_occ_dev"] <= 2.0
        assert (out / "trace_afm.csv").exists() and (out / "trace_ode.csv").exists()


class TestAnalyze:
    def test_resistance_table_quoted_values(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(tmp_path), "--resistance"])
        assert rc == 0
        rows = (tmp_path / "resistance.csv").read_text().splitlines()[1:]
        vals = np.array([[float(v) for v in row.split(",")] for row in rows])
        off = vals[np.triu_indices(24, k=1)]
        assert np.any(np.abs(off - 0.700) <= 0.007)
        assert np.any(np.abs(off - 2.262) <= 0.02262)

    def test_performance_close_pair(self, tmp_path, capsys):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(tmp_path), "--performance"])
        assert rc == 0
        tree = json.loads((tmp_path / "analysis.json").read_text())
        perf = tree["reports"][0]
        assert perf["freq_dev_norm_sq"] == pytest.approx(0.175, rel=0.01)

    def test_performance_with_empirical_check(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(tmp_path), "--performance", "--simulate"])
        assert rc == 0
        tree = json.loads((tmp_path / "analysis.json").read_text())
        kinds = {r["type"]: r for r in tree["reports"]}
        emp = kinds["performance_empirical"]
        assert emp["freq_dev_norm_sq"] == pytest.approx(0.175, rel=0.01)
        assert emp["freq_rel_gap"] <= 0.01
        assert emp["occ_rel_gap"] <= 0.01

    def test_lyapunov_residuals(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(tmp_path), "--lyapunov"])
        assert rc == 0
        tree = json.loads((tmp_path / "analysis.json").read_text())
        kinds = {r["type"]: r for r in tree["reports"]}
        assert kinds["hurwitz"]["is_hurwitz"] is True
        cert = kinds["lyapunov_certificate"]
        assert cert["residual1"] <= 1e-9
        assert cert["residual2"] <= 1e-9

    def test_worst_case(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(tmp_path), "--worst-case"])
        assert rc == 0
        tree = json.loads((tmp_path / "analysis.json").read_text())
        wc = tree["reports"][0]
        assert wc["degenerate"] is True  # complete graph has repeated lambda_2
        assert wc["attained_quadratic_form"] == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_no_flags_is_error(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(tmp_path)])
        assert rc == 1


class TestSweep:
    def test_proportional_gain_halves_norm(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(out), "--param", "controller.k_p",
                   "--values", "1e-8,2e-8,4e-8"])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        freq_col = header.index("freq_dev_norm_sq")
        freqs = [float(r.split(",")[freq_col]) for r in rows[1:]]
        assert freqs[0] / freqs[1] == pytest.approx(2.0, rel=1e-9)
        assert freqs[1] / freqs[2] == pytest.approx(2.0, rel=1e-9)

    def test_integral_gain_leaves_freq_norm(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(out), "--param", "controller.k_i",
                   "--values", "1e-15,2e-15,4e-15"])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        freq_col = header.index("freq_dev_norm_sq")
        occ_col = header.index("occupancy_norm_sq")
        freqs = [float(r.split(",")[freq_col]) for r in rows[1:]]
        occs = [float(r.split(",")[occ_col]) for r in rows[1:]]
        assert freqs[0] == pytest.approx(freqs[2], rel=1e-12)
        assert occs[0] / occs[2] == pytest.approx(4.0, rel=1e-9)

    def test_parallel_matches_serial(self, tmp_path):
        args = ["sweep", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                "--param", "controller.k_p", "--values", "1e-8,3e-8,2e-8,4e-8"]
        rc1 = main(args + ["--out", str(tmp_path / "serial"), "--jobs", "1"])
        rc2 = main(args + ["--out", str(tmp_path / "par"), "--jobs", "3"])
        assert rc1 == rc2 == 0
        assert ((tmp_path / "serial" / "sweep.csv").read_text()
                == (tmp_path / "par" / "sweep.csv").read_text())

    @pytest.mark.parametrize("text, code", [("[1]", 1), ("{not json", 1), (None, 3)])
    def test_unreadable_document(self, tmp_path, capsys, text, code):
        scn = tmp_path / "scn.json"
        if text is not None:
            scn.write_text(text)
        rc = main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "out"),
                   "--param", "controller.k_p", "--values", "1e-8"])
        assert rc == code
        assert capsys.readouterr().err.startswith("error: ")

    def test_partial_failure_reported(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(out), "--param", "controller.k_p",
                   "--values=-1e-8,2e-8"])
        assert rc == 2
        text = (out / "sweep.csv").read_text()
        assert "error" in text
        assert "ok" in text
