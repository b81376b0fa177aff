"""End-to-end tests of the command-line interface."""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bittide_sim import cli, scenario
from bittide_sim.analysis import InsufficientHorizonWarning, PositivityViolationError
from bittide_sim.cli import main
from bittide_sim.graph import OrientedGraph, spectral_data
from bittide_sim.ode import (ParameterError, default_time_step, output_time_step,
                             spectral_abscissa)
from bittide_sim.scenario import load_scenario, read_trace
from helpers import RunStarted

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_report(path):
    """A report tree, parsed as strictly as JSON allows: NaN and Infinity are refused."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def write_doc(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def small_triangle_doc(**run):
    return {
        "graph": {"generator": "complete", "n": 3},
        "frequencies": {"omega_u": [1.00005, 1.0, 0.99995]},
        "controller": {"k_p": 3e-5, "k_i": 2e-9, "omega_c": 1.0},
        "afm": {"p": 1000, "d": 100, "latency": 500.0, "beta_max": 128,
                "theta0": 0.1, "omega_min": 0.5, "omega_max": 2.0},
        "run": {"t_end": 40000.0, "output_dt": 1000.0, **run},
    }


def small_triangle(tmp_path, **run):
    return write_doc(tmp_path, small_triangle_doc(**run))


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
        assert read_report(out / "report.json")["reports"][0]["model"] == "ode"

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
        # afm.omega_m1 and afm.omega_m2 are absent and take frequencies.omega_u
        ("frequencies.omega_u=-1", "frequencies.omega_u"),
        # sum(omega_u) overflows the float range
        ("frequencies.omega_u=1e308", "frequencies.omega_u"),
        ('frequencies={"two_node": {"i": 0, "j": 1, "alpha": 1e-4, "base": 1e308}}',
         "frequencies.omega_u"),
        # a misspelled key is refused, not ignored in favour of the file's value
        ("controller.kp=5", "controller.kp"),
        ("controler.k_p=5", "controler"),
        ("frequencies.two_node.alfa=1e-4", "frequencies.two_node.alfa"),
        ("afm=null", "afm"),
        ('afm.p={"x": 1}', "afm.p"),
    ])
    def test_malformed_value_names_field(self, tmp_path, capsys, monkeypatch,
                                         override, field):
        # every case must be refused before the run: one that got through the
        # run-size cap would otherwise never finish
        monkeypatch.setattr("bittide_sim.afm.frame_offsets", RunStarted.refuse)
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

    @pytest.mark.parametrize("model, sets, columns", [
        # 1e7 rows of the 40x40 mesh: each model refuses its own run, the frame
        # model's of n + 2m columns and the fluid model's of n + m
        ("afm", ["run.output_dt=0.1"], "(n + 2m)"),
        ("ode", ["run.output_dt=0.1"], "(n + m)"),
        # 1.6e5 RK4 steps of 4,720 cells are under the step cap, not the cell cap
        ("ode", ["controller.k_p=1e-3"], "(n + m)"),
    ])
    def test_trace_cells_over_the_cap_refused(self, tmp_path, capsys, monkeypatch, model,
                                              sets, columns):
        monkeypatch.setattr("bittide_sim.afm.frame_offsets", RunStarted.refuse)
        monkeypatch.setattr("bittide_sim.ode.rk4_step_operator", RunStarted.refuse)
        argv = ["simulate", "--model", model, "--out", str(tmp_path),
                "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                "--set", 'graph={"generator": "mesh", "rows": 40, "cols": 40}']
        assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: run.t_end: ") and "cell cap" in err and columns in err

    @pytest.mark.parametrize("argv, override, field", [
        (["analyze", "--performance", "--simulate"], "controller.k_p=1e308", "controller.k_p"),
        (["simulate", "--model", "ode"], "controller.k_p=1e308", "controller.k_p"),
        # the step is above zero, but output_dt / step overflows
        (["simulate", "--model", "ode"], "controller.k_p=1e307", "controller.k_p"),
        (["simulate", "--model", "ode"], "controller.k_i=1e308", "controller.k_i"),
    ])
    def test_gain_leaving_no_fluid_step_names_controller(self, tmp_path, capsys, argv,
                                                         override, field):
        # a rate that overflows leaves a zero RK4 step; warnings are errors here,
        # so an overflow warning reaching the user fails this test too
        rc = main(argv + ["--scenario", str(SCENARIOS / "triangle_pi.json"),
                          "--out", str(tmp_path / "out"), "--set", override])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {field}: " in err and "no RK4 step above zero" in err
        assert "horizon" not in err and "Traceback" not in err

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

    def test_inadmissible_control_exit_code(self, tmp_path, capsys):
        # k_p = 1 turns node 0's first nonzero reading, r = -1, into c = -1
        rc = main(["simulate", "--model", "afm", "--scenario",
                   str(SCENARIOS / "triangle_pi.json"), "--out", str(tmp_path / "out"),
                   "--set", "controller.k_p=1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: inadmissible control: t=1999.9000049997499, measurement 2: node 0: "
            "corrected rate 5.0000000000105516e-05 outside (0.5, 2.0) after correction -1.0\n")

    @pytest.mark.parametrize("beta_max", ["1152921504606846976", "1e20"])  # 2**60, 1e20
    def test_buffer_capacity_above_2_53_refused(self, tmp_path, capsys, beta_max):
        # occupancy rows are exact only up to 2**53 frames
        rc = main(["simulate", "--model", "afm", "--scenario",
                   str(SCENARIOS / "triangle_pi.json"), "--out", str(tmp_path / "out"),
                   "--set", f"afm.beta_max={beta_max}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: afm.beta_max: ")

    def test_buffer_capacity_2_53_keeps_every_frame(self, tmp_path):
        devs = []
        for beta_max in (2**53, 10**6):
            out = tmp_path / str(beta_max)
            assert main(["simulate", "--model", "afm", "--scenario",
                         str(SCENARIOS / "triangle_pi.json"), "--out", str(out),
                         "--set", f"afm.beta_max={beta_max}"]) == 0
            devs.append(read_trace(out / "trace_afm.csv").values[:, 3:] - beta_max // 2)
        assert np.array_equal(devs[0], devs[1])
        assert np.abs(devs[0]).max() >= 1

    def test_missing_file_io_error(self, tmp_path):
        rc = main(["simulate", "--model", "afm", "--scenario",
                   str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")])
        assert rc == 3

    DIGITS = "9" * 5000  # past the int-to-str limit of 4300 digits

    @pytest.mark.parametrize("file_text, override", [
        pytest.param(b'{"graph": "\xff"}', None, id="file-not-utf8"),
        pytest.param(b"[" * 100_000, None, id="file-nested-too-deep"),
        pytest.param(json.dumps(small_triangle_doc()).replace(
            '"k_p": 3e-05', f'"k_p": {DIGITS}').encode(), None, id="file-too-many-digits"),
        pytest.param(None, DIGITS, id="set-too-many-digits"),
        pytest.param(None, "[" * 100_000, id="set-nested-too-deep"),
    ])
    def test_text_past_the_decoder_limits_names_file_or_field(self, tmp_path, capsys,
                                                             file_text, override):
        # one error line naming the file or the overridden field, not a traceback
        scn = small_triangle(tmp_path)
        argv = ["simulate", "--model", "afm", "--scenario", str(scn),
                "--out", str(tmp_path / "out")]
        if file_text is not None:
            scn.write_bytes(file_text)
        else:
            argv += ["--set", f"controller.k_p={override}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        named = str(scn) if override is None else "controller.k_p"
        assert err.startswith(f"error: {named}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("override", ["afm.d=1e308", "afm.omega_min=1e-320"])
    def test_extreme_delay_runs(self, tmp_path, capsys, override):
        # d/omega_min bounds nothing: no pre-history has a start to reach back to
        assert main(["simulate", "--model", "afm", "--scenario",
                     str(SCENARIOS / "triangle_pi.json"), "--out", str(tmp_path / "out"),
                     "--set", override]) == 0
        assert capsys.readouterr().err == ""

    def test_negative_delay_names_d(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bittide_sim.afm.frame_offsets", RunStarted.refuse)
        rc = main(["simulate", "--model", "afm", "--scenario",
                   str(SCENARIOS / "triangle_pi.json"), "--out", str(tmp_path / "out"),
                   "--set", "afm.d=-1e308"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: afm.d: actuation_delay must be >= 0, got -1e+308\n")

    def test_epoch_key_refused(self, tmp_path, capsys, monkeypatch):
        # every pre-history is anchored at (0, theta0), so afm holds no epoch
        monkeypatch.setattr("bittide_sim.afm.frame_offsets", RunStarted.refuse)
        rc = main(["simulate", "--model", "afm", "--scenario",
                   str(SCENARIOS / "triangle_pi.json"), "--out", str(tmp_path / "out"),
                   "--set", "afm.epoch=-1000"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: afm.epoch: unknown key")

    @pytest.mark.parametrize("override", ["afm.latency=1e19", "afm.omega_m2=1e308"])
    def test_prehistory_past_2_53_names_latency(self, tmp_path, capsys, override):
        # floored phases before t = 0 are exact only up to 2**53 ticks
        rc = main(["simulate", "--model", "afm", "--scenario",
                   str(SCENARIOS / "triangle_pi.json"), "--out", str(tmp_path / "out"),
                   "--set", override])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: afm.latency: latency[0] reaches ") and "2**53" in err


    def test_phases_past_2_53_by_t_end_names_t_end(self, tmp_path, capsys):
        # a run whose phases pass 2**53 ticks is refused before any row is floored
        rc = main(["simulate", "--model", "afm", "--scenario",
                   str(SCENARIOS / "triangle_pi.json"), "--out", str(tmp_path / "out"),
                   "--set", "afm.p=1e300", "--set", "run.t_end=1e300",
                   "--set", "run.output_dt=1e298", "--set", "afm.d=0",
                   "--set", "controller.k_p=1e-300", "--set", "controller.k_i=1e-300"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: run.t_end: phases reach 1e+300 ticks by t_end, past 2**53\n")


@pytest.mark.parametrize("argv, code, columns", [
    (["analyze", "--resistance"], 0, None),
    (["analyze", "--performance", "--simulate", "--worst-case", "--lyapunov"], 0, None),
    (["sweep", "--param", "controller.k_p", "--values", "1e-8,2e-8"], 0, None),
    (["simulate", "--model", "afm"], 1, "(n + 2m)"),
    (["compare"], 1, "(n + 2m)"),
    (["simulate", "--model", "ode"], 1, "(n + m)"),
], ids=["analyze-resistance", "analyze-all", "sweep", "simulate-afm", "compare", "simulate-ode"])
def test_run_size_checked_by_the_run_that_would_make_it(tmp_path, capsys, monkeypatch, argv,
                                                         code, columns):
    # 1e7 rows make a frame-model run of about 1e9 trace cells: refused by the
    # commands that run a model, each under its own cell count, and not by
    # the closed-form analysis, which makes no run of that size
    monkeypatch.setattr("bittide_sim.afm.frame_offsets", RunStarted.refuse)
    if code:
        monkeypatch.setattr("bittide_sim.ode.rk4_step_operator", RunStarted.refuse)
    rc = main(argv + ["--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                      "--out", str(tmp_path), "--set", "run.output_dt=0.1"])
    err = capsys.readouterr().err
    assert rc == code, err
    if code:  # after any note
        last = err.splitlines()[-1]
        assert last.startswith("error: run.t_end: ") and "cell cap" in last and columns in last
    else:
        assert err == ""


TRIANGLE = str(SCENARIOS / "triangle_pi.json")


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--model", "xyz", "--scenario", TRIANGLE], 1),
    (["analyze", "--worst-case", "--gamma", "abc", "--scenario", TRIANGLE], 1),
    (["simulate", "--model", "afm"], 1),  # no --scenario
    # argparse reads -1,100 as a flag; --values=-1,100 is the way to write it
    (["sweep", "--param", "controller.k_p", "--values", "-1,100", "--scenario", TRIANGLE], 1),
    (["--help"], 0),
])
def test_usage_error_exits_1(tmp_path, capsys, argv, code):
    # argparse's own usage exit is 2, which the CLI keeps for runtime failures
    assert main(argv + ([] if code == 0 else ["--out", str(tmp_path / "out")])) == code
    out, err = capsys.readouterr()
    assert ("usage:" in (err if code else out)) and ("error:" in err) == (code == 1)
    assert not (tmp_path / "out").exists()


# every field of controller, afm and run, and the graph and frequencies fields;
# graph.rows and frequencies.two_node.* are set in a document of their form
FUZZED_PATHS = ([path for path, *_ in scenario._FIELDS]
                + ["graph.n", "graph.rows", "frequencies.omega_u"]
                + [f"frequencies.two_node.{key}" for key in ("i", "j", "alpha", "base")])
FORMS = {
    "graph.rows": {"graph": {"generator": "mesh", "rows": 1, "cols": 3}},
    "frequencies.two_node": {"frequencies": {"two_node": {"i": 0, "j": 2, "alpha": 5e-5,
                                                          "base": 1.0}}},
}
EXTREMES = [1e308, -1e308, 1e-320, -1e-320, -1, -0.5]
# extremes in range for the field they are put in: the document is valid
IN_RANGE = {
    "controller.k_p": (1e308, 1e-320), "controller.k_i": (1e308, 1e-320),
    "controller.omega_c": (1e308, 1e-320), "afm.p": (1e308,), "afm.d": (1e308, 1e-320),
    "afm.latency": (1e-320,), "afm.theta0": (1e-320,), "afm.omega_m1": (1e308,),
    "afm.omega_min": (1e-320,), "afm.omega_max": (1e308,),
    "run.t_end": (1e-320,), "run.output_dt": (1e308,),
    "frequencies.two_node.alpha": (1e-320, -1e-320),
}
# pairs of in-range extremes that are refused together, with the field named:
# omega_c * k_i overflows, and a node at omega_m1 until phase theta0 + d would
# make about 1e308 * t_end / p measurements
REFUSED_TOGETHER = {
    frozenset({("controller.k_i", 1e308), ("controller.omega_c", 1e308)}): "controller.k_i",
    frozenset({("afm.omega_m1", 1e308), ("afm.d", 1e308)}): "afm.p",
}
JUNK = st.one_of(
    st.sampled_from([None, True, False, math.nan, math.inf, -math.inf, 10**400, *EXTREMES]),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.lists(st.just(0.3), max_size=2), min_size=1, max_size=7),  # nested
    st.lists(st.just(0.3), max_size=8).filter(lambda v: len(v) not in (3, 6)),  # wrong length
)


def fuzzed_run(tmp_path_factory, sets):
    """Run simulate on small_triangle_doc with each (path, value) of sets put in.

    Each path is set in a document of its form. Returns the exit code, or None
    if the run started, and stderr.
    """
    doc = small_triangle_doc()
    for path, _ in sets:
        form = next((FORMS[p] for p in (path, path.rsplit(".", 1)[0]) if p in FORMS), {})
        doc.update(copy.deepcopy(form))
    for path, value in sets:
        *sections, key = path.split(".")
        node = doc
        for section in sections:
            node = node[section]
        node[key] = value
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    scn = write_doc(tmp, doc)
    err = io.StringIO()
    with mock.patch("bittide_sim.afm.frame_offsets", RunStarted.refuse), \
            contextlib.redirect_stderr(err):
        try:
            rc = main(["simulate", "--model", "afm", "--scenario", str(scn),
                       "--out", str(tmp / "out")])
        except RunStarted:
            rc = None
    assert "Traceback" not in err.getvalue()
    return rc, err.getvalue()


def in_range(path, value):
    return type(value) is float and value in IN_RANGE.get(path, ())


def check_fuzzed(tmp_path_factory, sets):
    """Run the sets and check the exit against IN_RANGE and REFUSED_TOGETHER."""
    rc, err = fuzzed_run(tmp_path_factory, sets)
    if all(in_range(path, value) for path, value in sets):
        field = REFUSED_TOGETHER.get(frozenset(sets))
        assert rc == (None if field is None else 1), (sets, err)
        assert field is None or err.startswith(f"error: {field}: "), (sets, err)
        return
    assert rc == 1, sets
    assert any(err.startswith(f"error: {path.split('.')[0]}") for path, _ in sets), (sets, err)


class TestFuzzedField:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(path=st.sampled_from(FUZZED_PATHS), value=JUNK)
    def test_junk_is_refused_with_its_section_named(self, tmp_path_factory, path, value):
        check_fuzzed(tmp_path_factory, [(path, value)])

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(paths=st.lists(st.sampled_from(FUZZED_PATHS), min_size=2, max_size=2, unique=True),
           values=st.tuples(JUNK, JUNK))
    def test_junk_in_two_fields_is_refused_with_a_section_named(self, tmp_path_factory,
                                                                 paths, values):
        check_fuzzed(tmp_path_factory, list(zip(paths, values)))

    def test_every_extreme_and_every_in_range_pair(self, tmp_path_factory):
        # the hypothesis tests draw only some of these; every one is run here
        for path in FUZZED_PATHS:
            for value in EXTREMES:
                check_fuzzed(tmp_path_factory, [(path, value)])
        in_range_sets = [(path, value) for path, values in IN_RANGE.items() for value in values]
        for first, second in itertools.combinations(in_range_sets, 2):
            if first[0] != second[0]:
                check_fuzzed(tmp_path_factory, [first, second])


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# commands the fuzz runs on each document, with the exit codes they may give
FUZZED_COMMANDS = (["simulate", "--model", "afm"], ["simulate", "--model", "ode"], ["compare"],
                   ["analyze", "--resistance", "--performance", "--simulate", "--worst-case"])
SECTIONS = ("graph", "frequencies", "controller", "afm", "run")


@st.composite
def small_documents(draw):
    """Documents of at most 6 nodes, at magnitudes scaled to the drawn gain.

    One document in five has one field set to an extreme value, which may be
    in range or not.
    """
    form = draw(st.sampled_from(("complete", "path", "mesh", "edges")))
    if form == "mesh":
        graph = {"generator": "mesh", "rows": draw(st.integers(1, 2)),
                 "cols": draw(st.integers(1, 3))}
        n = graph["rows"] * graph["cols"]
    else:
        n = draw(st.integers(1, 6))
        graph = {"generator": form, "n": n}
        if form == "edges":
            pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            graph = {"n": n, "edges": draw(st.lists(pairs, max_size=8))}
    spread = draw(_log_uniform(-9, -1))
    if draw(st.booleans()):
        freqs = {"omega_u": [1.0 + spread * draw(st.floats(-1, 1)) for _ in range(n)]}
    else:
        freqs = {"two_node": {"i": 0, "j": n - 1, "alpha": spread}}
    k_p = draw(_log_uniform(-8, -1))
    omega_c = draw(_log_uniform(-1, 1))
    # k_i near k_p^2, so that the fastest and slowest modes are a few decades apart
    k_i = k_p * k_p / omega_c * draw(_log_uniform(-1.5, 1.5))
    t_end = draw(_log_uniform(0, 2.5)) / k_p
    p = t_end / draw(_log_uniform(0.3, 3.3))  # measurements per node
    doc = {
        "graph": graph, "frequencies": freqs,
        "controller": {"k_p": k_p, "k_i": k_i, "omega_c": omega_c},
        "afm": {"p": p, "d": p * draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))),
                "latency": p * draw(st.floats(0.0, 3.0)),
                "beta_max": 2 * draw(st.integers(1, 256)),
                "theta0": draw(st.floats(0.05, 0.95))},
        "run": {"t_end": t_end, "output_dt": t_end / draw(_log_uniform(0.0, 3.0))},
    }
    if draw(st.integers(0, 4)) == 0:
        section, key = draw(st.sampled_from([path for path, *_ in scenario._FIELDS])).split(".")
        doc.setdefault(section, {})[key] = draw(st.sampled_from(EXTREMES))
    return doc


def small_enough(doc) -> bool:
    """Whether a document the loader accepts keeps every command small.

    At most 1e3 output rows, and at most 2e4 measurements and 2e4 RK4 steps,
    the analyze horizon's included. A document the loader refuses, or whose
    gains leave no step to count with, is small: the commands refuse it.
    """
    try:
        graph, scn, gains = scenario.load_scenario_dict(copy.deepcopy(doc))
        sd = spectral_data(graph)
        steps = (scn.t_end / output_time_step(sd, gains, scn.output_dt),
                 30.0 / abs(spectral_abscissa(sd, gains)) / default_time_step(sd, gains),
                 sum(scn.uncorrected_freq) * scn.t_end / scn.meas_period)
    except (scenario.ScenarioError, ParameterError):
        return True
    return scn.t_end / scn.output_dt <= 1e3 and all(s <= 2e4 for s in steps)


class TestCommandFuzz:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(doc=small_documents())
    def test_commands_exit_cleanly(self, tmp_path_factory, doc):
        # a document either runs (0), is refused with its field named (1), or
        # ends in a named runtime failure (2); no exception escapes, and the
        # only warning is the fluid horizon's
        assume(small_enough(doc))
        tmp = tmp_path_factory.getbasetemp() / "command_fuzz"
        tmp.mkdir(exist_ok=True)
        scn = write_doc(tmp, doc)
        for command in FUZZED_COMMANDS:
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main(command + ["--scenario", str(scn), "--out", str(tmp / "out")])
            assert rc in (0, 1, 2), (command, doc, err.getvalue())
            if rc == 1:  # after any note
                assert any(line.startswith(tuple(f"error: {s}" for s in SECTIONS))
                           for line in err.getvalue().splitlines()), (command, doc, err.getvalue())
            assert all(issubclass(w.category, InsufficientHorizonWarning) for w in caught), (
                command, doc, [str(w.message) for w in caught])


class TestGainsAtTheFloatRange:
    """Gains the command fuzz found ending in a traceback or a numpy warning."""

    @pytest.mark.parametrize("command, k_p, k_i, omega_c, field", [
        # omega_c * k_i overflowed to inf, and the first correction was nan
        (["simulate", "--model", "afm"], 0.1, 1e308, 10.0, "controller.k_i"),
        # 2 b lambda overflowed in the spectral abscissa's unused branch
        (["analyze", "--performance", "--simulate"], 0.1, 1e308, 1.0, "controller.k_i"),
        # the slowest rate underflowed to 0, so the horizon 30/0 raised
        (["analyze", "--performance", "--simulate"], 1e308, 1e-16, 1.0, "controller.k_p"),
        (["analyze", "--performance", "--simulate"], 1e10, 1e-320, 1.0, "controller:"),
    ])
    def test_refused_with_the_gain_named(self, tmp_path, capsys, command, k_p, k_i, omega_c,
                                         field):
        doc = small_triangle_doc()
        doc["graph"] = {"generator": "path", "n": 3}  # lambda = 1 and 3
        doc["controller"] = {"k_p": k_p, "k_i": k_i, "omega_c": omega_c}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(command + ["--scenario", str(write_doc(tmp_path, doc)),
                                 "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {field}")


class TestErrorOrder:
    @pytest.mark.parametrize("sets, field", [
        # every field's type is checked, in document order, before any range rule
        (["controller.k_p=-1", 'afm.p="x"'], "afm.p"),
        (['afm.omega_min="x"', 'afm.p="x"'], "afm.p"),
        (["controller.k_p=-1", "afm.p=0"], "controller.k_p"),
    ])
    def test_types_before_ranges_in_document_order(self, tmp_path, capsys, sets, field):
        argv = ["analyze", "--performance", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                "--out", str(tmp_path / "out")]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: ")


class TestCompare:
    def test_fig_style_comparison(self, tmp_path):
        scn = small_triangle(tmp_path)
        out = tmp_path / "out"
        rc = main(["compare", "--scenario", str(scn), "--out", str(out),
                   "--set", "afm.latency=0.0", "--set", "afm.d=0.0",
                   "--set", "afm.p=100", "--set", "afm.beta_max=1024"])
        assert rc == 0
        tree = read_report(out / "comparison.json")
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
        tree = read_report(tmp_path / "analysis.json")
        perf = tree["reports"][0]
        assert perf["freq_dev_norm_sq"] == pytest.approx(0.175, rel=0.01)

    def test_performance_with_empirical_check(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(tmp_path), "--performance", "--simulate"])
        assert rc == 0
        tree = read_report(tmp_path / "analysis.json")
        kinds = {r["type"]: r for r in tree["reports"]}
        emp = kinds["performance_empirical"]
        assert emp["freq_dev_norm_sq"] == pytest.approx(0.175, rel=0.01)
        assert emp["freq_rel_gap"] <= 0.01
        assert emp["occ_rel_gap"] <= 0.01
        # Simpson's rule leaves 1.08e-8 here; the trapezoid rule left 1.63e-4
        assert emp["freq_rel_gap"] <= 1e-7

    def test_simulate_horizon_from_closed_form_abscissa(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(tmp_path), "--performance", "--simulate"])
        assert rc == 0
        tree = read_report(tmp_path / "analysis.json")
        emp = {r["type"]: r for r in tree["reports"]}["performance_empirical"]
        graph, _, gains = load_scenario(SCENARIOS / "triangle_pi.json")
        assert emp["horizon"] == 30.0 / abs(spectral_abscissa(spectral_data(graph), gains))

    def test_simulate_horizon_names_controller(self, tmp_path, capsys, monkeypatch):
        # the --simulate horizon is 30/|spectral abscissa|, not run.t_end
        monkeypatch.setattr("bittide_sim.ode.rk4_step_operator", RunStarted.refuse)
        for name, override, cap in (
            ("triangle_pi", "controller.k_p=1e3", "run-size cap"),
            # 3.9e5 RK4 steps of 400 + 760 cells
            ("mesh_close_pair", 'graph={"generator": "mesh", "rows": 20, "cols": 20}',
             "cell cap"),
        ):
            rc = main(["analyze", "--scenario", str(SCENARIOS / f"{name}.json"),
                       "--out", str(tmp_path), "--performance", "--simulate", "--set", override])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: controller: ")
            assert "--simulate horizon" in err and cap in err

    def test_overflowing_gain_horizon_names_controller(self, tmp_path, capsys):
        # (k_p lambda)^2 overflows; the abscissa stays negative, so the horizon is
        # refused by the run-size cap rather than divided by a zero abscissa
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(tmp_path), "--performance", "--simulate",
                   "--set", "controller.k_p=1e300"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: controller: ") and "run-size cap" in err

    def test_lyapunov_residuals(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(tmp_path), "--lyapunov"])
        assert rc == 0
        tree = read_report(tmp_path / "analysis.json")
        kinds = {r["type"]: r for r in tree["reports"]}
        assert kinds["hurwitz"]["is_hurwitz"] is True
        cert = kinds["lyapunov_certificate"]
        assert cert["residual1"] <= 1e-9
        assert cert["residual2"] <= 1e-9

    @pytest.mark.xfail(strict=True, raises=PositivityViolationError,
                       reason="the dense x1's smallest eigenvalue, about b^3/(4 a^2 lambda), "
                              "is below eigvalsh's rounding until a per-block certificate "
                              "replaces the dense one")
    def test_lyapunov_at_ordinary_gain(self, tmp_path):
        # min eig x1 is -1.6e-17 at k_p = 0.1, while 1e-3, 1 and 10 pass
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(tmp_path), "--lyapunov", "--set", "controller.k_p=0.1"])
        assert rc == 0

    def test_lyapunov_reports_closed_form_abscissa(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(tmp_path), "--lyapunov"])
        assert rc == 0
        tree = read_report(tmp_path / "analysis.json")
        graph, _, gains = load_scenario(SCENARIOS / "mesh_close_pair.json")
        assert tree["reports"][0] == {
            "type": "hurwitz", "is_hurwitz": True,
            "spectral_abscissa": spectral_abscissa(spectral_data(graph), gains)}

    def test_worst_case(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(tmp_path), "--worst-case"])
        assert rc == 0
        tree = read_report(tmp_path / "analysis.json")
        wc = tree["reports"][0]
        assert wc["degenerate"] is True  # complete graph has repeated lambda_2
        assert wc["attained_quadratic_form"] == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_no_flags_is_error(self, tmp_path):
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("flags", [[], ["--simulate"]])
    def test_flags_checked_before_any_work(self, tmp_path, capsys, monkeypatch, flags):
        def refuse(graph):
            raise AssertionError("analyze factorised a graph it had no report for")

        monkeypatch.setattr(cli, "spectral_data", refuse)
        out = tmp_path / "out"
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(out)] + flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: pick at least one of ")
        assert not out.exists()

    def test_simulate_needs_performance(self, tmp_path, capsys):
        # refused before the scenario is read: the file does not exist
        out = tmp_path / "out"
        rc = main(["analyze", "--scenario", str(tmp_path / "missing.json"),
                   "--out", str(out), "--resistance", "--simulate"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --simulate needs --performance\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, flag, sets, field", [
        # omega_u used to win over two_node, and the mesh generator over the edge list
        ("triangle_pi", "--performance",
         ['frequencies.two_node={"i":0,"j":1,"alpha":1}'], "frequencies.two_node"),
        ("mesh_close_pair", "--resistance", ["graph.edges=[[0,1]]", "graph.n=2"], "graph.edges"),
    ])
    def test_key_of_another_form_refused(self, tmp_path, capsys, name, flag, sets, field):
        out = tmp_path / "out"
        rc = main(["analyze", "--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(out),
                   flag, *[a for s in sets for a in ("--set", s)]])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: not held by the ")
        assert not out.exists()

    @pytest.mark.parametrize("gamma", ["-1", "0", "nan", "inf"])
    def test_gamma_must_be_finite_and_positive(self, tmp_path, capsys, gamma):
        out = tmp_path / "out"
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(out), "--worst-case", "--gamma", gamma])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: gamma: ")
        assert not out.exists()

    def test_strict_reader_refuses_infinity(self, tmp_path):
        (tmp_path / "r.json").write_text('{"x": Infinity}')
        with pytest.raises(ValueError, match="Infinity"):
            read_report(tmp_path / "r.json")

    def test_gamma_overflowing_the_quadratic_form_refused(self, tmp_path, capsys):
        # lambda_2 = 3 on the triangle: gamma = 1e150 gives 3.3e299, 1e200 overflows
        args = ["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"), "--worst-case"]
        assert main(args + ["--out", str(tmp_path / "ok"), "--gamma", "1e150"]) == 0
        tree = read_report(tmp_path / "ok" / "analysis.json")
        assert tree["reports"][0]["attained_quadratic_form"] == pytest.approx(1e300 / 3, rel=1e-12)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(args + ["--out", str(out), "--gamma", "1e200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma: ") and "Traceback" not in err
        assert not (out / "analysis.json").exists()

    @pytest.mark.parametrize("sets", [
        ["controller.k_p=1e-320"],  # 2 a b underflows to zero
        ["controller.k_p=1e-200", "controller.k_i=1e-200"],
        ["controller.k_p=1e-310"],  # 2 a b is subnormal and q / (2 a b) overflows
    ])
    def test_norms_outside_float_range_name_controller(self, tmp_path, capsys, sets):
        out = tmp_path / "out"
        rc = main(["analyze", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(out), "--performance", *[a for s in sets for a in ("--set", s)]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: controller: ") and "float range" in err
        assert not (out / "analysis.json").exists()

    def test_readme_report_keys(self, tmp_path, capsys):
        # each report's keys are its type plus its result's fields
        rc = main(["analyze", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(tmp_path), "--resistance", "--performance", "--simulate",
                   "--lyapunov", "--worst-case"])
        assert rc == 0
        tree = read_report(tmp_path / "analysis.json")
        assert {r["type"]: sorted(r) for r in tree["reports"]} == {
            "resistance": ["max", "mean_offdiag", "n", "table", "type"],
            "worst_case": ["attained_quadratic_form", "degenerate", "omega_u", "type"],
            "performance": ["freq_dev_norm_sq", "integral_gain_scaled", "k_p",
                            "occupancy_norm_sq", "quadratic_form", "type"],
            "performance_empirical": ["freq_dev_norm_sq", "freq_rel_gap", "horizon",
                                      "occ_rel_gap", "occupancy_norm_sq", "type"],
            "hurwitz": ["is_hurwitz", "spectral_abscissa", "type"],
            "lyapunov_certificate": ["min_eig_x1", "min_eig_x2", "residual1", "residual2",
                                     "residual_sum", "type"],
        }
        assert [r["type"] for r in tree["reports"]] == [
            "resistance", "worst_case", "performance", "performance_empirical", "hurwitz",
            "lyapunov_certificate"]


class TestDisconnectedGraph:
    """A graph that is not connected is refused at load, naming the field."""

    @pytest.mark.parametrize("command", [
        ["simulate", "--model", "afm"], ["simulate", "--model", "ode"], ["compare"],
        ["analyze", "--resistance"]])
    @pytest.mark.parametrize("sets", [
        ['graph={"n":4,"edges":[[0,1],[2,3]]}', "frequencies.omega_u=[1.00005,1,1,0.99995]"],
        ['graph={"n":3,"edges":[]}']])
    def test_exit_1_names_graph(self, tmp_path, capsys, command, sets):
        argv = command + ["--scenario", str(SCENARIOS / "triangle_pi.json"),
                          "--out", str(tmp_path)]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: graph: ")

    def test_too_few_edges_refused_before_union_find(self, tmp_path, capsys, monkeypatch):
        # 2 edges cannot join 2,000,000 nodes: no union-find over the nodes runs
        def never(self):
            raise AssertionError("is_connected called")

        monkeypatch.setattr(OrientedGraph, "is_connected", never)
        argv = ["simulate", "--model", "afm", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                "--out", str(tmp_path), "--set", 'graph={"n": 2000000, "edges": [[0, 1], [1, 2]]}']
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: graph: not connected: 2 edges do not join all 2000000 nodes\n")


class GraphBuilt(Exception):
    """Raised by a stub generator: the graph got past the size check."""


class TestGraphSizeCap:
    """A graph whose n x m incidence matrix passes the run-size cap is refused unbuilt."""

    @pytest.fixture(autouse=True)
    def stub_generators(self, monkeypatch):
        # the refused sizes would exhaust memory if a generator ran
        def built(*args):
            raise GraphBuilt(args)

        for name in ("complete", "path", "mesh", "OrientedGraph"):
            monkeypatch.setattr(scenario, name, built)

    def run(self, tmp_path, *sets):
        argv = ["simulate", "--model", "afm", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                "--out", str(tmp_path)]
        for item in sets:
            argv += ["--set", item]
        return main(argv)

    @pytest.mark.parametrize("sets, field", [
        (["graph.n=1000"], "graph.n"),  # 499,500 edges
        (["graph.n=272"], "graph.n"),   # n*m = 10,024,832
        (['graph={"generator": "path", "n": 3163}'], "graph.n"),  # n*m = 10,001,406
        (['graph={"generator": "mesh", "rows": 100, "cols": 100}'], "graph.rows"),
        (['graph={"generator": "mesh", "rows": 1, "cols": 3163}'], "graph.rows"),
        (['graph={"n": 5000001, "edges": [[0, 1], [1, 2]]}'], "graph.n"),
    ])
    def test_refused_with_field_named(self, tmp_path, capsys, sets, field):
        assert self.run(tmp_path, *sets) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "run-size cap" in err

    @pytest.mark.parametrize("document, item, field", [
        ("mesh_close_pair.json", "graph.rows=1e308", "graph.rows"),
        ("mesh_close_pair.json", "graph.cols=1.7e308", "graph.rows"),
        ("triangle_pi.json", "graph.n=1e308", "graph.n"),
    ])
    def test_huge_sizes_print_a_short_line(self, tmp_path, capsys, document, item, field):
        # n, m and n*m pass the float range; as exact integers they ran to 900 digits
        argv = ["analyze", "--performance", "--scenario", str(SCENARIOS / document),
                "--out", str(tmp_path), "--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "run-size cap" in err
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("sets", [
        ["graph.n=271"],  # n*m = 9,914,535
        ['graph={"generator": "path", "n": 3162}'],  # n*m = 9,995,082
        ['graph={"generator": "mesh", "rows": 12, "cols": 12}'],  # n*m = 38,016
        ['graph={"n": 5000000, "edges": [[0, 1], [1, 2]]}'],  # n*m = 10,000,000
    ])
    def test_at_most_the_cap_is_built(self, tmp_path, sets):
        with pytest.raises(GraphBuilt):
            self.run(tmp_path, *sets)


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

    def test_jobs_flag_changes_nothing(self, tmp_path):
        # --jobs still parses, and the points run in this process either way
        args = ["sweep", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                "--param", "controller.k_p", "--values", "1e-8,3e-8,2e-8,4e-8"]
        rc1 = main(args + ["--out", str(tmp_path / "plain")])
        rc2 = main(args + ["--out", str(tmp_path / "jobs"), "--jobs", "2"])
        assert rc1 == rc2 == 0
        assert ((tmp_path / "plain" / "sweep.csv").read_bytes()
                == (tmp_path / "jobs" / "sweep.csv").read_bytes())

    def test_process_pool_never_imported(self, tmp_path):
        # a fresh interpreter that loads the CLI and runs a --jobs 2 sweep
        # does not pay for concurrent.futures
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["sweep", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                "--out", str(tmp_path / "out"), "--param", "controller.k_p",
                "--values", "1e-8,2e-8", "--jobs", "2"]
        code = ("import sys, bittide_sim.cli\n"
                "loaded = 'concurrent.futures' in sys.modules\n"
                f"rc = bittide_sim.cli.main({argv!r})\n"
                "print(loaded, rc, 'concurrent.futures' in sys.modules, file=sys.stderr)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stderr.strip() == "False 0 False"
        assert (tmp_path / "out" / "sweep.csv").read_text().count(",ok,") == 2

    def test_one_factorisation_per_graph(self, tmp_path, monkeypatch):
        calls = []

        def counted(graph):
            calls.append(graph)
            return spectral_data(graph)

        monkeypatch.setattr(cli, "spectral_data", counted)
        args = ["sweep", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                "--out", str(tmp_path / "out"), "--jobs", "2"]
        assert main(args + ["--param", "controller.k_p",
                            "--values", "1e-8,2e-8,3e-8,4e-8"]) == 0
        assert len(calls) == 1
        # the cache lasts one sweep: the next factorises again
        assert main(args + ["--param", "controller.k_i", "--values", "1e-15,2e-15"]) == 0
        assert len(calls) == 2
        # three points on two graphs
        assert main(args + ["--param", "graph.cols", "--values", "6,5,6"]) == 0
        assert len(calls) == 4

    @pytest.mark.parametrize("param, sets, field", [
        ("controler.k_p", [], "controler"), ("controller.kp", [], "controller.kp"),
        ("controller", [], "controller"), ("frequencies.two_node", [], "frequencies.two_node"),
        ("afm.p.x", [], "afm.p.x"), ("afm.epoch.x", [], "afm.epoch"),
        ("controller.k_p", ["--set", "afm.beta_0=3"], "afm.beta_0"),
        # keys of another form of their section: a mesh holds no n, and
        # frequencies given by two_node hold no omega_u
        ("graph.n", [], "graph.n"), ("frequencies.omega_u", [], "frequencies.omega_u"),
        ("controller.k_p", ["--set", "graph.edges=[[0,1]]"], "graph.edges")])
    def test_key_not_a_value_refused(self, tmp_path, capsys, monkeypatch, param, sets, field):
        # checked once, before any point runs: no point loads a document
        def refuse(doc):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(cli, "load_scenario_dict", refuse)
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(out), "--param", param, "--values", "1e-8,2e-8", *sets])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and err.count("error") == 1
        assert not out.exists()

    @pytest.mark.parametrize("values", ["1e-8,nan,2e-8", "inf", "-inf,1e-8"])
    def test_values_not_finite_refused(self, tmp_path, capsys, values):
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(SCENARIOS / "mesh_close_pair.json"),
                   "--out", str(out), "--param", "controller.k_p", f"--values={values}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: values: ")
        assert not out.exists()

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

    def test_error_rows_quoted(self, tmp_path, capsys):
        # the status of the refused point holds a comma
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(out), "--param", "controller.k_p", "--values=-1e-8,1e-8"])
        assert rc == 2
        text = (out / "sweep.csv").read_text()
        assert capsys.readouterr().out == text
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(r) for r in rows] == [5, 5, 5]
        assert rows[1][:2] == ["-1e-08", "error: controller.k_p: k_p must be > 0, got -1e-08"]
        assert rows[1][2:] == ["", "", ""]
        # an ok row is written as before: repr of every float, no quotes
        ok = text.splitlines()[2]
        assert ok == ",".join([repr(1e-8), "ok", *(repr(float(v)) for v in rows[2][2:])])

    def test_norms_outside_float_range_fail_one_point(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(SCENARIOS / "triangle_pi.json"),
                   "--out", str(out), "--param", "controller.k_p", "--values", "1e-8,1e-320"])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err
        rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[1][:2] == ["1e-08", "ok"]
        assert rows[0][0] == "1e-320" and rows[0][1].startswith("error: ")
        assert "float range" in rows[0][1]

    def test_norms_outside_float_range_named_as_analyze_names_them(self, tmp_path, capsys):
        scn = str(SCENARIOS / "mesh_close_pair.json")
        rc = main(["sweep", "--scenario", scn, "--out", str(tmp_path / "sweep"),
                   "--param", "controller.k_p", "--values", "1e-308,2e-8"])
        assert rc == 2
        assert capsys.readouterr().err == "1 of 2 sweep points failed\n"
        rows = list(csv.reader(io.StringIO((tmp_path / "sweep" / "sweep.csv").read_text())))
        assert rows[1][:2] == ["1e-308", (
            "error: controller: k_p = 1e-308 and omega_c * k_i = 1e-15 put the L2 norms "
            "q/(2a) and q/(2ab) outside the float range")]
        assert rows[2][:2] == ["2e-08", "ok"]
        # analyze refuses the same gains with the same line
        assert main(["analyze", "--scenario", scn, "--out", str(tmp_path / "analyze"),
                     "--performance", "--set", "controller.k_p=1e-308"]) == 1
        assert capsys.readouterr().err == rows[1][1] + "\n"


def test_readme_command_lines_parse():
    # a README line that names a removed flag or command fails here
    readme = (SCENARIOS.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("bittide-sim ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.func.__name__ == f"cmd_{args.command}"
