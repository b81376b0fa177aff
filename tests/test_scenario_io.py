"""Tests for scenario files, trace serialization, comparison, and reports."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bittide_sim import scenario
from bittide_sim.afm import simulate_afm
from bittide_sim.analysis import (build_lyapunov_certificate, hurwitz_check,
                                  predicted_performance, worst_case_frequency)
from bittide_sim.graph import OrientedGraph, complete, spectral_data
from bittide_sim.ode import build_full_system, build_reduced_system, simulate_ode
from bittide_sim.scenario import (GridMismatchError, MissingFieldError, ParseError,
                                  TraceTable, ValidationError, apply_overrides,
                                  compare_traces, emit_report, load_scenario,
                                  load_scenario_dict, read_trace, render_reports,
                                  save_scenario, write_trace, events_path_for)
from helpers import legacy_trace_text, make_scenario
from bittide_sim.ode import Gains


def triangle_doc():
    return {
        "graph": {"generator": "complete", "n": 3},
        "frequencies": {"omega_u": [1.00005, 1.0, 0.99995]},
        "controller": {"k_p": 3e-5, "k_i": 2e-9, "omega_c": 1.0},
        "afm": {"p": 1000, "d": 100, "latency": 500.0, "beta_max": 128,
                "theta0": 0.1, "omega_min": 0.5, "omega_max": 2.0},
        "run": {"t_end": 200000.0, "output_dt": 500.0},
    }


class TestLoadScenario:
    def test_loads_and_round_trips(self, tmp_path):
        src = tmp_path / "scn.json"
        src.write_text(json.dumps(triangle_doc()))
        graph, scn, gains = load_scenario(src)
        assert graph.n == 3 and graph.m == 3
        assert gains.k_p == 3e-5 and gains.k_i == 2e-9
        assert scn.meas_period == 1000.0 and scn.actuation_delay == 100.0
        assert scn.latency == (500.0,) * 6
        assert scn.initial_occupancy == (64,) * 6

        back = tmp_path / "resaved.json"
        save_scenario(graph, scn, gains, back)
        graph2, scn2, gains2 = load_scenario(back)
        assert graph2 == graph
        assert scn2 == scn
        assert gains2 == gains

    def test_two_node_perturbation_spec(self, tmp_path):
        doc = triangle_doc()
        doc["graph"] = {"generator": "mesh", "rows": 4, "cols": 6}
        doc["frequencies"] = {"two_node": {"i": 0, "j": 23, "alpha": 1e-4, "base": 1.0}}
        src = tmp_path / "scn.json"
        src.write_text(json.dumps(doc))
        graph, scn, _ = load_scenario(src)
        freqs = np.array(scn.uncorrected_freq)
        assert freqs[0] == 1.0 + 1e-4 and freqs[23] == 1.0 - 1e-4
        assert np.all(freqs[1:23] == 1.0)

    def test_explicit_edge_list(self):
        doc = triangle_doc()
        doc["graph"] = {"n": 3, "edges": [[0, 1], [1, 2]]}
        graph, _, _ = load_scenario_dict(doc)
        assert graph.edges == ((0, 1), (1, 2))

    def test_integer_phase_flagged(self):
        doc = triangle_doc()
        doc["afm"]["theta0"] = 1.0
        with pytest.raises(ValidationError, match="initial_phase"):
            load_scenario_dict(doc)

    def test_late_epoch_flagged(self):
        doc = triangle_doc()
        doc["afm"]["epoch"] = -10.0  # needs <= -(500 + 100/0.5) = -700
        with pytest.raises(ValidationError, match="epoch"):
            load_scenario_dict(doc)

    def test_missing_gain_flagged(self):
        doc = triangle_doc()
        del doc["controller"]["k_p"]
        with pytest.raises(MissingFieldError, match="controller.k_p"):
            load_scenario_dict(doc)

    def test_wrong_length_latency_flagged(self):
        doc = triangle_doc()
        doc["afm"]["latency"] = [1.0, 2.0]
        with pytest.raises(ValidationError, match="latency"):
            load_scenario_dict(doc)

    def test_bad_json_is_parse_error(self, tmp_path):
        src = tmp_path / "broken.json"
        src.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(src)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "nope.json")

    def test_defaults_applied(self):
        doc = {
            "graph": {"generator": "path", "n": 2},
            "frequencies": {"omega_u": [1.0, 1.0]},
            "controller": {"k_p": 1e-4, "k_i": 1e-8},
        }
        _, scn, gains = load_scenario_dict(doc)
        assert scn.buffer_capacity == 128
        assert scn.initial_occupancy == (64, 64)
        assert scn.initial_phase == (0.1, 0.1)
        assert scn.startup_freq == scn.uncorrected_freq
        assert gains.omega_c == 1.0

    def test_overrides(self):
        doc = triangle_doc()
        apply_overrides(doc, ["controller.k_p=6e-5", "afm.beta_max=256"])
        _, scn, gains = load_scenario_dict(doc)
        assert gains.k_p == 6e-5
        assert scn.buffer_capacity == 256

    def test_bad_override_flagged(self):
        with pytest.raises(ValidationError):
            apply_overrides({}, ["no-equals-sign"])


class TestTraceRoundTrip:
    def test_ode_trace_column_count(self, tmp_path):
        gains = Gains(k_p=0.2, k_i=0.05)
        sd = spectral_data(OrientedGraph(3, ((0, 1), (1, 2))))
        trace = simulate_ode(build_full_system(sd, gains), np.array([1.1, 1.0, 0.9]), 20.0)
        dest = tmp_path / "trace_ode.csv"
        write_trace(trace, dest)
        header = dest.read_text().splitlines()[0]
        assert len(header.split(",")) == 1 + 3 + 2  # t + n + m

    def test_round_trip_bit_exact(self, tmp_path):
        gains = Gains(k_p=0.2, k_i=0.05)
        sd = spectral_data(OrientedGraph(2, ((0, 1),)))
        trace = simulate_ode(build_full_system(sd, gains), np.array([1.1, 0.9]), 7.3)
        dest = tmp_path / "trace.csv"
        write_trace(trace, dest)
        table = read_trace(dest)
        assert np.array_equal(table.times, trace.times)
        assert np.array_equal(table.values[:, :2], trace.omega)
        assert np.array_equal(table.values[:, 2:], trace.delta)

    def test_afm_trace_with_events(self, tmp_path):
        scn = make_scenario(OrientedGraph(2, ((0, 1),)), (1.0001, 0.9999),
                            Gains(k_p=3e-5, k_i=2e-9), p=100.0,
                            t_end=2000.0, output_dt=100.0)
        trace = simulate_afm(scn)
        dest = tmp_path / "trace_afm.csv"
        write_trace(trace, dest)
        table = read_trace(dest)
        assert table.columns == ("omega_0", "omega_1", "beta_link0", "beta_link1")
        assert np.array_equal(table.values[:, 2:].astype(np.int64), trace.occupancy)
        events_file = events_path_for(dest)
        assert events_file.exists()
        lines = events_file.read_text().splitlines()
        assert lines[0] == "time,node,kind,value"
        assert len(lines) == 1 + len(trace.events)

    def test_empty_table_header_only(self, tmp_path):
        table = TraceTable(("omega_0",), np.zeros(0), np.zeros((0, 1)))
        dest = tmp_path / "empty.csv"
        write_trace(table, dest)
        assert dest.read_text() == "t,omega_0\n"
        back = read_trace(dest)
        assert back.columns == ("omega_0",)
        assert back.times.shape == (0,)


    def test_single_row_and_ragged_body(self, tmp_path):
        dest = tmp_path / "one.csv"
        dest.write_text("t,omega_0\n0.5,1.25\n")
        back = read_trace(dest)
        assert back.times.tolist() == [0.5]
        assert back.values.tolist() == [[1.25]]
        dest.write_text("t,omega_0\n0.5,1.25,3.0\n")
        with pytest.raises(ValueError, match="columns"):
            read_trace(dest)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_same_text(got: str, want: str) -> None:
    """Name the first differing line (pytest's diff of long texts takes minutes)."""
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        for k, (g, w) in enumerate(zip(got_lines, want_lines)):
            if g != w:
                pytest.fail(f"line {k}: {g!r} != {w!r}")
        pytest.fail(f"{len(got_lines)} lines written, {len(want_lines)} expected")


# finite floats, weighted toward signed zeros, subnormals and exponent switches
_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-05]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _tables(draw):
    """Tables whose rows are drawn from a few distinct rows, so rows repeat."""
    width = draw(st.integers(1, 4))
    distinct = draw(st.lists(st.lists(_CELLS, min_size=width + 1, max_size=width + 1),
                             min_size=1, max_size=5))
    order = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=40))
    rows = np.array([distinct[i] for i in order], dtype=float).reshape(len(order), width + 1)
    return TraceTable(tuple(f"c{j}" for j in range(width)), rows[:, 0].copy(),
                      rows[:, 1:].copy())


class TestTraceWriterOracle:
    """write_trace formats changed cells only; its text must equal the per-cell oracle."""

    def test_frame_trace_across_block_boundary(self, tmp_path):
        scn = make_scenario(complete(3), (1.00005, 1.0, 0.99995), Gains(k_p=3e-5, k_i=2e-9),
                            p=100.0, d=10.0, latency=50.0, beta_max=1024,
                            t_end=150000.0, output_dt=500.0)
        trace = simulate_afm(scn)
        table = scenario._trace_table(trace)
        first = scenario._WRITE_BLOCK_CELLS // (1 + len(table.columns))
        assert table.times.shape[0] > max(first, 1024)
        # the second block's first row has cells that change and cells that repeat
        cells = _bits(np.column_stack([table.times, table.values]))
        changes = cells[first] != cells[first - 1]
        assert changes.any() and not changes.all()
        assert len(trace.events) > scenario._WRITE_BLOCK_CELLS // 4
        dest = tmp_path / "trace_afm.csv"
        write_trace(trace, dest)
        assert_same_text(dest.read_text(), legacy_trace_text(trace))
        assert_same_text(events_path_for(dest).read_text(), "time,node,kind,value\n" + "".join(
            f"{ev.time!r},{ev.node},{ev.kind},{ev.value!r}\n" for ev in trace.events))

    def test_fluid_trace(self, tmp_path):
        gains = Gains(k_p=0.2, k_i=0.05)
        sd = spectral_data(complete(4))
        trace = simulate_ode(build_full_system(sd, gains), np.array([1.1, 1.0, 0.9, 1.0]), 50.0)
        dest = tmp_path / "trace_ode.csv"
        write_trace(trace, dest)
        assert_same_text(dest.read_text(), legacy_trace_text(trace))

    def test_signed_zeros_and_exponents(self, tmp_path):
        col = [0.0, -0.0, -0.0, 0.0, 5e-324, 5e-324, 1e16, 1e16, 1e-05, 0.0]
        values = np.column_stack([col, col[::-1], np.ones(len(col))])
        table = TraceTable(("a", "b", "c"), np.arange(len(col), dtype=float), values)
        dest = tmp_path / "t.csv"
        write_trace(table, dest)
        text = dest.read_text()
        assert_same_text(text, legacy_trace_text(table))
        assert text.splitlines()[2].startswith("1.0,-0.0,")

    def test_header_only(self, tmp_path):
        table = TraceTable(("omega_0", "beta_link0"), np.zeros(0), np.zeros((0, 2)))
        dest = tmp_path / "t.csv"
        write_trace(table, dest)
        assert dest.read_text() == legacy_trace_text(table) == "t,omega_0,beta_link0\n"

    @settings(max_examples=150, deadline=None)
    @given(table=_tables(), block_cells=st.integers(1, 40))
    def test_round_trip_property(self, tmp_path_factory, table, block_cells):
        dest = tmp_path_factory.getbasetemp() / "round_trip.csv"
        # small blocks put block boundaries at every few rows
        with mock.patch.object(scenario, "_WRITE_BLOCK_CELLS", block_cells):
            write_trace(table, dest)
        assert_same_text(dest.read_text(), legacy_trace_text(table))
        back = read_trace(dest)
        assert back.columns == table.columns
        assert back.times.shape == table.times.shape
        assert back.values.shape == table.values.shape
        assert np.array_equal(_bits(back.times), _bits(table.times))
        assert np.array_equal(_bits(back.values), _bits(table.values))


class TestCompareTraces:
    def _run_pair(self, graph, omega_u, gains, t_end=20000.0, flip=False):
        edges = tuple((v, u) if flip else (u, v) for u, v in graph.edges)
        g = OrientedGraph(graph.n, edges)
        scn = make_scenario(g, omega_u, gains, p=100.0, beta_max=1024,
                            t_end=t_end, output_dt=200.0)
        afm_trace = simulate_afm(scn)
        sd = spectral_data(g)
        ode_trace = simulate_ode(build_full_system(sd, gains),
                                 np.array(omega_u), t_end)
        return compare_traces(afm_trace, ode_trace, np.array(scn.initial_occupancy))

    def test_symmetric_scenario_zero_deviation(self):
        # both models are inert; only integrator rounding noise remains
        report = self._run_pair(OrientedGraph(3, ((0, 1), (1, 2), (0, 2))),
                                (1.0,) * 3, Gains(k_p=3e-5, k_i=2e-9))
        assert report.max_freq_dev <= 1e-12
        assert report.max_occ_dev <= 1e-9

    def test_quantization_bound(self):
        report = self._run_pair(OrientedGraph(2, ((0, 1),)), (1.00005, 0.99995),
                                Gains(k_p=3e-5, k_i=2e-9), t_end=100000.0)
        assert report.max_occ_dev <= 2.0

    def test_orientation_flip_invariant(self):
        gains = Gains(k_p=3e-5, k_i=2e-9)
        base = self._run_pair(OrientedGraph(2, ((0, 1),)), (1.00005, 0.99995), gains)
        flipped = self._run_pair(OrientedGraph(2, ((0, 1),)), (1.00005, 0.99995),
                                 gains, flip=True)
        assert base.max_occ_dev == pytest.approx(flipped.max_occ_dev, abs=1e-12)
        assert base.max_freq_dev == pytest.approx(flipped.max_freq_dev, abs=1e-12)

    def test_disjoint_windows_rejected(self):
        times_a = np.array([0.0, 1.0])
        times_b = np.array([5.0, 6.0])
        gains = Gains(k_p=0.2, k_i=0.1)
        sd = spectral_data(OrientedGraph(2, ((0, 1),)))
        ode_trace = simulate_ode(build_full_system(sd, gains), np.array([1.1, 0.9]), 1.0)
        scn = make_scenario(OrientedGraph(2, ((0, 1),)), (1.0, 1.0),
                            gains, t_end=1.0, output_dt=0.5, p=10.0)
        afm_trace = simulate_afm(scn)
        shifted = OdeShift(ode_trace, 5.0)
        with pytest.raises(GridMismatchError):
            compare_traces(afm_trace, shifted, 64.0)

    def test_pass_fail_thresholds(self):
        gains = Gains(k_p=3e-5, k_i=2e-9)
        g = OrientedGraph(2, ((0, 1),))
        omega_u = (1.00005, 0.99995)
        scn = make_scenario(g, omega_u, gains, p=100.0, beta_max=1024,
                            t_end=20000.0, output_dt=200.0)
        afm_trace = simulate_afm(scn)
        sd = spectral_data(g)
        ode_trace = simulate_ode(build_full_system(sd, gains), np.array(omega_u), 20000.0)
        beta0 = np.array(scn.initial_occupancy)
        loose = compare_traces(afm_trace, ode_trace, beta0, freq_tol=1.0, occ_tol=10.0)
        assert loose.freq_pass is True and loose.occ_pass is True
        strict = compare_traces(afm_trace, ode_trace, beta0, occ_tol=1e-12)
        assert strict.occ_pass is False and strict.freq_pass is None


class OdeShift:
    """Minimal stand-in exposing a time-shifted fluid trace."""

    def __init__(self, trace, offset):
        self.times = trace.times + offset
        self.omega = trace.omega
        self.delta = trace.delta


class TestEmitReport:
    def test_empty_input(self, tmp_path):
        tree = emit_report([], tmp_path / "s.txt", tmp_path / "s.json")
        assert tree == {"reports": []}
        assert (tmp_path / "s.txt").read_text() == ""
        assert json.loads((tmp_path / "s.json").read_text()) == {"reports": []}

    def test_contains_predicted_values(self, tmp_path):
        from bittide_sim.graph import mesh
        sd = spectral_data(mesh(4, 6))
        gains = Gains(k_p=2e-8, k_i=1e-15)
        from bittide_sim.analysis import two_node_perturbation
        _, report = two_node_perturbation(sd, gains, 0, 1, 1e-4)
        text, tree = render_reports([report])
        assert "0.17" in text
        assert tree["reports"][0]["type"] == "performance"

    def test_deterministic_ordering(self):
        sd = spectral_data(OrientedGraph(3, ((0, 1), (1, 2), (0, 2))))
        gains = Gains(k_p=0.1, k_i=0.05)
        red = build_reduced_system(sd, gains)
        reports = [
            hurwitz_check(red.a_hat),
            build_lyapunov_certificate(red, sd, gains),
            predicted_performance(sd, gains, np.array([1.1, 1.0, 0.9])),
            worst_case_frequency(sd, 1.0),
        ]
        a = render_reports(reports)
        b = render_reports(reports)
        assert a == b
        assert [t["type"] for t in a[1]["reports"]] == [
            "hurwitz", "lyapunov_certificate", "performance", "worst_case"]
