"""Tests for scenario files, trace serialization, comparison, and reports."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bittide_sim import scenario
from bittide_sim.afm import AfmEvent, simulate_afm
from bittide_sim.analysis import (build_lyapunov_certificate, hurwitz_check,
                                  predicted_performance, worst_case_frequency)
from bittide_sim.cli import main
from bittide_sim.graph import OrientedGraph, complete, spectral_data
from bittide_sim.ode import build_full_system, build_reduced_system, simulate_ode
from bittide_sim.scenario import (MissingFieldError, ParseError,
                                  TraceTable, ValidationError, apply_overrides,
                                  compare_traces, emit_report, load_scenario,
                                  load_scenario_dict, read_trace, write_trace,
                                  events_path_for)
from helpers import (legacy_trace_text, make_scenario, save_scenario, scenario_to_dict,
                     two_node_perturbation)
from bittide_sim.ode import Gains

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
        # afm holds no epoch key, so one set late is refused as unknown
        doc = triangle_doc()
        doc["afm"]["epoch"] = -10.0
        with pytest.raises(ValidationError, match="afm.epoch: unknown key"):
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
        # the README's defaults
        assert (scn.meas_period, scn.actuation_delay, scn.latency) == (1000.0, 0.0, (0.0, 0.0))
        assert (scn.omega_min, scn.omega_max) == (0.5, 2.0)
        assert (scn.t_end, scn.output_dt) == (1e5, 1e5 / 400)

    @pytest.mark.parametrize("path, value, field, message", [
        ("controller.kp", 5, "controller.kp", "unknown key"),
        ("controler", {"k_p": 5}, "controler", "unknown key"),
        ("afm.beta_0", 3, "afm.beta_0", "unknown key"),
        ("run.tend", 3, "run.tend", "unknown key"),
        ("graph.col", 3, "graph.col", "unknown key"),
        ("frequencies.two_node", {"i": 0, "j": 1, "alpha": 1e-4, "bas": 1.0},
         "frequencies.two_node.bas", "unknown key"),
        ("afm", None, "afm", "expected a mapping"),
        ("frequencies", [1.0], "frequencies", "expected a mapping"),
        ("frequencies.two_node", 5, "frequencies.two_node", "expected a mapping"),
        ("afm.p", {"x": 1}, "afm.p", "expected a value"),
        # triangle_doc is the 'complete' form of graph and the 'omega_u' form of frequencies
        ("graph.rows", 3, "graph.rows", "not held by the 'complete' form of graph"),
        ("graph.edges", [[0, 1]], "graph.edges", "not held by the 'complete' form of graph"),
        ("frequencies.two_node", {"i": 0, "j": 1, "alpha": 1e-4},
         "frequencies.two_node", "not held by the 'omega_u' form of frequencies"),
    ])
    def test_key_outside_the_sections_refused(self, path, value, field, message):
        doc = apply_overrides(triangle_doc(), [f"{path}={json.dumps(value)}"])
        with pytest.raises(ValidationError, match=f"^{field}: {message}"):
            load_scenario_dict(doc)

    @pytest.mark.parametrize("graph, field, form", [
        ({"generator": "mesh", "rows": 3, "cols": 1, "n": 3}, "graph.n", "mesh"),
        ({"generator": "mesh", "rows": 1, "cols": 3, "edges": [[0, 1]]}, "graph.edges", "mesh"),
        ({"generator": "path", "n": 3, "cols": 3}, "graph.cols", "path"),
        ({"n": 3, "edges": [[0, 1], [1, 2]], "rows": 1}, "graph.rows", "edges"),
        ({"edges": [[0, 1], [1, 2]], "n": 3, "generator": "complete"}, "graph.edges",
         "complete"),
    ])
    def test_one_form_per_section(self, graph, field, form):
        doc = {**triangle_doc(), "graph": graph}
        with pytest.raises(ValidationError,
                           match=f"^{field}: not held by the '{form}' form of graph"):
            load_scenario_dict(doc)
        # given alone, each form loads
        del graph[field.split(".")[1]]
        load_scenario_dict(doc)

    def test_frequency_forms_exclude_each_other(self):
        two_node = {"i": 0, "j": 1, "alpha": 1e-5}
        doc = {**triangle_doc(), "frequencies": {"two_node": two_node, "omega_u": 1.0}}
        # the first form given is kept, and the other refused
        with pytest.raises(ValidationError, match="^frequencies.omega_u: not held by the "
                                                  "'two_node' form of frequencies"):
            load_scenario_dict(doc)
        del doc["frequencies"]["omega_u"]
        _, scn, _ = load_scenario_dict(doc)
        assert scn.uncorrected_freq == (1.0 + 1e-5, 1.0 - 1e-5, 1.0)

    def test_overrides(self):
        doc = triangle_doc()
        apply_overrides(doc, ["controller.k_p=6e-5", "afm.beta_max=256"])
        _, scn, gains = load_scenario_dict(doc)
        assert gains.k_p == 6e-5
        assert scn.buffer_capacity == 256

    def test_bad_override_flagged(self):
        with pytest.raises(ValidationError):
            apply_overrides({}, ["no-equals-sign"])


# (graph section, nodes, edges) of each form
_GRAPHS = [({"generator": "complete", "n": 3}, 3, 3), ({"generator": "path", "n": 4}, 4, 3),
           ({"generator": "mesh", "rows": 2, "cols": 2}, 4, 4),
           ({"n": 3, "edges": [[0, 1], [1, 2]]}, 3, 2)]


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _documents(draw):
    """Well-formed documents with in-range values; each optional field present or absent."""
    graph, n, m = draw(st.sampled_from(_GRAPHS))

    def scalar_or_list(strategy, count):
        return draw(st.one_of(strategy, st.lists(strategy, min_size=count, max_size=count)))

    def optional(section, key, value):
        if draw(st.booleans()):
            section[key] = value() if callable(value) else value
        return section.get(key)

    if draw(st.booleans()):
        freqs = {"omega_u": scalar_or_list(_floats(0.9, 1.1), n)}
    else:
        freqs = {"two_node": {"i": 0, "j": n - 1, "alpha": draw(_floats(0.0, 0.05))}}
        optional(freqs["two_node"], "base", draw(_floats(0.95, 1.05)))
    ctrl = {"k_p": draw(_floats(1e-9, 1e-3)), "k_i": draw(_floats(1e-15, 1e-8))}
    optional(ctrl, "omega_c", draw(_floats(0.5, 2.0)))
    afm, run = {}, {}
    optional(afm, "p", draw(_floats(10.0, 1e4)))
    optional(afm, "d", draw(_floats(0.0, 1e3)))
    optional(afm, "latency", lambda: scalar_or_list(_floats(0.0, 1e3), 2 * m))
    beta_max = optional(afm, "beta_max", draw(st.integers(1, 256)) * 2) or 128
    optional(afm, "beta0", lambda: scalar_or_list(st.integers(0, beta_max), 2 * m))
    optional(afm, "theta0", lambda: scalar_or_list(_floats(0.05, 0.95), n))
    optional(afm, "omega_m1", lambda: scalar_or_list(_floats(0.9, 1.1), n))
    optional(afm, "omega_m2", lambda: scalar_or_list(_floats(0.9, 1.1), n))
    optional(afm, "omega_min", draw(_floats(0.1, 0.8)))
    optional(afm, "omega_max", draw(_floats(1.5, 3.0)))
    t_end = optional(run, "t_end", draw(_floats(100.0, 1e5))) or 1e5
    optional(run, "output_dt", draw(_floats(t_end / 1000, t_end)))
    doc = {"graph": graph, "frequencies": freqs, "controller": ctrl}
    doc.update({name: section for name, section in (("afm", afm), ("run", run))
                if section or draw(st.booleans())})
    return doc


class TestResolvedDocument:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(doc=_documents())
    def test_save_then_load_gives_back_the_scenario(self, tmp_path_factory, doc):
        # a field that the loader reads and the resolved document drops, or the
        # other way round, comes back with its default instead of its value
        tmp = tmp_path_factory.getbasetemp()
        (tmp / "drawn.json").write_text(json.dumps(doc))
        loaded = load_scenario(tmp / "drawn.json")
        resolved = scenario_to_dict(*loaded)
        for path, *_ in scenario._FIELDS:
            section, _, key = path.partition(".")
            assert key in resolved[section], path
        save_scenario(*loaded, tmp / "resaved.json")
        assert load_scenario(tmp / "resaved.json") == loaded


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

    def test_views_and_contiguous_copies_write_the_same_bytes(self, tmp_path):
        rng = np.random.RandomState(5)
        g = complete(4)
        scn = make_scenario(g, 1.0 + rng.permutation(np.linspace(-0.02, 0.02, 4)),
                            Gains(k_p=1e-6, k_i=1e-9), p=10.0, d=25.0, beta_max=8,
                            latency=tuple(rng.uniform(0.0, 30.0, 2 * g.m)),
                            t_end=1500.0, output_dt=7.0)
        trace = simulate_afm(scn)
        assert any(ev.kind in ("overflow", "underflow") for ev in trace.events)
        assert not trace.occupancy.flags.c_contiguous
        copied = trace._replace(**{
            name: np.ascontiguousarray(getattr(trace, name))
            for name in ("freq", "occupancy")})
        texts = []
        for k, t in enumerate((trace, copied)):
            dest = tmp_path / f"trace_{k}.csv"
            # short blocks: events fall on rows of many blocks
            with mock.patch.object(scenario, "_WRITE_BLOCK_CELLS", 64):
                write_trace(t, dest)
            texts.append((dest.read_bytes(), events_path_for(dest).read_bytes()))
        assert texts[0] == texts[1]
        assert_same_text(texts[0][0].decode(), legacy_trace_text(trace))
        assert_same_text(texts[0][1].decode(), "time,node,kind,value\n" + "".join(
            f"{ev.time!r},{ev.node},{ev.kind},{ev.value!r}\n" for ev in trace.events))

    def test_event_log_off_its_rows_refused(self, tmp_path):
        scn = make_scenario(OrientedGraph(2, ((0, 1),)), (1.0001, 0.9999),
                            Gains(k_p=3e-5, k_i=2e-9), p=100.0, t_end=2000.0, output_dt=100.0)
        trace = simulate_afm(scn)
        t = trace.times
        assert t[0] == 0.0
        # a time between rows, -0.0 beside the 0.0 row, times before the first
        # and after the last row, and row times out of order
        for times in ([t[3], t[3] + (t[4] - t[3]) / 3], [-0.0, t[1]], [-1.0, t[0]],
                      [t[-1], t[-1] + 1.0], [t[4], t[3]], [t[5]]):
            events = tuple(AfmEvent(float(x), 1, "measure", k, 0.5)
                           for k, x in enumerate(times))
            hand_built = trace._replace(events=events)
            if len(times) == 1:  # on a trace with no rows
                hand_built = hand_built._replace(times=t[:0], freq=trace.freq[:0],
                                                 occupancy=trace.occupancy[:0])
            dest = tmp_path / "trace.csv"
            with pytest.raises(ValueError, match="time order"):
                write_trace(hand_built, dest)
            assert not dest.exists() and not events_path_for(dest).exists()

    def test_numpy_scalar_events_written_as_floats(self, tmp_path):
        scn = make_scenario(OrientedGraph(2, ((0, 1),)), (1.0001, 0.9999),
                            Gains(k_p=3e-5, k_i=2e-9), p=100.0, t_end=2000.0, output_dt=100.0)
        trace = simulate_afm(scn)
        # times and values numpy scalars, the times on rows
        events = (AfmEvent(trace.times[2], 0, "measure", 0, np.float64(2.0)),
                  AfmEvent(trace.times[3], 1, "hold", 0, np.float64(-1.5e-7)))
        dest = tmp_path / "trace.csv"
        write_trace(trace._replace(events=events), dest)
        assert events_path_for(dest).read_text() == (
            f"time,node,kind,value\n{float(trace.times[2])!r},0,measure,2.0\n"
            f"{float(trace.times[3])!r},1,hold,-1.5e-07\n")

    def test_fluid_trace(self, tmp_path):
        gains = Gains(k_p=0.2, k_i=0.05)
        sd = spectral_data(complete(4))
        trace = simulate_ode(build_full_system(sd, gains), np.array([1.1, 1.0, 0.9, 1.0]), 50.0)
        dest = tmp_path / "trace_ode.csv"
        write_trace(trace, dest)
        assert_same_text(dest.read_text(), legacy_trace_text(trace))

    @staticmethod
    def all_changed_blocks(trace):
        """For each block write_trace forms, whether every cell differs from the one above."""
        table = scenario._trace_table(trace)
        cells = _bits(np.column_stack([table.times, table.values]))
        changed = np.ones(cells.shape, dtype=bool)
        changed[1:] = cells[1:] != cells[:-1]
        rows = scenario._WRITE_BLOCK_CELLS // cells.shape[1]
        return [bool(changed[k:k + rows].all()) for k in range(0, cells.shape[0], rows)]

    def test_all_changed_blocks_write_the_oracle_bytes(self, tmp_path):
        # blocks whose every cell changes reuse no text; after them, and after
        # blocks of repeating rows, the text, the row carried into the next
        # block and event times on rows must still be the per-cell text
        rng = np.random.RandomState(19)
        sd = spectral_data(complete(5))
        # short enough that no frequency settles to its last bit
        fluid = simulate_ode(build_full_system(sd, Gains(k_p=0.2, k_i=0.05)),
                             np.array([1.1, 0.95, 1.02, 0.9, 1.03]), 20.0, dt=0.005)
        frame = simulate_afm(make_scenario(complete(3), (1.00005, 1.0, 0.99995),
                                           Gains(k_p=3e-5, k_i=2e-9), t_end=2000.0,
                                           output_dt=100.0))
        rows = 4000
        times = np.cumsum(rng.uniform(0.5, 1.5, rows))
        occupancy = 64 + np.cumsum(rng.choice([-2, -1, 1, 2], (rows, 6)), axis=0)
        on_rows = np.sort(rng.choice(rows, 12, replace=False))
        events = tuple(AfmEvent(float(times[r]), int(r % 3), "measure", k, float(r) / 7.0)
                       for k, r in enumerate(on_rows))
        hand_built = frame._replace(times=times, freq=rng.uniform(0.9, 1.1, (rows, 3)),
                                    occupancy=occupancy, events=events)
        # a block of every cell changing, then two whose columns 1.. repeat the
        # last row of the first block, so its text carries over, then changing rows
        width = 5
        block = scenario._WRITE_BLOCK_CELLS // (1 + width)
        values = rng.randn(4 * block + 9, width)
        values[block:3 * block, 1:] = values[block - 1, 1:]
        mixed = TraceTable(tuple(f"c{j}" for j in range(width)),
                           np.arange(values.shape[0], dtype=float), values)
        assert all(self.all_changed_blocks(fluid)) and len(self.all_changed_blocks(fluid)) > 1
        assert all(self.all_changed_blocks(hand_built))
        assert self.all_changed_blocks(mixed) == [True, False, False, True, True]
        for k, trace in enumerate((fluid, hand_built, mixed)):
            dest = tmp_path / f"trace_{k}.csv"
            write_trace(trace, dest)
            assert_same_text(dest.read_text(), legacy_trace_text(trace))
        assert_same_text(events_path_for(tmp_path / "trace_1.csv").read_text(),
                         "time,node,kind,value\n" + "".join(
                             f"{ev.time!r},{ev.node},{ev.kind},{ev.value!r}\n" for ev in events))

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
        return compare_traces(afm_trace, ode_trace)

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

    @pytest.mark.parametrize("name", ["triangle_pi", "mesh_close_pair", "mesh_far_pair"])
    def test_every_row_compared(self, tmp_path, capsys, name):
        # both models of one scenario span [0, t_end], so no frame-model row is left out;
        # the meshes' frame runs hit a buffer bound, so compare exits 2 after writing
        path, out = SCENARIOS / f"{name}.json", tmp_path / "out"
        expected = 0 if name == "triangle_pi" else 2
        assert main(["compare", "--scenario", str(path), "--out", str(out)]) == expected
        capsys.readouterr()
        frame = read_trace(out / "trace_afm.csv").times
        fluid = read_trace(out / "trace_ode.csv").times
        t_end = load_scenario(path)[1].t_end
        assert (frame[0], frame[-1]) == (fluid[0], fluid[-1]) == (0.0, t_end)
        report = json.loads((out / "comparison.json").read_text())["reports"][0]
        assert report["n_samples"] == frame.shape[0]

    def test_per_link_beta0_from_scenario(self):
        # each link's prediction starts from its own initial occupancy in the scenario
        gains = Gains(k_p=3e-5, k_i=2e-9)
        g = OrientedGraph(3, ((0, 1), (1, 2), (0, 2)))
        omega_u = (1.00005, 1.0, 0.99995)
        beta0 = (500, 530, 512, 490, 520, 505)
        scn = make_scenario(g, omega_u, gains, p=100.0, beta_max=1024, beta0=beta0,
                            t_end=20000.0, output_dt=200.0)
        afm_trace = simulate_afm(scn)
        ode_trace = simulate_ode(build_full_system(spectral_data(g), gains),
                                 np.array(omega_u), 20000.0)
        report = compare_traces(afm_trace, ode_trace)
        delta = np.column_stack([np.interp(afm_trace.times, ode_trace.times, ode_trace.delta[:, l])
                                 for l in range(g.m)])
        predicted = np.empty(afm_trace.occupancy.shape)
        predicted[:, 0::2] = np.array(beta0[0::2], dtype=float) - delta
        predicted[:, 1::2] = np.array(beta0[1::2], dtype=float) + delta
        occ_dev = np.abs(afm_trace.occupancy - predicted)
        assert report.n_samples == afm_trace.times.shape[0]
        assert report.max_occ_dev == occ_dev.max()
        assert np.array_equal(report.occ_steady_dev, occ_dev[-1])
        # one shared beta0 would be off by up to 18 frames on these links
        assert report.max_occ_dev <= 2.0
        assert report._asdict().keys() == {
            "freq_steady_dev", "occ_steady_dev", "max_freq_dev", "max_occ_dev", "n_samples"}


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
        _, report = two_node_perturbation(sd, gains, 0, 1, 1e-4)
        tree = emit_report([report], tmp_path / "s.txt", tmp_path / "s.json")
        assert "0.17" in (tmp_path / "s.txt").read_text()
        assert tree["reports"][0]["type"] == "performance"

    def test_deterministic_ordering(self, tmp_path):
        sd = spectral_data(OrientedGraph(3, ((0, 1), (1, 2), (0, 2))))
        gains = Gains(k_p=0.1, k_i=0.05)
        red = build_reduced_system(sd, gains)
        reports = [
            hurwitz_check(sd, gains),
            build_lyapunov_certificate(red),
            predicted_performance(sd, gains, np.array([1.1, 1.0, 0.9])),
            worst_case_frequency(sd, 1.0),
        ]
        a = emit_report(reports, tmp_path / "a.txt", tmp_path / "a.json")
        b = emit_report(reports, tmp_path / "b.txt", tmp_path / "b.json")
        assert a == b
        for ext in ("txt", "json"):
            assert (tmp_path / f"a.{ext}").read_text() == (tmp_path / f"b.{ext}").read_text()
        assert [t["type"] for t in a["reports"]] == [
            "hurwitz", "lyapunov_certificate", "performance", "worst_case"]
