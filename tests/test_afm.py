"""Tests for the frame-exact event-driven simulator."""

import math

import numpy as np
import pytest

from bittide_sim.afm import (AfmScenario, DiscreteControllerState, HistoryGapError,
                             InadmissibleControlError, PhaseHistory, TargetInPastError,
                             frame_offsets, occupancy, pi_controller_step,
                             simulate_afm)
from bittide_sim.graph import OrientedGraph, complete, path
from bittide_sim.ode import Gains, ParameterError
from helpers import make_scenario, random_connected_graph

GAINS = Gains(k_p=3e-5, k_i=2e-9, omega_c=1.0)


class TestPhaseHistory:
    def test_initial_covers_epoch(self):
        h = PhaseHistory.initial(0.1, 1.0, 1.5, -10.0)
        assert h.phase_at(-10.0) == pytest.approx(0.1 - 10.0)
        assert h.phase_at(0.0) == 0.1
        assert h.phase_at(2.0) == pytest.approx(0.1 + 3.0)

    def test_slope_right_continuous(self):
        h = PhaseHistory.initial(0.1, 1.0, 2.0, -1.0)
        assert h.slope_at(-0.5) == 1.0
        assert h.slope_at(0.0) == 2.0

    def test_gap_raises(self):
        h = PhaseHistory.initial(0.1, 1.0, 1.0, -1.0)
        with pytest.raises(HistoryGapError):
            h.phase_at(-1.5)

    def test_lookups_reach_every_segment(self):
        h = PhaseHistory.initial(0.5, 1.0, 1.0, -5.0)
        h.append_breakpoint(1.0, 1.5, 2.0)
        h.append_breakpoint(2.0, 3.5, 1.0)
        assert h.times == [-5.0, 0.0, 1.0, 2.0]
        assert h.phase_at(-4.5) == pytest.approx(-4.0)
        assert h.phase_at(0.5) == pytest.approx(1.0)
        assert h.phase_at(1.5) == pytest.approx(2.5)
        assert h.phase_at(3.0) == pytest.approx(4.5)
        with pytest.raises(HistoryGapError):
            h.phase_at(-5.5)


class TestNextPhaseCrossing:
    def test_single_segment(self):
        h = PhaseHistory([0.0], [0.1], [1.0])
        assert h.next_crossing(5.1) == pytest.approx(5.0)

    def test_crosses_breakpoint(self):
        # slope 1 until t=1 (phase 1.1), then slope 2: target 3.1 is 2 ticks later
        h = PhaseHistory([0.0, 1.0], [0.1, 1.1], [1.0, 2.0])
        assert h.next_crossing(3.1) == pytest.approx(2.0)

    def test_inversion_identity(self):
        h = PhaseHistory([0.0, 1.0, 3.0], [0.1, 1.35, 3.0], [1.25, 0.825, 1.1])
        for target in (0.1, 0.7, 1.35, 2.2, 3.0, 57.3):
            t = h.next_crossing(target)
            assert h.phase_at(t) == pytest.approx(target, abs=1e-9)

    def test_target_in_past(self):
        h = PhaseHistory([0.0], [0.1], [1.0])
        with pytest.raises(TargetInPastError):
            h.next_crossing(0.05)


class TestFrameOffsets:
    def test_zero_latency(self):
        # floors of theta0=0.1 vanish on both ends: offset equals beta0
        g = path(2)
        scn = make_scenario(g, (1.0, 1.0), GAINS, beta0=8, beta_max=16)
        assert frame_offsets(scn) == (8, 8)

    def test_prehistory_floor(self):
        # sender phase 2.5 at rate 1 looked up at t=-0.7 floors to 1
        g = path(2)
        scn = make_scenario(g, (1.0, 1.0), GAINS, latency=0.7,
                            theta0=(2.5, 0.1), beta0=8, beta_max=16)
        offs = frame_offsets(scn)
        assert offs[0] == 8 - math.floor(2.5 - 0.7) + 0  # link 0 -> 1
        assert offs[0] == 7

    def test_initial_occupancy_reproduced(self):
        rng = np.random.RandomState(0)
        g = OrientedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)))
        theta0 = tuple(rng.uniform(0.05, 4.95) for _ in range(4))
        theta0 = tuple(t if t != math.floor(t) else t + 0.1 for t in theta0)
        scn = make_scenario(g, (1.1, 0.9, 1.0, 1.05), GAINS,
                            latency=tuple(rng.uniform(0.0, 3.0) for _ in range(10)),
                            theta0=theta0, t_end=50.0, output_dt=10.0, p=10.0)
        trace = simulate_afm(scn)
        assert trace.times[0] == 0.0
        assert np.array_equal(trace.occupancy[0], np.array(scn.initial_occupancy))


class TestOccupancy:
    def test_identical_histories_pinned(self):
        h = PhaseHistory.initial(0.1, 1.0, 1.0, -1.0)
        for t in (0.0, 0.3, 2.7, 10.0):
            assert occupancy(h, h, 0.0, 8, t) == 8

    def test_direct_arithmetic(self):
        hj = PhaseHistory([0.0], [1.2], [2.0])
        hi = PhaseHistory([0.0], [0.4], [1.0])
        assert occupancy(hj, hi, 0.0, 0, 1.0) == math.floor(3.2) - math.floor(1.4)
        assert occupancy(hj, hi, 0.0, 0, 1.0) == 2

    def test_fast_receiver_drains(self):
        # sender at rate 1, receiver at rate 2: one frame lost per sender tick
        hj = PhaseHistory([0.0], [0.5], [1.0])
        hi = PhaseHistory([0.0], [0.5], [2.0])
        values = [occupancy(hj, hi, 0.0, 0, float(t)) for t in range(6)]
        assert values == [0, -1, -2, -3, -4, -5]


class TestPiControllerStep:
    def test_zero_input_zero_output(self):
        scn = make_scenario(path(2), (1.0, 1.0), GAINS)
        state = DiscreteControllerState(node=0)
        assert pi_controller_step(state, 0.0, scn) == 0.0
        assert state.integ == 0.0

    def test_proportional_arithmetic(self):
        scn = make_scenario(path(2), (1.0, 1.0), GAINS)
        state = DiscreteControllerState(node=0)
        assert pi_controller_step(state, 100.0, scn) == pytest.approx(3e-3)

    def test_integral_accumulation(self):
        scn = make_scenario(path(2), (1.0, 1.0), GAINS, p=1000.0)
        state = DiscreteControllerState(node=0)
        for _ in range(7):
            pi_controller_step(state, 5.0, scn)
        assert state.integ == pytest.approx(7 * 1000.0 * 5.0)

    def test_correction_uses_pre_update_integral(self):
        gains = Gains(k_p=0.0 + 1e-12, k_i=1.0, omega_c=1.0)
        scn = make_scenario(path(2), (1.0, 1.0), gains, p=10.0,
                            omega_min=0.01, omega_max=100.0)
        state = DiscreteControllerState(node=0)
        first = pi_controller_step(state, 1.0, scn)
        assert first == pytest.approx(0.0, abs=1e-10)  # integral was still zero
        second = pi_controller_step(state, 1.0, scn)
        assert second == pytest.approx(10.0, rel=1e-9)  # now integ = p*r

    def test_inadmissible_aborts(self):
        gains = Gains(k_p=1.0, k_i=1e-9, omega_c=1.0)
        scn = make_scenario(path(2), (1.0, 1.0), gains)
        state = DiscreteControllerState(node=0)
        with pytest.raises(InadmissibleControlError):
            pi_controller_step(state, 10.0, scn)  # c = 10 pushes past omega_max


class TestScenarioValidation:
    def test_integer_phase_rejected(self):
        with pytest.raises(ValueError, match="initial_phase"):
            make_scenario(path(2), (1.0, 1.0), GAINS, theta0=1.0)

    def test_odd_buffer_rejected(self):
        with pytest.raises(ValueError, match="buffer_capacity"):
            make_scenario(path(2), (1.0, 1.0), GAINS, beta_max=127)

    def test_late_epoch_rejected(self):
        g = path(2)
        kwargs = dict(
            graph=g, uncorrected_freq=(1.0, 1.0), initial_phase=(0.1, 0.1),
            startup_freq=(1.0, 1.0), prehistory_freq=(1.0, 1.0),
            initial_occupancy=(64, 64), buffer_capacity=128,
            latency=(5.0, 5.0), meas_period=1000.0, actuation_delay=100.0,
            gains=GAINS, omega_min=0.5, omega_max=2.0,
            t_end=100.0, output_dt=10.0,
        )
        with pytest.raises(ValueError, match="epoch"):
            AfmScenario(epoch=-10.0, **kwargs)  # needs <= -(5 + 100/0.5) = -205
        AfmScenario(epoch=-205.0, **kwargs)

    def test_run_size_cap(self):
        # checked when the scenario is built, so no run can start past the cap
        with pytest.raises(ParameterError, match="run-size cap") as info:
            make_scenario(path(2), (1.0, 1.0), GAINS, t_end=2e5, output_dt=1e-300)
        assert info.value.field == "output_dt"
        with pytest.raises(ParameterError, match="run-size cap") as info:
            make_scenario(path(2), (1.0, 1.0), GAINS, t_end=2e5, p=1e-9)
        assert info.value.field == "meas_period"
        # 2 nodes * 1e5 s / 0.02 ticks = 1e7 measurements: at the cap, not above it
        make_scenario(path(2), (1.0, 1.0), GAINS, t_end=1e5, p=0.02)

    def test_slow_startup_rejected(self):
        with pytest.raises(ValueError, match="startup_freq"):
            make_scenario(path(2), (1.0, 1.0), GAINS, omega_min=1.5, omega_max=2.0)


class TestSimulateAfm:
    def test_symmetric_scenario_inert(self):
        scn = make_scenario(complete(3), (1.0,) * 3, GAINS, latency=200.0,
                            p=1000.0, d=100.0, t_end=30000.0, output_dt=1000.0)
        trace = simulate_afm(scn)
        assert trace.occupancy.min() == trace.occupancy.max() == 64
        assert np.all(trace.freq == 1.0)
        assert all(ev.value == 0.0 for ev in trace.events if ev.kind == "hold")

    def test_hold_follows_measurement_by_delay_ticks(self):
        scn = make_scenario(complete(3), (1.0001, 1.0, 0.9999), GAINS,
                            latency=500.0, p=1000.0, d=100.0,
                            t_end=20000.0, output_dt=1000.0)
        trace = simulate_afm(scn, keep_histories=True)
        meas = {(ev.node, ev.k): ev.time for ev in trace.events if ev.kind == "measure"}
        for ev in trace.events:
            if ev.kind != "hold":
                continue
            h = trace.histories[ev.node]
            ticks = h.phase_at(ev.time) - h.phase_at(meas[(ev.node, ev.k)])
            assert ticks == pytest.approx(100.0, abs=1e-7)

    def test_occupancy_identity_exact(self):
        scn = make_scenario(complete(3), (1.0002, 1.0, 0.9999), GAINS,
                            latency=(50.0, 120.0, 30.0, 75.0, 200.0, 10.0),
                            p=500.0, d=50.0, t_end=20000.0, output_dt=500.0)
        trace = simulate_afm(scn, keep_histories=True)
        links = scn.graph.directed_links()
        for row, t in enumerate(trace.times):
            for q, (src, dst) in enumerate(links):
                lhs = int(trace.occupancy[row, q]) - scn.initial_occupancy[q]
                rhs = (
                    math.floor(trace.histories[src].phase_at(t - scn.latency[q]))
                    - math.floor(trace.histories[src].phase_at(-scn.latency[q]))
                    - math.floor(trace.histories[dst].phase_at(t))
                    + math.floor(trace.histories[dst].phase_at(0.0))
                )
                assert lhs == rhs

    def test_zero_latency_antisymmetry_and_conservation(self):
        scn = make_scenario(complete(3), (1.0001, 1.0, 0.9999), GAINS,
                            latency=0.0, p=500.0, d=50.0,
                            t_end=30000.0, output_dt=500.0)
        trace = simulate_afm(scn)
        offset = trace.occupancy - np.array(scn.initial_occupancy)
        # directed links 2l and 2l+1 are the two ends of edge l
        assert np.array_equal(offset[:, 0::2], -offset[:, 1::2])
        assert np.all(offset.sum(axis=1) == 0)

    def test_determinism(self):
        scn = make_scenario(complete(3), (1.0001, 1.0, 0.9999), GAINS,
                            latency=500.0, p=1000.0, d=100.0,
                            t_end=50000.0, output_dt=500.0)
        t1 = simulate_afm(scn)
        t2 = simulate_afm(scn)
        assert t1.events == t2.events
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.occupancy, t2.occupancy)
        assert np.array_equal(t1.freq, t2.freq)

    def test_phase_monotone_and_admissible(self):
        scn = make_scenario(complete(3), (1.0001, 1.0, 0.9999), GAINS,
                            latency=500.0, p=1000.0, d=100.0,
                            t_end=50000.0, output_dt=500.0)
        trace = simulate_afm(scn, keep_histories=True)
        for h in trace.histories:
            assert all(s > scn.omega_min for s in h.slopes)
            assert all(p2 > p1 for p1, p2 in zip(h.phases, h.phases[1:]))
        assert np.all(np.diff(trace.phase, axis=0) > 0)

    def test_buffer_bound_events_recorded(self):
        # weak gains cannot stop a 10% frequency gap: the buffer must hit a bound
        gains = Gains(k_p=1e-9, k_i=1e-15, omega_c=1.0)
        scn = make_scenario(path(2), (1.1, 0.9), gains, beta_max=8, beta0=4,
                            p=10.0, t_end=1000.0, output_dt=10.0)
        trace = simulate_afm(scn)
        kinds = {ev.kind for ev in trace.events}
        assert "overflow" in kinds and "underflow" in kinds

    def test_overlapping_corrections_in_flight(self):
        # actuation delay longer than the measurement period: several
        # corrections are pending at once and must take hold in order
        scn = make_scenario(complete(3), (1.0002, 1.0, 0.9998), GAINS,
                            latency=100.0, p=200.0, d=700.0,
                            t_end=50000.0, output_dt=1000.0)
        trace = simulate_afm(scn)
        for node in range(3):
            ks = [ev.k for ev in trace.events if ev.kind == "hold" and ev.node == node]
            assert ks == sorted(ks)
        meas = sum(1 for ev in trace.events if ev.kind == "measure")
        holds = sum(1 for ev in trace.events if ev.kind == "hold")
        assert meas > holds  # the last few corrections are still in flight

    def test_long_history_results_independent_of_keep_histories(self):
        scn = make_scenario(path(2), (1.00002, 0.99998), GAINS,
                            latency=5.0, p=10.0, d=3.0,
                            t_end=60000.0, output_dt=5000.0)
        plain = simulate_afm(scn)
        kept = simulate_afm(scn, keep_histories=True)
        # about 6000 holds per node: rows are looked up in long histories
        assert min(len(h.times) for h in kept.histories) > 4096
        assert plain.events == kept.events
        assert np.array_equal(plain.occupancy, kept.occupancy)
        assert np.array_equal(plain.freq, kept.freq)
        assert np.array_equal(plain.phase, kept.phase)

    def test_converges_toward_average(self):
        wu = (1.00005, 1.0, 0.99995)
        scn = make_scenario(complete(3), wu, GAINS, latency=500.0,
                            p=1000.0, d=100.0, t_end=200000.0, output_dt=2000.0)
        trace = simulate_afm(scn)
        avg = np.mean(wu)
        assert np.abs(trace.freq[-1] - avg).max() <= 1e-4 * avg
        assert np.abs(trace.occupancy[-1] - 64).max() <= 2


def bound_log_oracle(trace, scn):
    """The event log with bound hits placed by the rule, from the scalar lookups.

    Replays measure/hold events and sample rows in log order: a row at time T
    comes after every event at or before T. A measurement checks its node's
    incoming links just before its own entry; a row checks every link. Each
    link logs its first overflow and first underflow once, in ascending link
    order at each place.
    """
    links = scn.graph.directed_links()
    flagged = set()
    out = []

    def check(qs, t):
        for q in qs:
            src, dst = links[q]
            b = occupancy(trace.histories[src], trace.histories[dst], scn.latency[q],
                          trace.frame_offsets[q], t)
            kind = "overflow" if b > scn.buffer_capacity else "underflow" if b < 0 else None
            if kind and (q, kind) not in flagged:
                flagged.add((q, kind))
                out.append((t, dst, kind, q, float(b)))

    loop = [ev for ev in trace.events if ev.kind in ("measure", "hold")]
    rows = list(trace.times)
    j = 0
    for ev in loop:
        while j < len(rows) and rows[j] < ev.time:
            check(range(len(links)), rows[j])
            j += 1
        if ev.kind == "measure":
            check([q for q, (_, dst) in enumerate(links) if dst == ev.node], ev.time)
        out.append((ev.time, ev.node, ev.kind, ev.k, ev.value))
    for t in rows[j:]:
        check(range(len(links)), t)
    return out


class TestRowOracle:
    """Bulk trace rows against the scalar lookups on the returned histories."""

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_and_bound_events_match_scalar_lookups(self, seed):
        rng = np.random.RandomState(seed)
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n + 1))
        theta0 = tuple(float(t) for t in rng.uniform(0.05, 3.95, n))
        # rates 4% apart and weak gains: some buffer must reach a bound
        omega_u = 1.0 + rng.permutation(np.linspace(-0.02, 0.02, n))
        scn = make_scenario(
            g, omega_u, Gains(k_p=1e-6, k_i=1e-9, omega_c=1.0),
            latency=tuple(rng.uniform(0.0, 30.0, 2 * g.m)), p=10.0, d=float(rng.choice([0, 25])),
            theta0=theta0, beta_max=int(rng.choice([4, 8, 16])),
            t_end=float(rng.uniform(1000.0, 2000.0)), output_dt=7.0)
        trace = simulate_afm(scn, keep_histories=True)
        hists = trace.histories
        links = scn.graph.directed_links()
        for row, t in enumerate(trace.times.tolist()):
            assert trace.freq[row].tolist() == [h.slope_at(t) for h in hists]
            assert trace.phase[row].tolist() == [h.phase_at(t) for h in hists]
            assert trace.occupancy[row].tolist() == [
                occupancy(hists[src], hists[dst], scn.latency[q], trace.frame_offsets[q], t)
                for q, (src, dst) in enumerate(links)]
        logged = [(ev.time, ev.node, ev.kind, ev.k, ev.value) for ev in trace.events]
        assert logged == bound_log_oracle(trace, scn)
        assert any(ev.kind in ("overflow", "underflow") for ev in trace.events)
