"""Tests for the frame-exact event-driven simulator."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bittide_sim.afm import (AfmScenario, InadmissibleControlError, PhaseHistory, frame_offsets,
                             simulate_afm)
from bittide_sim.graph import OrientedGraph, complete, mesh, path, spectral_data
from bittide_sim.ode import Gains, ParameterError
from bittide_sim.scenario import load_scenario_dict, read_document
from helpers import (DiscreteControllerState, RunStarted, TargetInPastError, make_scenario,
                     next_crossing, occupancy, phase_at, pi_controller_step,
                     random_connected_graph, sampled_root_modulus, slope_at)

GAINS = Gains(k_p=3e-5, k_i=2e-9, omega_c=1.0)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestPhaseHistory:
    def test_initial_extends_back_without_limit(self):
        h = PhaseHistory([0.0, 0.0], [0.1, 0.1], [1.0, 1.5])
        assert (h.times, h.phases, h.slopes) == ([0.0, 0.0], [0.1, 0.1], [1.0, 1.5])
        assert phase_at(h, -10.0) == pytest.approx(0.1 - 10.0)
        assert phase_at(h, 0.0) == 0.1
        assert phase_at(h, 2.0) == pytest.approx(0.1 + 3.0)
        w = 1.1625971882765693
        assert phase_at(PhaseHistory([0.0, 0.0], [0.1, 0.1], [w, 1.5]), -1e6) == 0.1 + w * -1e6

    def test_slope_right_continuous(self):
        h = PhaseHistory([0.0, 0.0], [0.1, 0.1], [1.0, 2.0])
        assert slope_at(h, -0.5) == 1.0
        assert slope_at(h, 0.0) == 2.0

    def test_lookups_reach_every_segment(self):
        h = PhaseHistory([0.0, 0.0], [0.5, 0.5], [1.0, 1.0])
        for t, ph, s in ((1.0, 1.5, 2.0), (2.0, 3.5, 1.0)):
            h.times.append(t)
            h.phases.append(ph)
            h.slopes.append(s)
        assert h.times == [0.0, 0.0, 1.0, 2.0]
        assert phase_at(h, -5.5) == pytest.approx(-5.0)
        assert phase_at(h, -4.5) == pytest.approx(-4.0)
        assert phase_at(h, 0.5) == pytest.approx(1.0)
        assert phase_at(h, 1.5) == pytest.approx(2.5)
        assert phase_at(h, 3.0) == pytest.approx(4.5)


class TestNextPhaseCrossing:
    def test_single_segment(self):
        h = PhaseHistory([0.0], [0.1], [1.0])
        assert next_crossing(h, 5.1) == pytest.approx(5.0)

    def test_crosses_breakpoint(self):
        # slope 1 until t=1 (phase 1.1), then slope 2: target 3.1 is 2 ticks later
        h = PhaseHistory([0.0, 1.0], [0.1, 1.1], [1.0, 2.0])
        assert next_crossing(h, 3.1) == pytest.approx(2.0)

    def test_inversion_identity(self):
        h = PhaseHistory([0.0, 1.0, 3.0], [0.1, 1.35, 3.0], [1.25, 0.825, 1.1])
        for target in (0.1, 0.7, 1.35, 2.2, 3.0, 57.3):
            t = next_crossing(h, target)
            assert phase_at(h, t) == pytest.approx(target, abs=1e-9)

    def test_target_in_past(self):
        h = PhaseHistory([0.0], [0.1], [1.0])
        with pytest.raises(TargetInPastError):
            next_crossing(h, 0.05)


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
        h = PhaseHistory([0.0, 0.0], [0.1, 0.1], [1.0, 1.0])
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
        # every pre-history is anchored at (0, theta0), so no epoch, late or
        # early, is accepted; the same arguments without one build a scenario
        g = path(2)
        kwargs = dict(
            graph=g, uncorrected_freq=(1.0, 1.0), initial_phase=(0.1, 0.1),
            startup_freq=(1.0, 1.0), prehistory_freq=(1.0, 1.0),
            initial_occupancy=(64, 64), buffer_capacity=128,
            latency=(5.0, 5.0), meas_period=1000.0, actuation_delay=100.0,
            gains=GAINS, omega_min=0.5, omega_max=2.0,
            t_end=100.0, output_dt=10.0,
        )
        with pytest.raises(TypeError, match="epoch"):
            AfmScenario(epoch=-10.0, **kwargs)
        AfmScenario(**kwargs)

    def test_run_size_cap(self, monkeypatch):
        # output rows are checked when the scenario is built, measurements by
        # simulate_afm before the run starts
        with pytest.raises(ParameterError, match="run-size cap") as info:
            make_scenario(path(2), (1.0, 1.0), GAINS, t_end=2e5, output_dt=1e-300)
        assert info.value.field == "output_dt"
        monkeypatch.setattr("bittide_sim.afm.frame_offsets", RunStarted.refuse)
        scn = make_scenario(path(2), (1.0, 1.0), GAINS, t_end=2e5, p=1e-9)
        with pytest.raises(ParameterError, match="run-size cap") as info:
            simulate_afm(scn)
        assert info.value.field == "meas_period"
        # 2 nodes * 1e5 s / 0.02 ticks = 1e7 measurements: at the cap, not above it
        with pytest.raises(RunStarted):
            simulate_afm(make_scenario(path(2), (1.0, 1.0), GAINS, t_end=1e5, p=0.02))

    def test_startup_rate_counts_toward_the_measurement_cap(self, monkeypatch):
        # a node runs at omega_m1 until its first correction holds, at phase
        # theta0 + d: 3 nodes * 1e5 ticks/s * 4e4 s / 1e3 ticks is 1.2e7
        # measurements, though omega_u alone gives 120
        monkeypatch.setattr("bittide_sim.afm.frame_offsets", RunStarted.refuse)
        scn = make_scenario(complete(3), (1.00005, 1.0, 0.99995),
                            Gains(k_p=1e-15, k_i=1e-25, omega_c=1.0), latency=500.0,
                            d=1e308, t_end=4e4, output_dt=1e3)._replace(startup_freq=(1e5,) * 3)
        with pytest.raises(ParameterError, match="omega_m1") as info:
            simulate_afm(scn)
        assert info.value.field == "meas_period"

    def test_buffer_capacity_at_most_2_53(self):
        # occupancy rows are exact only up to 2**53 frames
        for beta_max in (2**60, int(1e20)):
            with pytest.raises(ParameterError, match="2\\*\\*53") as info:
                make_scenario(path(2), (1.0, 1.0), GAINS, beta_max=beta_max)
            assert info.value.field == "buffer_capacity"
        make_scenario(path(2), (1.0, 1.0), GAINS, beta_max=2**53)

    def test_prehistory_at_most_2_53(self):
        # a link reads its source omega_m2 * latency ticks before t = 0, and floored
        # phases are exact only up to 2**53
        for omega_u, latency in (((1.0, 1.0), 2.0**53 + 2), ((1.5, 1.0), 2.0**53),
                                 ((1.0, 1.0), 1e19), ((1.0, 1.0), 1e308)):
            with pytest.raises(ParameterError, match="2\\*\\*53") as info:
                make_scenario(path(2), omega_u, GAINS, latency=latency)
            assert info.value.field == "latency"
        scn = make_scenario(path(2), (1.0, 1.0), GAINS, latency=2.0**53, p=10.0,
                            t_end=100.0, output_dt=10.0)
        trace = simulate_afm(scn)
        assert trace.occupancy[0].tolist() == list(scn.initial_occupancy)
        assert_matches_scalar_oracles(trace, scn)

    def test_phases_at_t_end_at_most_2_53(self):
        # rows floor every phase up to t_end, and floored phases are exact only up
        # to 2**53; the phase at t_end is theta0 + t_end here
        def run(t_end):
            return simulate_afm(make_scenario(path(2), (1.0, 1.0), GAINS, p=1e15, theta0=0.5,
                                              t_end=t_end, output_dt=t_end / 4))
        trace = run(2.0**53 - 2)
        assert trace.occupancy.tolist() == [[64, 64]] * len(trace.times)
        assert_matches_scalar_oracles(trace, trace.scenario)
        with pytest.raises(ParameterError, match="2\\*\\*53") as info:
            run(2.0**53 + 8)
        assert info.value.field == "t_end"

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
        trace = simulate_afm(scn)
        meas = {(ev.node, ev.k): ev.time for ev in trace.events if ev.kind == "measure"}
        for ev in trace.events:
            if ev.kind != "hold":
                continue
            h = trace.histories[ev.node]
            ticks = phase_at(h, ev.time) - phase_at(h, meas[(ev.node, ev.k)])
            assert ticks == pytest.approx(100.0, abs=1e-7)

    def test_occupancy_identity_exact(self):
        scn = make_scenario(complete(3), (1.0002, 1.0, 0.9999), GAINS,
                            latency=(50.0, 120.0, 30.0, 75.0, 200.0, 10.0),
                            p=500.0, d=50.0, t_end=20000.0, output_dt=500.0)
        trace = simulate_afm(scn)
        links = scn.graph.directed_links()
        for row, t in enumerate(trace.times):
            for q, (src, dst) in enumerate(links):
                lhs = int(trace.occupancy[row, q]) - scn.initial_occupancy[q]
                rhs = (
                    math.floor(phase_at(trace.histories[src], t - scn.latency[q]))
                    - math.floor(phase_at(trace.histories[src], -scn.latency[q]))
                    - math.floor(phase_at(trace.histories[dst], t))
                    + math.floor(phase_at(trace.histories[dst], 0.0))
                )
                assert lhs == rhs

    def test_many_links_short_run(self):
        # complete(257) has 65,792 directed links, more than 2**16 occupancy
        # cells per sample row
        scn = make_scenario(complete(257), [1.0 + 1e-6 * (i % 7) for i in range(257)],
                            GAINS, t_end=10.0)
        trace = simulate_afm(scn)
        hists = trace.histories
        offsets = frame_offsets(scn)
        assert trace.occupancy.shape == (2, 65792)
        assert trace.occupancy[0].tolist() == list(scn.initial_occupancy)
        assert trace.occupancy[-1].tolist() == [
            occupancy(hists[src], hists[dst], scn.latency[q], offsets[q], 10.0)
            for q, (src, dst) in enumerate(scn.graph.directed_links())]

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
        trace = simulate_afm(scn)
        for i, h in enumerate(trace.histories):
            assert all(s > scn.omega_min for s in h.slopes)
            # breakpoints 0 and 1 are both (0, theta0); from 1 on both rise strictly
            assert h.times[:2].tolist() == [0.0, 0.0]
            assert h.phases[:2].tolist() == [scn.initial_phase[i]] * 2
            assert all(t2 > t1 for t1, t2 in zip(h.times[1:], h.times[2:]))
            assert all(p2 > p1 for p1, p2 in zip(h.phases[1:], h.phases[2:]))
        phase = np.array([[phase_at(h, t) for h in trace.histories] for t in trace.times])
        assert np.all(np.diff(phase, axis=0) > 0)

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

    def test_converges_toward_average(self):
        wu = (1.00005, 1.0, 0.99995)
        scn = make_scenario(complete(3), wu, GAINS, latency=500.0,
                            p=1000.0, d=100.0, t_end=200000.0, output_dt=2000.0)
        trace = simulate_afm(scn)
        avg = np.mean(wu)
        assert np.abs(trace.freq[-1] - avg).max() <= 1e-4 * avg
        # sharper: at theta0 = 0.1 every node settles at the slowest rate
        assert np.abs(trace.freq[-1] - min(wu)).max() <= 1e-12
        assert np.abs(trace.occupancy[-1] - 64).max() <= 2


class TestSettledRate:
    """Where triangle_pi settles, and how that moves with the measurement phase theta0.

    A node measures when its own phase is theta0 + k p, so each reading
    floor(theta_src) - floor(theta_dst) stays at its initial value over phase
    leads in [-frac(theta0), 1 - frac(theta0)): an asymmetric dead band, so
    the loop stops short of the mean on one side.
    """

    @staticmethod
    def settled(theta0):
        doc = read_document(SCENARIOS / "triangle_pi.json", [f"afm.theta0={theta0}"])
        _, scn, _ = load_scenario_dict(doc)
        return np.array(scn.uncorrected_freq), simulate_afm(scn).freq[-1]

    def test_final_spread_is_rounding(self):
        # the uncorrected rates are 1e-4 apart; the settled ones agree to rounding
        _, final = self.settled(0.1)
        assert final.max() - final.min() <= 1e-12

    @pytest.mark.parametrize("theta0, where", [(0.1, "slowest"), (0.5, "mean"),
                                               (0.9, "fastest")])
    def test_settled_rate_follows_theta0(self, theta0, where):
        omega_u, final = self.settled(theta0)
        if where == "mean":
            assert np.abs(final - omega_u.mean()).max() <= 2e-7
        else:
            rate = omega_u.min() if where == "slowest" else omega_u.max()
            assert np.abs(final - rate).max() <= 1e-12


def bound_log_oracle(trace, scn):
    """The event log with bound hits placed by the rule, from the scalar lookups.

    Replays measure/hold events and sample rows in log order: a row at time T
    comes after every event at or before T. Each row checks every link, and
    each link logs its first overflow and first underflow once, in ascending
    link order within a row.
    """
    links = scn.graph.directed_links()
    offsets = frame_offsets(scn)
    flagged = set()
    out = []

    def check(qs, t):
        for q in qs:
            src, dst = links[q]
            b = occupancy(trace.histories[src], trace.histories[dst], scn.latency[q],
                          offsets[q], t)
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
        out.append((ev.time, ev.node, ev.kind, ev.k, ev.value))
    for t in rows[j:]:
        check(range(len(links)), t)
    return out


def loop_log_oracle(trace, scn):
    """The measure and hold entries the model's rules give, from the scalar lookups.

    Measurement k of node i sits at the crossing of theta0_i + k p and reads
    the sum of its incoming occupancies less their initial values; the
    correction pi_controller_step makes of it takes hold at the crossing of
    theta0_i + k p + d. A crossing is inverted on its node's last segment when
    it is scheduled: hold k on the segment hold k - 1 began (segment 1 for
    hold 0), and measurement k on the first segment, from measurement k - 1's
    on, whose inversion is not past that segment's end. A hold's breakpoint
    phase is the old segment's value there, so phase is continuous in floating
    point and a reading at a hold's instant has the same bits on either
    segment. Entries up to t_end are in time order, ties broken by node, then
    measurement before hold.
    """
    links = scn.graph.directed_links()
    offsets = frame_offsets(scn)
    hists = trace.histories
    out = []
    for i, h in enumerate(hists):
        ts, ps, ss = h.times, h.phases, h.slopes

        def cross(j, target):
            return ts[j] + (target - ps[j]) / ss[j]

        for b in range(2, len(ts)):
            assert ps[b] == ps[b - 1] + ss[b - 1] * (ts[b] - ts[b - 1])
        state = DiscreteControllerState(node=i)
        k, j = 0, 1
        while True:
            target = scn.initial_phase[i] + k * scn.meas_period
            while j + 1 < len(ts) and cross(j, target) > ts[j + 1]:
                j += 1
            if (t := cross(j, target)) > scn.t_end:
                break
            r = sum(occupancy(hists[src], h, scn.latency[q], offsets[q], t)
                    - scn.initial_occupancy[q] for q, (src, dst) in enumerate(links) if dst == i)
            c = pi_controller_step(state, float(r), scn)
            out.append((t, i, 0, k, float(r)))
            t_hold = cross(k + 1, target + scn.actuation_delay) if k + 1 < len(ts) else math.inf
            if t_hold <= scn.t_end:
                out.append((t_hold, i, 1, k, c))
            k += 1
    out.sort(key=lambda e: e[:3])
    return [(t, i, ("measure", "hold")[kind], k, v) for t, i, kind, k, v in out]


def assert_matches_scalar_oracles(trace, scn):
    """Rows, the measure/hold log and the bound-hit placement, each from scalar lookups."""
    hists = trace.histories
    links = scn.graph.directed_links()
    offsets = frame_offsets(scn)
    for row, t in enumerate(trace.times.tolist()):
        assert trace.freq[row].tolist() == [slope_at(h, t) for h in hists]
        assert trace.occupancy[row].tolist() == [
            occupancy(hists[src], hists[dst], scn.latency[q], offsets[q], t)
            for q, (src, dst) in enumerate(links)]
    logged = [(ev.time, ev.node, ev.kind, ev.k, ev.value) for ev in trace.events]
    assert [ev for ev in logged if ev[2] in ("measure", "hold")] == loop_log_oracle(trace, scn)
    assert logged == bound_log_oracle(trace, scn)


def tied_crossings_run(d: float, latency) -> tuple:
    """A 5-node run on p = 8, latencies drawn when latency is None, as (trace, scenario)."""
    rng = np.random.RandomState(int(d) + (latency is None))
    n = 5
    g = random_connected_graph(rng, n, extra_edges=3)
    if latency is None:
        latency = tuple(rng.uniform(0.0, 30.0, 2 * g.m))
    omega_u = 1.0 + rng.permutation(np.linspace(-0.02, 0.02, n))
    scn = make_scenario(
        g, omega_u, Gains(k_p=1e-6, k_i=1e-9, omega_c=1.0), latency=latency,
        p=8.0, d=d, theta0=(0.25, 1.5, 2.75, 3.125, 0.5), beta_max=8,
        t_end=1500.0, output_dt=7.0)
    return simulate_afm(scn), scn


class TestRowOracle:
    """Bulk trace rows and the event log against the scalar lookups on the returned histories."""

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
        trace = simulate_afm(scn)
        assert_matches_scalar_oracles(trace, scn)
        assert any(ev.kind in ("overflow", "underflow") for ev in trace.events)

    @pytest.mark.parametrize("seed", range(12))
    def test_bound_events_come_from_rows(self, seed):
        # the one rule, per link and kind: a bound event exists exactly when the
        # trace column leaves [0, beta_max], carries the first such row's time and
        # value, and sits after every measure and hold at or before that time
        rng = np.random.RandomState(100 + seed)
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n + 1))
        p = 8.0
        latency = 0.0 if seed % 2 else tuple(rng.uniform(0.5, 30.0, 2 * g.m))
        omega_u = 1.0 + rng.permutation(np.linspace(-0.02, 0.02, n))
        scn = make_scenario(
            g, omega_u, Gains(k_p=1e-6, k_i=1e-9, omega_c=1.0), latency=latency, p=p,
            d=(0.0, p, 3 * p)[seed % 3], theta0=tuple(rng.choice([0.25, 1 - 2**-44], n)),
            beta_max=int(rng.choice([4, 8])), t_end=1500.0, output_dt=7.0)
        trace = simulate_afm(scn)
        loop = [(pos, ev.time) for pos, ev in enumerate(trace.events)
                if ev.kind in ("measure", "hold")]
        hits = 0
        for q, (_, dst) in enumerate(scn.graph.directed_links()):
            col = trace.occupancy[:, q]
            for kind, out in (("overflow", col > scn.buffer_capacity), ("underflow", col < 0)):
                logged = [(pos, ev) for pos, ev in enumerate(trace.events)
                          if ev.kind == kind and ev.k == q]
                assert len(logged) == int(out.any())
                if not logged:
                    continue
                hits += 1
                (at, ev), row = logged[0], int(out.argmax())
                assert (ev.time, ev.node, ev.value) == (trace.times[row], dst, col[row])
                assert all((t <= ev.time) == (pos < at) for pos, t in loop)
        assert hits
        bound = [(ev.time, ev.k) for ev in trace.events if ev.kind in ("overflow", "underflow")]
        assert bound == sorted(bound)

    def test_long_histories(self):
        scn = make_scenario(path(2), (1.00002, 0.99998), GAINS,
                            latency=5.0, p=10.0, d=3.0,
                            t_end=60000.0, output_dt=5000.0)
        trace = simulate_afm(scn)
        # about 6000 holds per node: rows are looked up in long histories
        assert min(len(h.times) for h in trace.histories) > 4096
        assert_matches_scalar_oracles(trace, scn)

    # dyadic phases and periods keep theta0 + k p + d exact, so with d a
    # multiple of p a hold and a later measurement cross at the very same time
    @pytest.mark.parametrize("d, latency", [
        (8.0, None),   # d == p: each hold meets the next measurement
        (24.0, None),  # d == 3p: three holds pending, each meeting a measurement
        (24.0, 12.5),  # every link one latency: one source row per node
        (8.0, 0.0),    # every link zero latency: sources read the node rows
    ])
    def test_tied_crossings_and_shared_latency(self, d, latency):
        trace, scn = tied_crossings_run(d, latency)
        assert_matches_scalar_oracles(trace, scn)
        kinds = [(ev.time, ev.node, ev.kind) for ev in trace.events]
        tied = {(t, i) for t, i, kind in kinds if kind == "hold"} & {
            (t, i) for t, i, kind in kinds if kind == "measure"}
        assert len(tied) > 100
        assert any(ev.kind in ("overflow", "underflow") for ev in trace.events)


def measurements_off_their_rows(trace, scn) -> list:
    """Measurements whose r is not the r their trace row reads.

    A row's r for node i is the sum over i's in-links of occupancy - beta0.
    """
    into = np.zeros((2 * scn.graph.m, scn.graph.n))
    for q, (_, dst) in enumerate(scn.graph.directed_links()):
        into[q, dst] = 1.0
    row_r = (trace.occupancy - np.asarray(scn.initial_occupancy)) @ into
    return [(ev.node, ev.k, ev.value) for ev in trace.events if ev.kind == "measure"
            and ev.value != row_r[np.searchsorted(trace.times, ev.time), ev.node]]


def complete3_runs(p: float, d: float, theta0: float, seeds) -> list:
    """complete(3) runs on seeded rates 1e-4 apart at most, as (trace, scenario) pairs."""
    runs = []
    for seed in seeds:
        omega_u = 1 + np.random.RandomState(seed).uniform(-5e-5, 5e-5, 3)
        scn = make_scenario(complete(3), omega_u, Gains(3e-5, 2e-9), p=p, d=d, theta0=theta0,
                            beta_max=1024, t_end=2e4, output_dt=500.0)
        runs.append((simulate_afm(scn), scn))
    return runs


class TestMeasurementAgainstRow:
    """A measurement's r against the occupancies of the trace row at its instant.

    A hold at a measurement's instant (d = 0 or d = p) ends the segment the
    measurement reads; the hold's breakpoint phase is that segment's value
    there, so the measurement and the row floor the same bits. With the
    breakpoint at its target phase instead, 3, 0 and 5 of the 18,030
    measurements at p = 33.3 (d = 0, 10, p) and 86 and 32 of the 24,063 at
    theta0 = 1 - 2**-40 (d = 0, p) read r two frames off their rows.
    """

    # theta0 + 5 p = 167: a phase meets an integer at a measurement
    def test_with_actuation_delay(self):
        assert [measurements_off_their_rows(*run) for run in
                complete3_runs(33.3, 10.0, 0.5, range(10))] == [[]] * 10

    def test_without_actuation_delay(self):
        assert [measurements_off_their_rows(*run) for run in
                complete3_runs(33.3, 0.0, 0.5, range(10))] == [[]] * 10

    def test_delay_of_one_period(self):
        assert [measurements_off_their_rows(*run) for run in
                complete3_runs(33.3, 33.3, 0.5, range(10))] == [[]] * 10

    @pytest.mark.parametrize("d", [0.0, 100.0])
    def test_theta0_just_below_an_integer(self, d):
        assert [measurements_off_their_rows(*run) for run in
                complete3_runs(100.0, d, 1 - 2**-40, range(40))] == [[]] * 40

    @pytest.mark.parametrize("d, latency", [(8.0, None), (24.0, None), (24.0, 12.5), (8.0, 0.0)])
    def test_tied_crossings(self, d, latency):
        trace, scn = tied_crossings_run(d, latency)
        assert measurements_off_their_rows(trace, scn) == []

    def test_event_times_never_decrease(self):
        # with d a multiple of p a hold's breakpoint phase can round just above
        # the target of the measurement at the same phase
        events = 0
        for seed in range(60):
            rng = np.random.RandomState(seed)
            g = random_connected_graph(rng, 5, extra_edges=rng.randint(0, 6))
            p = 33.3
            scn = make_scenario(
                g, 1 + rng.uniform(-5e-5, 5e-5, 5), Gains(3e-5, 2e-9),
                latency=tuple(rng.uniform(0.0, 30.0, 2 * g.m)), p=p, d=(seed % 4) * p,
                theta0=tuple(rng.uniform(0.05, 3.95, 5)), beta_max=1024,
                t_end=6000.0, output_dt=500.0)
            times = [ev.time for ev in simulate_afm(scn).events]
            assert times == sorted(times)
            events += len(times)
        assert events > 100_000


class TestSampledStability:
    """The frame model's proportional loop is stable only below a gain limit.

    With g = p k_p lambda_max, helpers.sampled_root_modulus predicts the limit
    g < 2 at d = 0 and g < 1 at d = p. Over 40 seeded graphs of 3 to 6 nodes,
    the late rate spread at 0.8x the limit was 2.1 to 5.9 k_p, a quantization
    cycle; at 1.25x it was 74 to 173 k_p at d = 0, and every d = p run raised.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_limit_on_random_graphs(self, seed):
        rng = np.random.RandomState(seed)
        n = rng.randint(3, 7)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n))
        sd = spectral_data(g)
        omega_u = 1 + rng.uniform(-1e-3, 1e-3, n)
        p, t_end = 100.0, 2e5
        for m, g_limit in ((0, 2.0), (1, 1.0)):
            for factor in (0.8, 1.25):
                k_p = factor * g_limit / (p * sd.eigenvalues[-1])
                assert (sampled_root_modulus(sd, k_p, p, m * p) < 1.0) == (factor < 1.0)
                scn = make_scenario(g, omega_u, Gains(k_p, k_p * 1e-6), p=p, d=m * p,
                                    theta0=0.5, beta_max=2**40, t_end=t_end,
                                    output_dt=t_end / 400)
                try:
                    trace = simulate_afm(scn)
                except InadmissibleControlError:
                    assert factor > 1.0
                    continue
                spread = np.ptp(trace.freq[trace.times % scn.output_dt == 0], axis=1)
                late = spread[3 * len(spread) // 4:].max()
                assert late <= 10.0 * k_p if factor < 1.0 else late >= 40.0 * k_p


class TestEdgeCases:
    """Lookups deep in the pre-history, and occupancies past 2**53."""

    @pytest.mark.parametrize("d", [0.0, 25.0])
    @pytest.mark.parametrize("t_end, output_dt", [(1470.0, 7.0), (900.0, 1000.0)])
    def test_deep_prehistory(self, d, t_end, output_dt):
        # every link reads its source up to 30 s before t = 0, on the pre-history
        # segment that extends back from (0, theta0)
        rng = np.random.RandomState(int(d + output_dt))
        g = complete(3)
        latency = tuple(rng.uniform(1.0, 30.0, 2 * g.m))
        scn = make_scenario(g, (1.02, 1.0, 0.98), Gains(k_p=1e-6, k_i=1e-9), latency=latency,
                            p=10.0, d=d, theta0=(0.3, 1.7, 2.2), beta_max=8, t_end=t_end,
                            output_dt=output_dt)
        trace = simulate_afm(scn)
        assert len(set(latency)) == len(latency)
        assert (trace.times[0], trace.times[-1]) == (0.0, t_end)
        assert_matches_scalar_oracles(trace, scn)

    def test_occupancy_past_2_53(self):
        # beta0 two frames below 2**53: float64 sums would round the rows above it,
        # and the first overflow, at t = 12.0 in the rows, would be logged at 18.18
        scn = make_scenario(path(2), (1.1, 0.9), Gains(k_p=1e-9, k_i=1e-15), beta_max=2**53,
                            beta0=2**53 - 2, p=10, t_end=100, output_dt=1)
        trace = simulate_afm(scn)
        assert trace.occupancy.max() > 2**53 + 1
        assert_matches_scalar_oracles(trace, scn)
        first = next(ev for ev in trace.events if ev.kind == "overflow")
        assert first.time == 12.0

    def test_no_phantom_first_frame(self):
        # theta0 - omega * latency, as frame_offsets forms it, is -6.000000000000002;
        # a lookup at -latency by other float operations can round it to -6, and
        # then both buffers start at 65 and both first measurements read r = 1
        w = 1.1625971882765693
        scn = make_scenario(path(2), (w, w), GAINS, theta0=0.1, latency=5.246873174570999,
                            d=100, p=100)
        trace = simulate_afm(scn)
        assert trace.occupancy[0].tolist() == [64, 64]
        assert [ev.value for ev in trace.events
                if ev.kind == "measure" and ev.k == 0] == [0.0, 0.0]
        assert_matches_scalar_oracles(trace, scn)

    def test_no_phantom_first_frame_near_integer_phases(self):
        # each source's phase at -latency lies within rounding of an integer k
        rng = np.random.RandomState(23)
        g = complete(3)
        for case in range(60):
            theta0 = tuple(float(t) for t in rng.uniform(0.05, 3.95, 3))
            omega_u = tuple(float(w) for w in rng.uniform(0.9, 1.1, 3))
            latency = tuple((theta0[src] - rng.randint(-40, 1)) / omega_u[src]
                            * (1 + rng.choice([-1e-16, 1e-16]))
                            for src, _ in g.directed_links())
            scn = make_scenario(g, omega_u, GAINS, latency=latency, p=10.0, d=5.0,
                                theta0=theta0, t_end=100.0, output_dt=10.0)
            trace = simulate_afm(scn)
            assert trace.occupancy[0].tolist() == list(scn.initial_occupancy), case
            first = [ev.value for ev in trace.events if ev.kind == "measure" and ev.k == 0]
            assert first == [0.0] * 3, case
            if case % 10 == 0:
                assert_matches_scalar_oracles(trace, scn)


def row_oracle(trace, scn) -> list:
    """Row times by the rule: the grid k*output_dt <= t_end, every event time and t_end."""
    grid, k = [], 0
    while k * scn.output_dt <= scn.t_end:
        grid.append(k * scn.output_dt)
        k += 1
    return sorted(set(grid) | {ev.time for ev in trace.events} | {scn.t_end})


class TestRowRule:
    """Each row time once: the output grid up to t_end, every event time, and t_end."""

    @pytest.mark.parametrize("t_end, output_dt", [
        (0.3, 0.1),        # 3 * 0.1 > 0.3: the grid stops at 0.2 and t_end is its own row
        (1470.0, 7.0),     # t_end = 210 * output_dt exactly
        (900.0, 1000.0),   # output_dt > t_end: the grid is t = 0 alone
    ])
    def test_grid_ends(self, t_end, output_dt):
        scn = make_scenario(complete(3), (1.02, 1.0, 0.98), Gains(k_p=1e-6, k_i=1e-9),
                            latency=(t_end / 100, t_end / 30, 0.0, t_end / 70, t_end / 50, 0.0),
                            p=t_end / 100, d=t_end / 40, theta0=(0.3, 1.7, 2.2), beta_max=8,
                            t_end=t_end, output_dt=output_dt)
        trace = simulate_afm(scn)
        assert_matches_scalar_oracles(trace, scn)
        assert trace.times.tolist() == row_oracle(trace, scn)
        assert trace.times[-1] == t_end

    def test_events_on_grid_instants(self):
        # dyadic phases, rates, periods and latency: until corrections move them,
        # nodes 0 and 1 measure and hold on multiples of p = d = output_dt exactly
        scn = make_scenario(path(3), (1.0, 1.0, 1.0 + 2**-6), Gains(k_p=1e-6, k_i=1e-9),
                            latency=12.5, p=8.0, d=8.0, theta0=(0.25, 1.5, 2.75), beta_max=8,
                            t_end=1500.0, output_dt=8.0)
        trace = simulate_afm(scn)
        assert_matches_scalar_oracles(trace, scn)
        assert trace.times.tolist() == row_oracle(trace, scn)
        on_grid = {ev.time for ev in trace.events if ev.time > 0 and ev.time % 8.0 == 0}
        assert len(on_grid) > 10
        assert any(ev.kind in ("overflow", "underflow") for ev in trace.events)


def on_rows(trace) -> bool:
    """Whether every event time equals some row time bit for bit."""
    times = np.array([ev.time for ev in trace.events])
    return bool(np.isin(times.view(np.uint64), trace.times.view(np.uint64)).all())


class TestRowLayout:
    """Rows are filled node by node and link by link; every event lies on a row."""

    @pytest.mark.parametrize("seed", range(8))
    def test_event_times_are_row_times(self, seed):
        rng = np.random.RandomState(100 + seed)
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n + 1))
        omega_u = 1.0 + rng.permutation(np.linspace(-0.02, 0.02, n))
        scn = make_scenario(
            g, omega_u, Gains(k_p=1e-6, k_i=1e-9, omega_c=1.0),
            latency=tuple(rng.uniform(0.0, 30.0, 2 * g.m)), p=10.0,
            d=float(rng.choice([5, 25])), theta0=tuple(rng.uniform(0.05, 3.95, n)),
            beta_max=int(rng.choice([4, 8, 16])), t_end=float(rng.uniform(1000.0, 2000.0)),
            output_dt=float(rng.choice([7.0, 10.0])))
        trace = simulate_afm(scn)
        assert any(ev.kind in ("overflow", "underflow") for ev in trace.events)
        assert on_rows(trace)

    @pytest.mark.parametrize("name", ["mesh_close_pair", "mesh_far_pair"])
    def test_event_times_are_row_times_on_shipped_meshes(self, name):
        # both overflow, so the CLI exits 2 on them; the bound hits still sit on rows
        _, scn, _ = load_scenario_dict(read_document(SCENARIOS / f"{name}.json"))
        trace = simulate_afm(scn)
        assert any(ev.kind in ("overflow", "underflow") for ev in trace.events)
        assert on_rows(trace)

    def test_columns_contiguous_and_row_memory_bounded(self):
        g = mesh(8, 8)
        omega_u = 1.0 + np.random.RandomState(3).uniform(-5e-5, 5e-5, g.n)
        scn = make_scenario(g, omega_u, Gains(k_p=2e-8, k_i=1e-15), p=100.0, latency=5.0,
                            d=10.0, t_end=2000.0, output_dt=50.0, beta_max=1024, beta0=512)
        tracemalloc.start()
        try:
            trace = simulate_afm(scn)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows, links = trace.occupancy.shape
        assert all(a.T.flags.c_contiguous for a in (trace.freq, trace.occupancy))
        # beyond what the trace keeps (freq, occupancy, histories, events),
        # the run may hold the floored phases, the two bound masks of the rows,
        # and a few per-row arrays, the sample list among them (about 13 rows of
        # floats in all); occupancy built in one indexed expression holds about 250
        per_row = 8 * rows
        assert peak - kept <= per_row * g.n + 2 * rows * links + 32 * per_row

    def test_row_heavy_run_memory(self):
        # 400,001 grid rows and 4 events, two of them (the holds) off the grid
        scn = make_scenario(path(2), (1.0001, 0.9999), GAINS, p=1e6, d=0.25,
                            t_end=2e5, output_dt=0.5)
        tracemalloc.start()
        try:
            trace = simulate_afm(scn)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = trace.times.shape[0]
        assert (rows, len(trace.events)) == (400_003, 4)
        assert trace.times.tolist() == row_oracle(trace, scn)
        # beyond what the trace keeps: the floored node phases and a few per-row
        # arrays of the lookups (72 bytes a row measured; a row list kept by the
        # event loop took 160)
        assert peak - kept <= 80 * rows
