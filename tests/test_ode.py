"""Tests for the continuous-time linear model."""

import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bittide_sim import ode
from bittide_sim.graph import complete, mesh, path, spectral_data
from bittide_sim.ode import (RUN_SIZE_CAP, Gains, ParameterError, build_full_system,
                             build_reduced_system, default_time_step, simulate_ode,
                             spectral_abscissa)
from bittide_sim.scenario import load_scenario
from helpers import (dense_rk4, dense_system, long_double_rk4_step, modal_response,
                     modal_states, random_connected_graph, steady_state)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

PAPER_GAINS = Gains(k_p=3e-5, k_i=2e-9, omega_c=1.0)


class TestGains:
    def test_effective_integral_gain(self):
        g = Gains(k_p=0.1, k_i=0.2, omega_c=3.0)
        assert g.effective_integral_gain == pytest.approx(0.6)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Gains(k_p=0.0, k_i=1.0)
        with pytest.raises(ValueError):
            Gains(k_p=1.0, k_i=-1.0)
        with pytest.raises(ValueError):
            Gains(k_p=1.0, k_i=1.0, omega_c=0.0)


class TestBuildFullSystem:
    def test_single_edge_blocks(self):
        sd = spectral_data(path(2))
        gains = Gains(k_p=1.0, k_i=1.0)
        sys_full = build_full_system(sd, gains)
        assert sys_full.blocks.shape == (2, 2, 2)
        assert np.allclose(sys_full.blocks, [[[0.0, 1.0], [0.0, 0.0]],
                                             [[-2.0, 1.0], [-2.0, 0.0]]], rtol=0.0, atol=1e-12)
        # and the dense oracle the blocks are checked against
        dense = dense_system(sd, gains)
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(dense.a, np.block([
            [-lap, np.eye(2)], [-lap, np.zeros((2, 2))]
        ]))
        assert np.array_equal(dense.b2, np.vstack([np.eye(2), np.zeros((2, 2))]))
        assert np.array_equal(dense.c1, np.hstack([-lap, np.eye(2)]))
        assert np.array_equal(dense.c2, np.array([[-1.0, 1.0, 0.0, 0.0]]))

    def test_blocks_are_the_dense_system_in_the_eigenbasis(self):
        # V2^T a V2 with V2 = I2 (x) V holds block k at rows and columns (k, n+k)
        rng = np.random.RandomState(8)
        for _ in range(10):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 12)))
            gains = Gains(k_p=10 ** rng.uniform(-2, 0.5), k_i=10 ** rng.uniform(-3, 0),
                          omega_c=10 ** rng.uniform(-0.5, 0.5))
            n = sd.graph.n
            blocks = build_full_system(sd, gains).blocks
            assert blocks.shape == (n, 2, 2)
            v2 = np.kron(np.eye(2), sd.eigenvectors)
            modal = v2.T @ dense_system(sd, gains).a @ v2
            for k in range(n):
                idx = np.ix_([k, n + k], [k, n + k])
                assert np.abs(modal[idx] - blocks[k]).max() <= 1e-12
                modal[idx] = 0.0
            assert np.abs(modal).max() <= 1e-12

    def test_ones_vector_in_kernel(self):
        # the drift mode's phase feeds back into nothing
        sd = spectral_data(complete(4))
        sys_full = build_full_system(sd, PAPER_GAINS)
        assert np.abs(sys_full.blocks[0, :, 0]).max() <= 1e-12
        assert np.abs(sys_full.blocks[1:, :, 0]).min() > 1e-12
        vec = np.concatenate([np.ones(4), np.zeros(4)])
        assert np.abs(dense_system(sd, PAPER_GAINS).a @ vec).max() <= 1e-12

    def test_zero_state_output_is_omega_u(self):
        sd = spectral_data(complete(3))
        sys_full = build_full_system(sd, PAPER_GAINS)
        omega_u = np.array([1.3, 0.7, 1.0])
        trace = simulate_ode(sys_full, omega_u, 1000.0)
        assert np.array_equal(trace.omega[0], omega_u)
        assert np.array_equal(trace.delta[0], np.zeros(3))

    def test_exactly_two_zero_eigenvalues(self):
        # the drift subspace over the Laplacian kernel is a 2x2 Jordan block,
        # so its zero pair perturbs at sqrt(machine eps) scale
        sd = spectral_data(complete(3))
        gains = Gains(k_p=0.3, k_i=0.1)
        for a in (build_full_system(sd, gains).blocks, dense_system(sd, gains).a):
            eigs = np.sort(np.abs(np.linalg.eigvals(a)).ravel())
            assert eigs[1] <= 1e-6
            assert eigs[2] > 1e-3


class TestBuildReducedSystem:
    def test_single_edge_reduced(self):
        sd = spectral_data(path(2))
        red = build_reduced_system(sd, Gains(k_p=1.0, k_i=1.0))
        assert red.lap_hat.shape == (1, 1)
        assert red.lap_hat[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(red.a_hat, [[-2.0, 1.0], [-2.0, 0.0]], atol=1e-12)

    def test_reduced_matches_eigenvalue_structure(self):
        rng = np.random.RandomState(0)
        for _ in range(5):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 9)))
            red = build_reduced_system(sd, Gains(k_p=1.0, k_i=1.0))
            eigs = np.linalg.eigvals(red.a_hat)
            assert eigs.real.max() < 0

    def test_consistency_c_blocks(self):
        sd = spectral_data(mesh(2, 3))
        gains = Gains(k_p=0.3, k_i=0.1, omega_c=2.0)
        red = build_reduced_system(sd, gains)
        u1 = sd.eigenvectors[:, 1:]
        assert np.allclose(red.c1_hat,
                           np.hstack([-gains.k_p * sd.incidence @ sd.incidence.T @ u1,
                                      gains.effective_integral_gain * u1]), atol=1e-12)
        assert np.allclose(red.c2_hat,
                           np.hstack([-sd.incidence.T @ u1, np.zeros((sd.graph.m, 5))]),
                           atol=1e-12)


class TestSimulateOde:
    def test_uniform_input_stays_uniform(self):
        sd = spectral_data(complete(3))
        sys_full = build_full_system(sd, PAPER_GAINS)
        trace = simulate_ode(sys_full, np.array([1.5, 1.5, 1.5]), 5000.0)
        assert np.abs(trace.omega - 1.5).max() <= 1e-10
        assert np.abs(trace.delta).max() <= 1e-10

    def test_zero_input_zero_trace(self):
        sd = spectral_data(path(3))
        sys_full = build_full_system(sd, PAPER_GAINS)
        trace = simulate_ode(sys_full, np.zeros(3), 1000.0)
        assert np.abs(trace.omega).max() == 0.0
        assert np.abs(trace.delta).max() == 0.0

    def test_converges_to_average(self):
        sd = spectral_data(complete(3))
        sys_full = build_full_system(sd, PAPER_GAINS)
        omega_u = np.array([1.0001, 1.0, 0.9999])
        trace = simulate_ode(sys_full, omega_u, 400000.0)
        assert np.abs(trace.omega[-1] - omega_u.mean()).max() <= 1e-9
        assert np.abs(trace.delta[-1]).max() <= 1e-4 * np.abs(trace.delta).max()

    def test_frequency_sum_invariant(self):
        sd = spectral_data(mesh(2, 3))
        sys_full = build_full_system(sd, Gains(k_p=0.2, k_i=0.05))
        rng = np.random.RandomState(1)
        omega_u = 1.0 + 0.01 * rng.randn(6)
        trace = simulate_ode(sys_full, omega_u, 500.0)
        n_avg = omega_u.sum()
        assert np.abs(trace.omega.sum(axis=1) - n_avg).max() <= 1e-9 * n_avg

    def test_endpoint_exact(self):
        sd = spectral_data(path(2))
        sys_full = build_full_system(sd, Gains(k_p=0.2, k_i=0.05))
        trace = simulate_ode(sys_full, np.array([1.1, 0.9]), 123.456)
        assert trace.times[-1] == 123.456

    def test_matches_generic_rk4(self):
        sd = spectral_data(path(3))
        gains = Gains(k_p=0.2, k_i=0.05)
        sys_full = build_full_system(sd, gains)
        omega_u = np.array([1.1, 1.0, 0.9])
        dt = 0.25
        trace = simulate_ode(sys_full, omega_u, 10.0, dt=dt)
        dense, _, states = dense_rk4(sd, gains, omega_u, 10.0, dt)
        assert np.allclose(trace.omega, states @ dense.c1.T + omega_u, rtol=1e-10, atol=1e-12)
        assert np.allclose(trace.delta, states @ dense.c2.T, rtol=1e-10, atol=1e-12)

    def test_matches_generic_rk4_random_graphs(self):
        # per-mode stepping must reproduce the dense RK4 recurrence, partial
        # final step included, on graphs with repeated and distinct eigenvalues
        rng = np.random.RandomState(6)
        for _ in range(10):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 9)))
            gains = Gains(k_p=10 ** rng.uniform(-2, 0.5), k_i=10 ** rng.uniform(-3, 0))
            sys_full = build_full_system(sd, gains)
            omega_u = 1.0 + 0.1 * rng.randn(sd.graph.n)
            dt = default_time_step(sd, gains)
            t_end = (rng.randint(50, 400) + rng.uniform(0.1, 0.9)) * dt
            trace = simulate_ode(sys_full, omega_u, t_end)
            dense, times, states = dense_rk4(sd, gains, omega_u, t_end, dt)
            assert trace.times.shape == times.shape
            assert np.allclose(trace.times, times, rtol=1e-14, atol=0.0)
            assert np.allclose(trace.omega, states @ dense.c1.T + omega_u,
                               rtol=1e-10, atol=1e-12)
            assert np.allclose(trace.delta, states @ dense.c2.T, rtol=1e-10, atol=1e-12)

    def test_default_step_error_against_the_exact_modal_response(self):
        # RK4's error grows about linearly with the step count; over 800 other
        # seeded draws of this kind the worst was 5.4e-11 of the peak per row
        # in delta and 3.7e-11 in omega's deviation from the mean
        rng = np.random.RandomState(10)
        for _ in range(12):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 9)))
            gains = Gains(k_p=3e-5 * 10 ** rng.uniform(-1, 1),
                          k_i=2e-9 * 10 ** rng.uniform(-1, 1))
            omega_u = 1.0 + rng.uniform(-5e-5, 5e-5, sd.graph.n)
            trace = simulate_ode(build_full_system(sd, gains), omega_u,
                                 30.0 / abs(spectral_abscissa(sd, gains)))
            omega, delta = modal_response(sd, gains, omega_u, trace.times)
            bound = 1e-10 * trace.times.shape[0]
            assert np.abs(trace.delta - delta).max() <= bound * np.abs(delta).max()
            assert (np.abs(trace.omega - omega).max()
                    <= bound * np.abs(omega - omega_u.mean()).max())

    def test_critically_damped_modal_response(self):
        # (a lambda)^2 = 4 b lambda exactly for both modes of complete(3),
        # lambda = 3; a small RK4 step reaches the closed form's t e^(rt) limit
        sd = spectral_data(complete(3))
        gains = Gains(k_p=1.0, k_i=0.75)
        omega_u = np.array([1.1, 1.0, 0.9])
        trace = simulate_ode(build_full_system(sd, gains), omega_u, 10.0, dt=1e-3)
        omega, delta = modal_response(sd, gains, omega_u, trace.times)
        assert np.abs(trace.omega - omega).max() <= 1e-13
        assert np.abs(trace.delta - delta).max() <= 1e-13

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="needs an extended-precision long double")
    def test_accuracy_against_extended_precision(self):
        # The reference runs the same dense RK4 recurrence in long double. The
        # drift mode makes theta ~ 1e10 ticks here, so a float64 recurrence in
        # node coordinates cancels terms of size h*L*theta at every step.
        graph, scenario, gains = load_scenario(SCENARIOS / "mesh_close_pair.json")
        sd = spectral_data(graph)
        sys_full = build_full_system(sd, gains)
        omega_u = np.array(scenario.uncorrected_freq)
        dt = default_time_step(sd, gains)
        steps = 8000
        trace = simulate_ode(sys_full, omega_u, steps * dt, dt=dt)
        assert trace.times.shape == (steps + 1,)
        ld = np.longdouble
        dense = dense_system(sd, gains)
        phi, gamma = long_double_rk4_step(dense.a, dt)
        drive = gamma @ (dense.b2.astype(ld) @ omega_u.astype(ld))
        states = np.zeros((steps + 1, dense.a.shape[0]), dtype=ld)
        for k in range(steps):
            states[k + 1] = phi @ states[k] + drive
        omega = states @ dense.c1.T.astype(ld) + omega_u.astype(ld)
        delta = states @ dense.c2.T.astype(ld)
        assert float(np.abs(trace.omega - omega).max()) <= 1e-13
        assert float(np.abs(trace.delta - delta).max()) <= 1e-6

    def test_run_size_cap_refuses_before_allocating(self):
        sys_full = build_full_system(spectral_data(path(3)), PAPER_GAINS)
        # 1e300 steps could not be allocated at all
        with pytest.raises(ParameterError, match="run-size cap") as info:
            simulate_ode(sys_full, np.ones(3), 1e300, 1.0)
        assert info.value.field == "t_end"
        with pytest.raises(ParameterError, match="run-size cap"):
            simulate_ode(sys_full, np.ones(3), RUN_SIZE_CAP + 1.0, 1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_nonpositive_step_refused(self, dt):
        sys_full = build_full_system(spectral_data(path(3)), PAPER_GAINS)
        with pytest.raises(ValueError, match="dt must be > 0"):
            simulate_ode(sys_full, np.ones(3), 10.0, dt)

    def test_chunks_match_one_chunk_bit_for_bit(self, monkeypatch):
        # step counts around one and two chunk boundaries, a block past the
        # first, and partial final steps; without joining a short last chunk
        # to the one before it, a one-row product would round differently.
        # The worker thread, forced on and off, runs the same calls on the
        # same operands as the caller, so it changes no byte either
        c, b = ode._CHUNK_STEPS, ode._BLOCK_STEPS
        rng = np.random.RandomState(12)
        for steps in (c - 1, c, c + 1, c + b + 1, 2 * c - 1, 2 * c, 2 * c + 1,
                      c + 0.5, 2 * c - 0.5, 2 * c + 0.25):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 9)))
            sys_full = build_full_system(sd, Gains(k_p=10 ** rng.uniform(-2, 0.5),
                                                   k_i=10 ** rng.uniform(-3, 0)))
            omega_u = 1.0 + 0.1 * rng.randn(sd.graph.n)
            dt = rng.uniform(0.01, 0.05)
            with monkeypatch.context() as m:
                m.setattr(ode, "_CHUNK_STEPS", 10 ** 9)
                whole = simulate_ode(sys_full, omega_u, steps * dt, dt=dt)
            for macs in (0, np.inf):
                monkeypatch.setattr(ode, "_WORKER_MACS", macs)
                chunked = simulate_ode(sys_full, omega_u, steps * dt, dt=dt)
                for name in ("times", "omega", "delta"):
                    assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes(), \
                        (steps, macs, name)

    def test_yielded_zeta_is_not_read_again(self, monkeypatch):
        # simulate_ode overwrites each chunk's zeta with omega's integral term,
        # so the row that starts the next chunk must lie outside the yielded view
        sd = spectral_data(mesh(3, 3))
        sys_full = build_full_system(sd, Gains(k_p=0.7, k_i=0.15))
        omega_u = np.linspace(0.9, 1.1, sd.graph.n)
        dt, steps = 0.01, 3 * ode._CHUNK_STEPS + ode._BLOCK_STEPS + 0.5
        want = simulate_ode(sys_full, omega_u, steps * dt, dt=dt)
        chunks = ode._modal_chunks

        def poisoned(*args):
            for r, theta, zeta in chunks(*args):
                yield r, theta, zeta
                zeta.fill(np.nan)

        monkeypatch.setattr(ode, "_modal_chunks", poisoned)
        got = simulate_ode(sys_full, omega_u, steps * dt, dt=dt)
        for name in ("times", "omega", "delta"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_peak_memory_is_the_trace_and_a_few_chunks(self):
        sd = spectral_data(mesh(3, 3))
        n = sd.graph.n
        sys_full = build_full_system(sd, Gains(k_p=1.0, k_i=0.2))
        dt = 0.01
        tracemalloc.start()
        try:
            trace = simulate_ode(sys_full, np.linspace(0.9, 1.1, n), 50_000.5 * dt, dt=dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.times.shape == (50_002,)
        # the modal state and its temporaries take at most a dozen chunks of n
        # columns; a trace-sized modal state alone would take 2 * 50_002 rows
        chunk_bytes = ode._CHUNK_STEPS * n * 8
        assert peak <= (trace.times.nbytes + trace.omega.nbytes + trace.delta.nbytes
                        + 12 * chunk_bytes)

    @staticmethod
    def started_threads(monkeypatch):
        started = []
        start = threading.Thread.start

        def record(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        return started

    @staticmethod
    def run_steps(steps):
        sys_full = build_full_system(spectral_data(path(3)), Gains(k_p=1.0, k_i=0.2))
        return simulate_ode(sys_full, np.array([1.1, 1.0, 0.9]), steps * 0.01, dt=0.01)

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(ode, "_WORKER_MACS", 0)
        started = self.started_threads(monkeypatch)
        # 2 * _CHUNK_STEPS - 1 rows: the most that make one chunk
        assert self.run_steps(2 * ode._CHUNK_STEPS - 2).times.shape == (2 * ode._CHUNK_STEPS - 1,)
        assert started == []

    def test_multi_chunk_small_run_starts_no_thread(self, monkeypatch):
        # four chunks, but path(3)'s products are far below _WORKER_MACS
        started = self.started_threads(monkeypatch)
        assert self.run_steps(4 * ode._CHUNK_STEPS).times.shape == (4 * ode._CHUNK_STEPS + 1,)
        assert started == []

    def test_worker_thread_ends_with_the_run(self, monkeypatch):
        monkeypatch.setattr(ode, "_WORKER_MACS", 0)
        before = threading.active_count()
        started = self.started_threads(monkeypatch)
        assert self.run_steps(2 * ode._CHUNK_STEPS - 1).times.shape == (2 * ode._CHUNK_STEPS,)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before

    def test_worker_thread_ends_when_the_chunk_stream_raises(self, monkeypatch):
        chunks = ode._modal_chunks

        def failing(*args):
            for i, chunk in enumerate(chunks(*args)):
                if i == 2:
                    raise RuntimeError("chunk stream failed")
                yield chunk

        monkeypatch.setattr(ode, "_modal_chunks", failing)
        monkeypatch.setattr(ode, "_WORKER_MACS", 0)
        before = threading.active_count()
        started = self.started_threads(monkeypatch)
        with pytest.raises(RuntimeError, match="chunk stream failed"):
            self.run_steps(4 * ode._CHUNK_STEPS)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before

    def test_default_step_resolves_fast_mode(self):
        sd = spectral_data(complete(3))
        dt = default_time_step(sd, PAPER_GAINS)
        # a*lambda_max = 9e-5, b*lambda_max = 6e-9
        assert dt == pytest.approx(min(1.0 / 9e-5, 1.0 / np.sqrt(6e-9)) / 20.0)


class TestSteadyState:
    def test_uniform_input_zero_state(self):
        # rounding in U1^T ones is amplified by 1/b, so use moderate gains here
        sd = spectral_data(complete(3))
        red = build_reduced_system(sd, Gains(k_p=0.3, k_i=0.1))
        ss = steady_state(red, np.array([2.0, 2.0, 2.0]))
        assert np.abs(ss.x_closed).max() <= 1e-12
        assert np.abs(ss.x_solved).max() <= 1e-9
        assert np.array_equal(ss.omega_ss, [2.0, 2.0, 2.0])

    def test_single_edge_magnitude(self):
        alpha = 0.01
        gains = Gains(k_p=0.5, k_i=0.25, omega_c=1.0)
        sd = spectral_data(path(2))
        red = build_reduced_system(sd, gains)
        omega_u = np.array([1.0 + alpha, 1.0 - alpha])
        ss = steady_state(red, omega_u)
        b = gains.effective_integral_gain
        assert abs(ss.x_closed[0]) <= 1e-15
        assert abs(ss.x_closed[1]) == pytest.approx(np.sqrt(2.0) * alpha / b, rel=1e-12)
        assert ss.rel_gap <= 1e-9

    def test_integrators_absorb_frequency_error(self):
        # in node coordinates, b * x2_ss equals omega_avg - omega_u
        rng = np.random.RandomState(2)
        sd = spectral_data(mesh(2, 3))
        gains = Gains(k_p=0.2, k_i=0.1, omega_c=1.5)
        red = build_reduced_system(sd, gains)
        omega_u = 1.0 + 0.1 * rng.randn(6)
        ss = steady_state(red, omega_u)
        n1 = 5
        x2_nodes = sd.eigenvectors[:, 1:] @ ss.x_closed[n1:]
        expected = (omega_u.mean() - omega_u) / gains.effective_integral_gain
        assert np.allclose(x2_nodes, expected, atol=1e-12)

    def test_closed_matches_solve_random(self):
        rng = np.random.RandomState(3)
        for _ in range(10):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 9)))
            gains = Gains(k_p=10 ** rng.uniform(-2, 0.5), k_i=10 ** rng.uniform(-3, 0))
            red = build_reduced_system(sd, gains)
            ss = steady_state(red, rng.randn(sd.graph.n))
            assert ss.rel_gap <= 1e-9


class TestDecoupledCoordinates:
    """The dense oracle's states in the Laplacian eigenbasis: column 0 of the
    phase is the drift mode, and the other columns decay to the steady state."""

    def test_uniform_input_pure_drift(self):
        sd = spectral_data(complete(3))
        c = 1.25
        _, times, states = dense_rk4(sd, PAPER_GAINS, np.full(3, c), 2000.0)
        theta_hat, zeta_hat = modal_states(sd, states)
        bound = 1e-9 * np.linalg.norm(np.full(3, c)) * 2000.0
        assert np.abs(theta_hat[:, 1:]).max() <= bound
        assert np.abs(zeta_hat[:, 1:]).max() <= bound
        assert np.allclose(theta_hat[:, 0], np.sqrt(3.0) * c * times, rtol=1e-12)

    def test_agreement_integ_identically_zero(self):
        sd = spectral_data(mesh(2, 3))
        rng = np.random.RandomState(4)
        omega_u = 1.0 + 0.05 * rng.randn(6)
        t_end = 800.0
        _, times, states = dense_rk4(sd, Gains(k_p=0.2, k_i=0.05), omega_u, t_end)
        theta_hat, zeta_hat = modal_states(sd, states)
        assert np.abs(zeta_hat[:, 0]).max() <= 1e-9 * np.linalg.norm(omega_u) * t_end
        drift = np.sqrt(6.0) * omega_u.mean() * times
        assert np.abs(theta_hat[:, 0] - drift).max() <= 1e-8 * max(drift.max(), 1.0)

    def test_disagreement_converges_to_steady_state(self):
        sd = spectral_data(path(3))
        gains = Gains(k_p=0.4, k_i=0.2)
        red = build_reduced_system(sd, gains)
        omega_u = np.array([1.05, 1.0, 0.95])
        _, _, states = dense_rk4(sd, gains, omega_u, 400.0)
        theta_hat, zeta_hat = modal_states(sd, states)
        ss = steady_state(red, omega_u)
        n1 = 2
        assert np.abs(theta_hat[-1, 1:] - ss.x_closed[:n1]).max() <= 1e-8
        assert np.abs(zeta_hat[-1, 1:] - ss.x_closed[n1:]).max() <= 1e-8

    def test_projected_derivative_satisfies_reduced_dynamics(self):
        # the exact state derivative, projected, equals the reduced dynamics
        sd = spectral_data(mesh(2, 3))
        gains = Gains(k_p=0.2, k_i=0.05)
        red = build_reduced_system(sd, gains)
        rng = np.random.RandomState(5)
        omega_u = 1.0 + 0.05 * rng.randn(6)
        dense, _, states = dense_rk4(sd, gains, omega_u, 300.0)
        n = 6
        u1 = sd.eigenvectors[:, 1:]
        xdot = states @ dense.a.T + dense.b2 @ omega_u
        xdot_proj = np.hstack([xdot[:, :n] @ u1, xdot[:, n:] @ u1])
        x_tilde = np.hstack([states[:, :n] @ u1, states[:, n:] @ u1])
        rhs = x_tilde @ red.a_hat.T + np.concatenate([u1.T @ omega_u, np.zeros(n - 1)])
        assert np.abs(xdot_proj - rhs).max() <= 1e-10


class TestConvergenceHorizon:
    def test_delta_decays_within_twenty_time_constants(self):
        sd = spectral_data(complete(3))
        sys_full = build_full_system(sd, PAPER_GAINS)
        abscissa = spectral_abscissa(sd, PAPER_GAINS)
        t_end = 20.0 / abs(abscissa)
        trace = simulate_ode(sys_full, np.array([1.0001, 1.0, 0.9999]), t_end)
        peak = np.linalg.norm(trace.delta, axis=1).max()
        assert np.linalg.norm(trace.delta[-1]) <= 1e-6 * peak
