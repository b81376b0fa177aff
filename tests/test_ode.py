"""Tests for the continuous-time linear model."""

from pathlib import Path

import numpy as np
import pytest

from bittide_sim.graph import complete, mesh, path, spectral_data
from bittide_sim.numerics import rk4_step_operator
from bittide_sim.ode import (RUN_SIZE_CAP, Gains, ParameterError, build_full_system,
                             build_reduced_system, decoupled_coordinates, default_time_step,
                             simulate_ode, steady_state)
from bittide_sim.scenario import load_scenario
from helpers import random_connected_graph, rk4_integrate

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
        sys_full = build_full_system(sd, Gains(k_p=1.0, k_i=1.0))
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(sys_full.a, np.block([
            [-lap, np.eye(2)], [-lap, np.zeros((2, 2))]
        ]))
        assert np.array_equal(sys_full.b2, np.vstack([np.eye(2), np.zeros((2, 2))]))
        assert np.array_equal(sys_full.c1, np.hstack([-lap, np.eye(2)]))
        assert np.array_equal(sys_full.c2, np.array([[-1.0, 1.0, 0.0, 0.0]]))

    def test_ones_vector_in_kernel(self):
        sd = spectral_data(complete(4))
        sys_full = build_full_system(sd, PAPER_GAINS)
        vec = np.concatenate([np.ones(4), np.zeros(4)])
        assert np.abs(sys_full.a @ vec).max() <= 1e-12

    def test_zero_state_output_is_omega_u(self):
        sd = spectral_data(complete(3))
        sys_full = build_full_system(sd, PAPER_GAINS)
        omega_u = np.array([1.3, 0.7, 1.0])
        assert np.array_equal(sys_full.c1 @ np.zeros(6) + omega_u, omega_u)

    def test_exactly_two_zero_eigenvalues(self):
        # the drift subspace over the Laplacian kernel is a 2x2 Jordan block,
        # so its zero pair perturbs at sqrt(machine eps) scale
        sd = spectral_data(complete(3))
        sys_full = build_full_system(sd, Gains(k_p=0.3, k_i=0.1))
        eigs = np.sort(np.abs(np.linalg.eigvals(sys_full.a)))
        assert eigs[1] <= 1e-6
        assert eigs[2] > 1e-3


class TestBuildReducedSystem:
    def test_single_edge_reduced(self):
        sd = spectral_data(path(2))
        assert sd.reduced_laplacian.shape == (1, 1)
        assert sd.reduced_laplacian[0, 0] == pytest.approx(2.0, rel=1e-12)
        red = build_reduced_system(sd, Gains(k_p=1.0, k_i=1.0))
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
        u1 = sd.disagreement_basis
        assert np.allclose(red.c1_hat,
                           np.hstack([-gains.k_p * sd.laplacian @ u1,
                                      gains.effective_integral_gain * u1]), atol=1e-12)
        assert np.allclose(red.c2_hat,
                           np.hstack([-sd.incidence.T @ u1, np.zeros((sd.graph.m, 5))]),
                           atol=1e-12)
        assert np.array_equal(red.c_hat, np.vstack([red.c1_hat, red.c2_hat]))


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
        assert np.abs(trace.state).max() == 0.0
        assert np.abs(trace.omega).max() == 0.0

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
        drive = sys_full.b2 @ omega_u
        _, states = rk4_integrate(lambda t, x: sys_full.a @ x + drive,
                                  np.zeros(6), 0.0, 10.0, dt)
        assert np.allclose(trace.state, states, rtol=1e-10, atol=1e-12)

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
            drive = sys_full.b2 @ omega_u
            times, states = rk4_integrate(lambda t, x: sys_full.a @ x + drive,
                                          np.zeros(2 * sd.graph.n), 0.0, t_end, dt)
            assert trace.times.shape == times.shape
            assert np.allclose(trace.times, times, rtol=1e-14, atol=0.0)
            assert np.allclose(trace.state, states, rtol=1e-10, atol=1e-12)

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
        phi, gamma = rk4_step_operator(sys_full.a.astype(ld), ld(dt))
        drive = gamma @ (sys_full.b2.astype(ld) @ omega_u.astype(ld))
        states = np.zeros((steps + 1, sys_full.a.shape[0]), dtype=ld)
        for k in range(steps):
            states[k + 1] = phi @ states[k] + drive
        omega = states @ sys_full.c1.T.astype(ld) + omega_u.astype(ld)
        delta = states @ sys_full.c2.T.astype(ld)
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
        x2_nodes = sd.disagreement_basis @ ss.x_closed[n1:]
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
    def test_uniform_input_pure_drift(self):
        sd = spectral_data(complete(3))
        sys_full = build_full_system(sd, PAPER_GAINS)
        c = 1.25
        trace = simulate_ode(sys_full, np.full(3, c), 2000.0)
        dec = decoupled_coordinates(trace)
        bound = 1e-9 * np.linalg.norm(np.full(3, c)) * 2000.0
        assert np.abs(dec.disagreement_phase).max() <= bound
        assert np.abs(dec.disagreement_integ).max() <= bound
        assert np.allclose(dec.agreement_phase, np.sqrt(3.0) * c * trace.times, rtol=1e-12)

    def test_agreement_integ_identically_zero(self):
        sd = spectral_data(mesh(2, 3))
        sys_full = build_full_system(sd, Gains(k_p=0.2, k_i=0.05))
        rng = np.random.RandomState(4)
        omega_u = 1.0 + 0.05 * rng.randn(6)
        t_end = 800.0
        trace = simulate_ode(sys_full, omega_u, t_end)
        dec = decoupled_coordinates(trace)
        assert np.abs(dec.agreement_integ).max() <= 1e-9 * np.linalg.norm(omega_u) * t_end
        drift = np.sqrt(6.0) * omega_u.mean() * trace.times
        assert np.abs(dec.agreement_phase - drift).max() <= 1e-8 * max(drift.max(), 1.0)

    def test_phase_decomposition(self):
        # theta_bar = U1 x1_hat + omega_avg * t * ones, to integrator accuracy
        sd = spectral_data(complete(3))
        sys_full = build_full_system(sd, Gains(k_p=0.3, k_i=0.1))
        omega_u = np.array([1.02, 1.0, 0.98])
        trace = simulate_ode(sys_full, omega_u, 300.0)
        dec = decoupled_coordinates(trace)
        rebuilt = (dec.disagreement_phase @ sd.disagreement_basis.T
                   + omega_u.mean() * trace.times[:, None])
        assert np.abs(rebuilt - trace.theta_bar).max() <= 1e-8

    def test_disagreement_converges_to_steady_state(self):
        sd = spectral_data(path(3))
        gains = Gains(k_p=0.4, k_i=0.2)
        sys_full = build_full_system(sd, gains)
        red = build_reduced_system(sd, gains)
        omega_u = np.array([1.05, 1.0, 0.95])
        trace = simulate_ode(sys_full, omega_u, 400.0)
        dec = decoupled_coordinates(trace)
        ss = steady_state(red, omega_u)
        n1 = 2
        assert np.abs(dec.disagreement_phase[-1] - ss.x_closed[:n1]).max() <= 1e-8
        assert np.abs(dec.disagreement_integ[-1] - ss.x_closed[n1:]).max() <= 1e-8

    def test_projected_derivative_satisfies_reduced_dynamics(self):
        # the exact state derivative, projected, equals the reduced dynamics
        sd = spectral_data(mesh(2, 3))
        gains = Gains(k_p=0.2, k_i=0.05)
        sys_full = build_full_system(sd, gains)
        red = build_reduced_system(sd, gains)
        rng = np.random.RandomState(5)
        omega_u = 1.0 + 0.05 * rng.randn(6)
        trace = simulate_ode(sys_full, omega_u, 300.0)
        n = 6
        u1 = sd.disagreement_basis
        xdot = trace.state @ sys_full.a.T + sys_full.b2 @ omega_u
        xdot_proj = np.hstack([xdot[:, :n] @ u1, xdot[:, n:] @ u1])
        x_tilde = np.hstack([trace.state[:, :n] @ u1, trace.state[:, n:] @ u1])
        rhs = x_tilde @ red.a_hat.T + red.b2_hat @ omega_u
        assert np.abs(xdot_proj - rhs).max() <= 1e-10


class TestConvergenceHorizon:
    def test_delta_decays_within_twenty_time_constants(self):
        from bittide_sim.analysis import hurwitz_check
        sd = spectral_data(complete(3))
        sys_full = build_full_system(sd, PAPER_GAINS)
        red = build_reduced_system(sd, PAPER_GAINS)
        abscissa = hurwitz_check(red.a_hat).spectral_abscissa
        t_end = 20.0 / abs(abscissa)
        trace = simulate_ode(sys_full, np.array([1.0001, 1.0, 0.9999]), t_end)
        peak = np.linalg.norm(trace.delta, axis=1).max()
        assert np.linalg.norm(trace.delta[-1]) <= 1e-6 * peak
