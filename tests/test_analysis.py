"""Tests for the closed-form stability and performance layer."""

import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import bittide_sim
from bittide_sim.analysis import (InsufficientHorizonWarning,
                                  build_lyapunov_certificate, empirical_norms,
                                  hurwitz_check, l2_norm_squared, lyapunov_solutions,
                                  predicted_performance, worst_case_frequency)
from bittide_sim.graph import complete, incidence_matrix, mesh, path, spectral_data
from bittide_sim.ode import (Gains, ParameterError, build_full_system, build_reduced_system,
                             default_time_step, simulate_ode, spectral_abscissa)
from bittide_sim.scenario import load_scenario
from helpers import (dense_abscissa, modal_response, random_connected_graph,
                     two_node_perturbation)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestHurwitzCheck:
    def test_single_edge_complex_pair(self):
        sd = spectral_data(path(2))
        red = build_reduced_system(sd, Gains(k_p=1.0, k_i=1.0))
        # eigenvalues of [[-2,1],[-2,0]] are -1 +/- i
        eigs = sorted(np.linalg.eigvals(red.a_hat), key=lambda z: z.imag)
        assert eigs[0] == pytest.approx(-1.0 - 1.0j, abs=1e-12)
        result = hurwitz_check(sd, Gains(k_p=1.0, k_i=1.0))
        assert result.is_hurwitz
        assert result.spectral_abscissa == -1.0

    def test_negative_gain_not_hurwitz(self):
        # Gains refuses k_p <= 0, so the dense witness is checked directly:
        # forcing the proportional block positive flips stability
        lap_hat = np.array([[2.0]])
        a_hat = np.block([[+1.0 * lap_hat, 1.0 * np.eye(1)],
                          [-lap_hat, np.zeros((1, 1))]])
        assert dense_abscissa(a_hat) > 0

    def test_random_draws_always_hurwitz(self):
        rng = np.random.RandomState(10)
        for _ in range(25):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 11)))
            gains = Gains(k_p=10 ** rng.uniform(-4, 1), k_i=10 ** rng.uniform(-4, 1),
                          omega_c=10 ** rng.uniform(-1, 1))
            assert hurwitz_check(sd, gains).is_hurwitz
            assert dense_abscissa(build_reduced_system(sd, gains).a_hat) < 0

    def test_slow_mesh_mode_is_hurwitz(self):
        # mesh_far_pair gains on a 12x12 mesh: the slowest mode decays at
        # about -6.8e-10, which a tolerance of 1e-10 * |A_hat|_F = 5e-9 hid
        sd = spectral_data(mesh(12, 12))
        gains = Gains(k_p=2e-8, k_i=1e-15)
        result = hurwitz_check(sd, gains)
        # textbook roots of s^2 + a lam s + b lam, and the dense eigenvalues
        lam = sd.eigenvalues[1:]
        a, b = gains.k_p, gains.effective_integral_gain
        disc = (a * lam) ** 2 - 4.0 * b * lam
        real = np.where(disc < 0, -a * lam / 2.0,
                        (-a * lam + np.sqrt(np.maximum(disc, 0.0))) / 2.0)
        assert result.is_hurwitz
        assert result.spectral_abscissa == spectral_abscissa(sd, gains)
        assert result.spectral_abscissa == pytest.approx(real.max(), abs=1e-15)
        dense = dense_abscissa(build_reduced_system(sd, gains).a_hat)
        assert abs(result.spectral_abscissa - dense) <= 1e-12 * abs(dense)



class TestSpectralAbscissa:
    """The closed-form abscissa against the dense eigensolver, and its reproducibility."""

    @pytest.mark.parametrize("k_p", [1e150, 1e160, 1e300])
    def test_huge_proportional_gain_is_hurwitz(self, k_p):
        # (k_p lambda)^2 overflows from about k_p = 1e154 on K_3 (lambda = 3); the
        # slow root of s^2 + 3 k_p s + 3 b is about -b/k_p, subnormal at 1e300
        sd = spectral_data(complete(3))
        gains = Gains(k_p=k_p, k_i=2e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            abscissa = spectral_abscissa(sd, gains)
            result = hurwitz_check(sd, gains)
        assert abscissa < 0 and result.is_hurwitz
        assert abscissa == pytest.approx(-2e-9 / k_p, rel=1e-12)

    @pytest.mark.parametrize("name", ["triangle_pi", "mesh_close_pair", "mesh_far_pair"])
    def test_finite_square_keeps_its_bits(self, name):
        # where (k_p lambda)^2 is finite the abscissa is the squared form, bit for bit:
        # the analyze --simulate horizon and its RK4 row count depend on it
        graph, _, gains = load_scenario(SCENARIOS / f"{name}.json")
        sd = spectral_data(graph)
        lam = sd.eigenvalues[1:]
        for k_p in (gains.k_p, 1e-12, 1.0, 1e100, 1e150):
            g = Gains(k_p=k_p, k_i=gains.k_i, omega_c=gains.omega_c)
            damping, stiffness = k_p * lam, g.effective_integral_gain * lam
            disc = damping * damping - 4.0 * stiffness
            real = np.where(disc < 0.0, -damping / 2.0,
                            -2.0 * stiffness / (damping + np.sqrt(np.maximum(disc, 0.0))))
            assert spectral_abscissa(sd, g) == float(real.max())

    def test_single_edge_complex_pair(self):
        # poles of s^2 + 2s + 2: -1 +/- i
        assert spectral_abscissa(spectral_data(path(2)), Gains(k_p=1.0, k_i=1.0)) == -1.0

    def test_overdamped_root_has_no_cancellation(self):
        # s^2 + 2s + 2e-12: the slow root is about -1e-12, and the
        # textbook (-2 + sqrt(4 - 8e-12)) / 2 keeps only about 4 digits of it
        got = spectral_abscissa(spectral_data(path(2)), Gains(k_p=1.0, k_i=1e-12))
        with localcontext() as ctx:
            ctx.prec = 50
            damping, stiffness = Decimal(2.0), Decimal(1e-12) * 2
            exact = -2 * stiffness / (damping + (damping ** 2 - 4 * stiffness).sqrt())
            assert abs(Decimal(got) - exact) <= Decimal(1e-16) * abs(exact)

    def test_matches_dense_eigenvalues(self):
        # gains in the decades of the shipped scenarios, where the dense
        # solver resolves the slowest pole; under- and overdamped modes occur
        rng = np.random.RandomState(7)
        cases = [(mesh(4, 6), Gains(k_p=2e-8, k_i=1e-15)),
                 (mesh(12, 12), Gains(k_p=2e-8, k_i=1e-15)),
                 (complete(3), Gains(k_p=3e-5, k_i=2e-9))]
        for _ in range(60):
            n = rng.randint(2, 25)
            cases.append((random_connected_graph(rng, n, extra_edges=rng.randint(0, 2 * n)),
                          Gains(k_p=10 ** rng.uniform(-9, -6), k_i=10 ** rng.uniform(-16, -12),
                                omega_c=rng.uniform(0.5, 2.0))))
        for g, gains in cases:
            sd = spectral_data(g)
            closed = spectral_abscissa(sd, gains)
            dense = dense_abscissa(build_reduced_system(sd, gains).a_hat)
            assert closed < 0
            assert abs(closed - dense) <= 1e-12 * abs(closed)

    def test_horizon_independent_of_blas_threads(self):
        # the dense abscissa of this mesh moved with the BLAS thread count;
        # the horizon and the Hurwitz report come from the closed form
        code = ("from bittide_sim.analysis import hurwitz_check\n"
                "from bittide_sim.graph import mesh, spectral_data\n"
                "from bittide_sim.ode import Gains, spectral_abscissa\n"
                "sd = spectral_data(mesh(12, 12))\n"
                "gains = Gains(k_p=2e-8, k_i=1e-15)\n"
                "print(repr(30.0 / abs(spectral_abscissa(sd, gains))))\n"
                "print(repr(hurwitz_check(sd, gains)))\n")
        src = str(Path(bittide_sim.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=120)
            outputs.append(out.stdout.splitlines())
        assert outputs[0] == outputs[1]
        sd = spectral_data(mesh(12, 12))
        gains = Gains(k_p=2e-8, k_i=1e-15)
        horizon, hurwitz = outputs[0]
        assert float(horizon) == 30.0 / abs(spectral_abscissa(sd, gains))
        assert hurwitz == repr(hurwitz_check(sd, gains))
        assert hurwitz_check(sd, gains).spectral_abscissa == -6.814834742186376e-10

class TestLyapunovCertificate:
    def test_single_edge_x2_value(self):
        sd = spectral_data(path(2))
        _, x2 = lyapunov_solutions(build_reduced_system(sd, Gains(k_p=1.0, k_i=1.0)))
        assert np.allclose(x2, [[0.5, 0.0], [0.0, 0.25]], atol=1e-14)

    def test_residuals_on_random_draws(self):
        rng = np.random.RandomState(11)
        for _ in range(20):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 9)))
            gains = Gains(k_p=10 ** rng.uniform(-2, 0.5), k_i=10 ** rng.uniform(-3, 0))
            red = build_reduced_system(sd, gains)
            cert = build_lyapunov_certificate(red)
            assert cert.residual1 <= 1e-9
            assert cert.residual2 <= 1e-9
            assert cert.residual_sum <= 1e-9
            assert cert.min_eig_x1 > 0 and cert.min_eig_x2 > 0

    def test_schur_complement_positive(self):
        sd = spectral_data(mesh(2, 3))
        gains = Gains(k_p=0.7, k_i=0.2, omega_c=1.3)
        x1, _ = lyapunov_solutions(build_reduced_system(sd, gains))
        n1 = sd.graph.n - 1
        a11 = x1[:n1, :n1]
        a12 = x1[:n1, n1:]
        a22 = x1[n1:, n1:]
        schur = a22 - a12.T @ np.linalg.solve(a11, a12)
        assert np.linalg.eigvalsh((schur + schur.T) / 2).min() > 0


class TestPredictedPerformance:
    def test_quadratic_form_is_resistance_distance(self):
        # q is formed from the deviations from the mean rate, so the base rate
        # 1.0 does not cancel inside rounding
        alpha = 1e-4
        gains = Gains(k_p=2e-8, k_i=1e-15)
        rng = np.random.RandomState(21)
        graphs = [mesh(4, 6), mesh(12, 12)] + [
            random_connected_graph(rng, rng.randint(3, 30)) for _ in range(6)]
        for g in graphs:
            sd = spectral_data(g)
            pairs = [(0, 1), (0, g.n - 1)] + [
                tuple(rng.choice(g.n, 2, replace=False)) for _ in range(4)]
            for i, j in pairs:
                omega_u, expected = two_node_perturbation(sd, gains, i, j, alpha)
                q = predicted_performance(sd, gains, omega_u).quadratic_form
                assert abs(q - expected.quadratic_form) <= 1e-11 * expected.quadratic_form

    def test_exact_response_integrates_to_the_closed_form(self):
        # 8-point Gauss-Legendre on panels of half the fastest time scale, out
        # to 40 / |spectral abscissa|, integrates the exact modal response with
        # no quadrature or truncation error to speak of: 100 other seeded draws
        # of this kind matched both norms to 8.2e-15
        x, wts = np.polynomial.legendre.leggauss(8)
        rng = np.random.RandomState(3)
        for _ in range(12):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 9)))
            gains = Gains(k_p=3e-5 * 10 ** rng.uniform(-1, 1),
                          k_i=2e-9 * 10 ** rng.uniform(-1, 1))
            dev = rng.uniform(-5e-5, 5e-5, sd.graph.n)
            dev -= dev.mean()  # so omega is its own deviation from the mean rate
            h = 10.0 * default_time_step(sd, gains)
            edges = np.arange(0.0, 40.0 / abs(spectral_abscissa(sd, gains)) + h, h)
            t = ((edges[:-1] + edges[1:]) / 2.0)[:, None] + (h / 2.0) * x
            weight = np.broadcast_to(h / 2.0 * wts, t.shape).ravel()
            omega, delta = modal_response(sd, gains, dev, t.ravel())
            report = predicted_performance(sd, gains, dev)
            assert (weight @ np.einsum("ij,ij->i", omega, omega)
                    == pytest.approx(report.freq_dev_norm_sq, rel=1e-13, abs=0.0))
            assert (weight @ np.einsum("ij,ij->i", delta, delta)
                    == pytest.approx(report.occupancy_norm_sq, rel=1e-13, abs=0.0))

    def test_uniform_input_zero(self):
        sd = spectral_data(complete(4))
        report = predicted_performance(sd, Gains(k_p=0.1, k_i=0.1), np.full(4, 3.0))
        assert report.quadratic_form == pytest.approx(0.0, abs=1e-12)
        assert report.freq_dev_norm_sq == pytest.approx(0.0, abs=1e-12)
        assert report.occupancy_norm_sq == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k_p, k_i, omega_u", [
        (1e-320, 2e-9, [1.01, 1.0, 0.99]),  # 2 a b underflows to zero
        (1.0, 1e-320, [1.01, 1.0, 0.99]),  # q / (2 a b) overflows
        (1e-200, 1e-200, [3.0, 3.0, 3.0]),  # q = 0 over 2 a b = 0
    ])
    def test_norms_outside_float_range_refused(self, k_p, k_i, omega_u):
        with pytest.raises(ParameterError, match="float range"):
            predicted_performance(spectral_data(complete(3)), Gains(k_p=k_p, k_i=k_i),
                                  np.array(omega_u))

    def test_norm_ratio_is_exactly_b(self):
        rng = np.random.RandomState(12)
        sd = spectral_data(random_connected_graph(rng, 6))
        gains = Gains(k_p=0.12, k_i=0.03, omega_c=2.0)
        report = predicted_performance(sd, gains, rng.randn(6))
        assert report.freq_dev_norm_sq / report.occupancy_norm_sq == pytest.approx(
            gains.effective_integral_gain, rel=1e-12)

    def test_monotone_in_gains(self):
        sd = spectral_data(mesh(2, 3))
        omega_u = np.array([1.01, 1.0, 0.99, 1.0, 1.02, 0.98])
        base = predicted_performance(sd, Gains(k_p=0.1, k_i=0.1), omega_u)
        double_a = predicted_performance(sd, Gains(k_p=0.2, k_i=0.1), omega_u)
        double_b = predicted_performance(sd, Gains(k_p=0.1, k_i=0.2), omega_u)
        assert double_a.freq_dev_norm_sq == pytest.approx(base.freq_dev_norm_sq / 2)
        assert double_a.occupancy_norm_sq == pytest.approx(base.occupancy_norm_sq / 2)
        assert double_b.freq_dev_norm_sq == pytest.approx(base.freq_dev_norm_sq)
        assert double_b.occupancy_norm_sq == pytest.approx(base.occupancy_norm_sq / 2)

    def test_edge_addition_never_hurts(self):
        rng = np.random.RandomState(13)
        gains = Gains(k_p=0.2, k_i=0.1)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 9), extra_edges=1)
            existing = {(min(u, v), max(u, v)) for u, v in g.edges}
            non_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                         if (i, j) not in existing]
            if not non_edges:
                continue
            omega_u = rng.randn(g.n)
            before = predicted_performance(spectral_data(g), gains, omega_u)
            extra = non_edges[rng.randint(len(non_edges))]
            from bittide_sim.graph import OrientedGraph
            g2 = OrientedGraph(g.n, g.edges + (extra,))
            after = predicted_performance(spectral_data(g2), gains, omega_u)
            assert after.freq_dev_norm_sq <= before.freq_dev_norm_sq + 1e-10
            assert after.occupancy_norm_sq <= before.occupancy_norm_sq + 1e-10


class TestTwoNodePerturbation:
    def test_zero_alpha(self):
        sd = spectral_data(complete(3))
        _, report = two_node_perturbation(sd, Gains(k_p=0.1, k_i=0.1), 0, 1, 0.0)
        assert report.freq_dev_norm_sq == 0.0

    def test_single_edge_arithmetic(self):
        # R = 1, so the frequency norm is alpha^2 / (2 k_p)
        sd = spectral_data(path(2))
        gains = Gains(k_p=2e-8, k_i=1e-15)
        omega_u, report = two_node_perturbation(sd, gains, 0, 1, 1e-4)
        assert np.array_equal(omega_u, [1.0 + 1e-4, 1.0 - 1e-4])
        assert report.freq_dev_norm_sq == pytest.approx((1e-4) ** 2 / (2 * 2e-8), rel=1e-12)
        assert report.freq_dev_norm_sq == pytest.approx(0.25, rel=1e-12)

    def test_agrees_with_general_formula(self):
        rng = np.random.RandomState(14)
        for _ in range(10):
            sd = spectral_data(random_connected_graph(rng, rng.randint(3, 9)))
            gains = Gains(k_p=10 ** rng.uniform(-2, 0), k_i=10 ** rng.uniform(-3, 0))
            i, j = rng.choice(sd.graph.n, size=2, replace=False)
            alpha = 10 ** rng.uniform(-4, -1)
            omega_u, report = two_node_perturbation(sd, gains, int(i), int(j), alpha)
            general = predicted_performance(sd, gains, omega_u)
            assert report.freq_dev_norm_sq == pytest.approx(
                general.freq_dev_norm_sq, rel=1e-12)
            assert report.occupancy_norm_sq == pytest.approx(
                general.occupancy_norm_sq, rel=1e-12)

    def test_same_node_rejected(self):
        sd = spectral_data(path(3))
        with pytest.raises(ValueError):
            two_node_perturbation(sd, Gains(k_p=0.1, k_i=0.1), 1, 1, 0.1)


class TestWorstCaseFrequency:
    def test_path_three_value(self):
        sd = spectral_data(path(3))
        result = worst_case_frequency(sd, 1.0)
        assert result.attained_quadratic_form == pytest.approx(1.0, rel=1e-12)
        assert not result.degenerate
        assert np.allclose(result.omega_u, np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0), atol=1e-12)

    def test_maximizes_over_random_unit_vectors(self):
        rng = np.random.RandomState(15)
        for g in (path(5), mesh(2, 4), complete(4)):
            sd = spectral_data(g)
            result = worst_case_frequency(sd, 1.0)
            lp = sd.pseudo_inverse
            for _ in range(300):
                u = rng.randn(g.n)
                u /= np.linalg.norm(u)
                assert u @ lp @ u <= result.attained_quadratic_form + 1e-9
        # the maximizer has unit norm and lies in the disagreement subspace
        rng = np.random.RandomState(8)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 10))
            vec = worst_case_frequency(spectral_data(g), 1.0).omega_u
            assert abs(vec @ np.ones(g.n)) <= 1e-12
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_scaling(self):
        sd = spectral_data(path(4))
        r1 = worst_case_frequency(sd, 1.0)
        r3 = worst_case_frequency(sd, 3.0)
        assert r3.attained_quadratic_form == pytest.approx(
            9.0 * r1.attained_quadratic_form, rel=1e-12)
        assert np.allclose(r3.omega_u, 3.0 * r1.omega_u)

    def test_rectangular_mesh_varies_along_long_axis(self):
        sd = spectral_data(mesh(4, 6))
        result = worst_case_frequency(sd, 1.0)
        assert not result.degenerate
        grid = result.omega_u.reshape(4, 6)
        # constant across the short axis, strictly varying along the long one
        assert np.abs(grid - grid.mean(axis=0)).max() <= 1e-8
        assert np.abs(np.diff(grid.mean(axis=0))).min() > 1e-3
        # sign convention: the first non-negligible entry is positive
        assert result.omega_u[np.abs(result.omega_u) > 1e-9][0] > 0

    def test_square_mesh_degenerate_contains_diagonal_mode(self):
        sd = spectral_data(mesh(4, 4))
        result = worst_case_frequency(sd, 1.0)
        assert result.degenerate
        lam2 = sd.eigenvalues[1]
        b_path = incidence_matrix(path(4))
        w_path, v_path = np.linalg.eigh(b_path @ b_path.T)
        profile = v_path[:, 1]
        diag_mode = np.add.outer(profile, profile).reshape(-1)
        diag_mode /= np.linalg.norm(diag_mode)
        resid = np.linalg.norm(sd.incidence @ sd.incidence.T @ diag_mode - lam2 * diag_mode)
        assert resid <= 1e-9
        # K_4's lambda_2 = 4 has multiplicity 3
        k4 = worst_case_frequency(spectral_data(complete(4)), 1.0)
        assert k4.degenerate
        assert k4.attained_quadratic_form == pytest.approx(0.25, rel=1e-12)

    def test_nonpositive_gamma(self):
        sd = spectral_data(path(3))
        with pytest.raises(ValueError):
            worst_case_frequency(sd, 0.0)

    def test_gamma_overflowing_the_quadratic_form(self):
        with pytest.raises(ValueError, match="overflow"):
            worst_case_frequency(spectral_data(path(3)), 1e200)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_gamma_not_finite_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            worst_case_frequency(spectral_data(path(3)), gamma)


class TestEmpiricalNorms:
    def test_zero_input(self):
        sd = spectral_data(path(3))
        sys_full = build_full_system(sd, Gains(k_p=0.2, k_i=0.1))
        trace = simulate_ode(sys_full, np.zeros(3), 50.0)
        freq_sq, occ_sq = empirical_norms(trace)
        assert freq_sq == 0.0 and occ_sq == 0.0

    def test_single_edge_matches_closed_form(self):
        alpha = 0.01
        gains = Gains(k_p=0.2, k_i=0.05)
        sd = spectral_data(path(2))
        sys_full = build_full_system(sd, gains)
        abscissa = spectral_abscissa(sd, gains)
        omega_u = np.array([1.0 + alpha, 1.0 - alpha])
        trace = simulate_ode(sys_full, omega_u, 30.0 / abs(abscissa))
        freq_sq, occ_sq = empirical_norms(trace, abscissa)
        a, b = gains.k_p, gains.effective_integral_gain
        assert freq_sq == pytest.approx(alpha ** 2 / (2 * a), rel=0.01)
        assert occ_sq == pytest.approx(alpha ** 2 / (2 * a * b), rel=0.01)
        assert freq_sq / occ_sq == pytest.approx(b, rel=0.01)
        # sharper, at a few times the gaps RK4 at the default step and Simpson's
        # rule leave: 1.13e-7 for the frequency norm, 2.66e-7 for occupancy and
        # 1.53e-7 for the ratio (the trapezoid rule left 8.33e-4, 5.93e-8, 8.33e-4)
        assert freq_sq == pytest.approx(alpha ** 2 / (2 * a), rel=5e-7)
        assert occ_sq == pytest.approx(alpha ** 2 / (2 * a * b), rel=1e-6)
        assert freq_sq / occ_sq == pytest.approx(b, rel=5e-7)

    def test_simpson_on_the_exact_modal_response(self):
        # the exact response sampled on simulate_ode's grid out to 30 time
        # constants, so that only the quadrature errs; these 12 draws read at
        # most 1.9e-7 (frequency) and 2.5e-7 (occupancy), and 100 more draws
        # 5.5e-7 and 4.1e-7, where the trapezoid rule read 8.3e-4 and 1.0e-7
        rng = np.random.RandomState(3)
        for _ in range(12):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 9)))
            gains = Gains(k_p=3e-5 * 10 ** rng.uniform(-1, 1),
                          k_i=2e-9 * 10 ** rng.uniform(-1, 1))
            dev = rng.uniform(-5e-5, 5e-5, sd.graph.n)
            dev -= dev.mean()  # so omega is its own deviation from the mean rate
            times = simulate_ode(build_full_system(sd, gains), dev,
                                 30.0 / abs(spectral_abscissa(sd, gains))).times
            omega, delta = modal_response(sd, gains, dev, times)
            report = predicted_performance(sd, gains, dev)
            assert l2_norm_squared(times, omega, 0.0) == pytest.approx(
                report.freq_dev_norm_sq, rel=1e-6, abs=0.0)
            assert l2_norm_squared(times, delta, 0.0) == pytest.approx(
                report.occupancy_norm_sq, rel=1e-6, abs=0.0)

    def test_short_horizon_warns(self):
        gains = Gains(k_p=0.2, k_i=0.05)
        sd = spectral_data(path(2))
        sys_full = build_full_system(sd, gains)
        abscissa = spectral_abscissa(sd, gains)
        trace = simulate_ode(sys_full, np.array([1.1, 0.9]), 0.5 / abs(abscissa))
        with pytest.warns(InsufficientHorizonWarning):
            empirical_norms(trace, abscissa)

    def test_adequate_horizon_silent(self):
        gains = Gains(k_p=0.2, k_i=0.05)
        sd = spectral_data(path(2))
        sys_full = build_full_system(sd, gains)
        abscissa = spectral_abscissa(sd, gains)
        trace = simulate_ode(sys_full, np.array([1.1, 0.9]), 30.0 / abs(abscissa))
        with warnings.catch_warnings():
            warnings.simplefilter("error", InsufficientHorizonWarning)
            empirical_norms(trace, abscissa)
