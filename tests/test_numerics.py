"""Tests for the numerical kernels: the RK4 step map (ode), the Simpson L2
norm and the Lyapunov residual (analysis), and the generic RK4 oracle (helpers)."""

import numpy as np
import pytest

from bittide_sim import analysis
from bittide_sim.analysis import _lyapunov_residual, l2_norm_squared
from bittide_sim.ode import rk4_step_operator
from helpers import rk4_integrate, subtracted_l2_norm_squared


class TestRk4:
    def test_zero_derivative_constant(self):
        times, states = rk4_integrate(lambda t, x: np.zeros_like(x),
                                      np.array([2.0, -1.0]), 0.0, 1.0, 0.1)
        assert np.allclose(states, states[0])
        assert times[0] == 0.0 and times[-1] == 1.0

    def test_exponential_decay(self):
        times, states = rk4_integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, 1e-3)
        assert abs(states[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_fourth_order_convergence(self):
        # halving dt shrinks the error roughly 16x on a smooth linear system
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        x0 = np.array([1.0, 0.0])
        exact = np.array([np.cos(2.0), -np.sin(2.0)])

        def err(dt):
            _, states = rk4_integrate(lambda t, x: a @ x, x0, 0.0, 2.0, dt)
            return np.linalg.norm(states[-1] - exact)

        ratio = err(0.02) / err(0.01)
        assert 12.0 < ratio < 20.0

    def test_partial_final_step(self):
        times, _ = rk4_integrate(lambda t, x: -x, np.array([1.0]), 0.0, 0.55, 0.1)
        assert times[-1] == pytest.approx(0.55, abs=0)
        assert len(times) == 7  # 5 full steps + shortened final + t0

    def test_nonpositive_step(self):
        with pytest.raises(ValueError):
            rk4_integrate(lambda t, x: x, np.array([1.0]), 0.0, 1.0, 0.0)


class TestRk4StepOperator:
    def test_matches_generic_integrator(self):
        rng = np.random.RandomState(11)
        a = rng.randn(4, 4) * 0.3
        u = rng.randn(4)
        x0 = rng.randn(4)
        dt = 0.05
        phi, gamma = rk4_step_operator(a, dt)
        _, states = rk4_integrate(lambda t, x: a @ x + u, x0, 0.0, dt, dt)
        assert np.allclose(phi @ x0 + gamma @ u, states[-1], rtol=1e-12, atol=1e-13)


class TestL2NormSquared:
    def test_constant_equals_reference(self):
        t = np.linspace(0, 5, 100)
        y = np.full((100, 3), 2.0)
        assert l2_norm_squared(t, y, np.full(3, 2.0)) == 0.0

    def test_exponential_integral(self):
        t = np.arange(0.0, 20.0 + 1e-9, 1e-3)
        y = np.exp(-t)
        val = l2_norm_squared(t, y, 0.0)
        assert abs(val - 0.5) < 1e-4

    def test_quadratic_scaling(self):
        t = np.linspace(0, 3, 500)
        y = np.sin(t)[:, None]
        base = l2_norm_squared(t, y, np.zeros(1))
        assert l2_norm_squared(t, 3.0 * y, np.zeros(1)) == pytest.approx(9.0 * base)

    def test_fourth_order_convergence(self):
        # halving the grid spacing shrinks the Simpson error roughly 16x
        exact = 0.5 * (1.0 - np.exp(-8.0))  # integral of e^{-2t} over [0, 4]

        def err(n):
            t = np.linspace(0.0, 4.0, n + 1)
            return abs(l2_norm_squared(t, np.exp(-t), 0.0) - exact)

        ratio = err(50) / err(100)
        assert 15.0 < ratio < 17.0

    def test_trapezoid_on_an_odd_step_and_a_partial_step(self):
        # seven uniform steps and a partial one: Simpson on the first six, the
        # trapezoid on the seventh and on the partial step
        t = np.append(np.arange(8) * 0.25, 1.8)
        f = np.exp(-t) ** 2
        simpson = sum((t[k + 2] - t[k]) * (f[k] + 4.0 * f[k + 1] + f[k + 2]) / 6.0
                      for k in (0, 2, 4))
        trapezoid = sum((t[k + 1] - t[k]) * (f[k] + f[k + 1]) / 2.0 for k in (6, 7))
        assert l2_norm_squared(t, np.exp(-t), 0.0) == pytest.approx(simpson + trapezoid,
                                                                    rel=1e-15)
        # steps all unequal: the trapezoid rule throughout
        t = np.cumsum([0.0, 0.1, 0.3, 0.2, 0.4])
        f = np.exp(-t) ** 2
        assert l2_norm_squared(t, np.exp(-t), 0.0) == pytest.approx(
            float(np.sum(np.diff(t) * (f[:-1] + f[1:]) / 2.0)), rel=1e-15)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_reference_matches_subtraction_bit_for_bit(self, zero):
        # an all-zero reference is not subtracted; x - 0 differs from x only in
        # the sign of a zero, so the integral keeps every bit
        rng = np.random.RandomState(4)
        rows = 3 * analysis._L2_BLOCK_ROWS + 7
        t = np.cumsum(rng.uniform(0.1, 2.0, rows))
        wide = rng.randn(rows, 9) * 10.0 ** rng.uniform(-160, 100, (rows, 9))
        wide[rng.rand(rows, 9) < 0.2] = -0.0
        wide[rng.rand(rows, 9) < 0.1] = 0.0
        for values in (wide, wide[:, 2:7], np.asfortranarray(wide), wide[:, 4], -wide):
            width = values.shape[1] if values.ndim == 2 else 1
            for reference in (np.full(width, zero), zero):
                got = l2_norm_squared(t, values, reference)
                want = subtracted_l2_norm_squared(t, values, reference)
                assert np.isfinite(want)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # a nonzero reference is still subtracted
        small, ref = rng.randn(rows, 9), np.zeros(9)
        ref[3] = 0.5
        got = l2_norm_squared(t, small, ref)
        assert got == subtracted_l2_norm_squared(t, small, ref)
        assert got != l2_norm_squared(t, small, np.zeros(9))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            l2_norm_squared(np.array([0.0]), np.array([[1.0]]), np.zeros(1))


class TestLyapunovResidual:
    def test_exact_solution(self):
        a = -0.5 * np.eye(3)
        assert _lyapunov_residual(a, np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-15)

    def test_perturbed_nonzero(self):
        a = -0.5 * np.eye(3)
        eps = 1e-6
        resid = _lyapunov_residual(a, np.eye(3) + eps * np.eye(3), np.eye(3))
        assert resid == pytest.approx(eps * np.linalg.norm(a + a.T), rel=1e-9)
