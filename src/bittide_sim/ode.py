"""Continuous-time linear approximation of the synchronization loop.

The closed loop under PI control, with quantization, sampling, and delays
removed, is a linear state-space system driven by the constant uncorrected
frequencies. State is x = (phase offsets, scaled integrator states); outputs
are per-node frequency and per-edge relative buffer occupancy.

The full 2n-state system carries the drift mode (mean phase grows linearly),
which is what the frame-exact model exhibits, so trajectory comparisons use
it. Stability and performance analysis use the reduced system obtained by
projecting onto the disagreement subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SpectralData
from .numerics import SingularMatrixError, rk4_step_operator, solve


class ParameterError(ValueError):
    """A model parameter is out of range; field names the dataclass field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


# the most trace rows, fluid-model RK4 steps or estimated frame-model
# measurements one run may take; a larger run is refused before it allocates
RUN_SIZE_CAP = 10_000_000


@dataclass(frozen=True)
class Gains:
    """PI controller gains and the controller frequency constant.

    The closed-loop formulas depend on the proportional gain k_p and the
    scaled integral gain omega_c * k_i; both must be positive for stability.
    """

    k_p: float
    k_i: float
    omega_c: float = 1.0

    def __post_init__(self):
        if self.k_p <= 0:
            raise ParameterError("k_p", f"k_p must be > 0, got {self.k_p}")
        if self.k_i <= 0:
            raise ParameterError("k_i", f"k_i must be > 0, got {self.k_i}")
        if self.omega_c <= 0:
            raise ParameterError("omega_c", f"omega_c must be > 0, got {self.omega_c}")

    @property
    def effective_integral_gain(self) -> float:
        return self.omega_c * self.k_i


@dataclass(frozen=True)
class OdeSystem:
    """Full 2n-state closed loop: dx/dt = a x + b2 w,  omega = c1 x + w,  delta = c2 x."""

    a: np.ndarray
    b2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    spectral: SpectralData
    gains: Gains


@dataclass(frozen=True)
class ReducedSystem:
    """Disagreement-subspace dynamics: (2n-2)-state, Hurwitz for positive gains."""

    a_hat: np.ndarray
    b2_hat: np.ndarray
    c1_hat: np.ndarray
    c2_hat: np.ndarray
    c_hat: np.ndarray
    spectral: SpectralData
    gains: Gains


def build_full_system(sd: SpectralData, gains: Gains) -> OdeSystem:
    """Assemble the full closed-loop state-space matrices."""
    lap = sd.laplacian
    b_inc = sd.incidence
    n = sd.graph.n
    a_gain = gains.k_p
    b_gain = gains.effective_integral_gain
    eye = np.eye(n)
    zero = np.zeros((n, n))
    a = np.block([[-a_gain * lap, b_gain * eye], [-lap, zero]])
    b2 = np.vstack([eye, zero])
    c1 = np.hstack([-a_gain * lap, b_gain * eye])
    c2 = np.hstack([-b_inc.T, np.zeros((sd.graph.m, n))])
    return OdeSystem(a=a, b2=b2, c1=c1, c2=c2, spectral=sd, gains=gains)


def build_reduced_system(sd: SpectralData, gains: Gains) -> ReducedSystem:
    """Assemble the reduced dynamics on the disagreement subspace."""
    u1 = sd.disagreement_basis
    lap_hat = sd.reduced_laplacian
    n1 = u1.shape[1]
    a_gain = gains.k_p
    b_gain = gains.effective_integral_gain
    eye = np.eye(n1)
    a_hat = np.block([[-a_gain * lap_hat, b_gain * eye], [-lap_hat, np.zeros((n1, n1))]])
    b2_hat = np.vstack([u1.T, np.zeros((n1, sd.graph.n))])
    c1_hat = np.hstack([-a_gain * sd.laplacian @ u1, b_gain * u1])
    c2_hat = np.hstack([-sd.incidence.T @ u1, np.zeros((sd.graph.m, n1))])
    c_hat = np.vstack([c1_hat, c2_hat])
    return ReducedSystem(
        a_hat=a_hat, b2_hat=b2_hat, c1_hat=c1_hat, c2_hat=c2_hat, c_hat=c_hat,
        spectral=sd, gains=gains,
    )


@dataclass(frozen=True)
class OdeTrace:
    """Sampled trajectory of the full system from x(0) = 0.

    omega is the per-node frequency and delta the per-edge relative buffer
    occupancy in frame units (directly comparable to frame-exact occupancy
    offsets). The state is kept in Laplacian modal coordinates: column k of
    theta_hat/zeta_hat is the phase/integrator coordinate along column k of
    modes, the Laplacian eigenvectors, with the drift mode in column 0.
    """

    times: np.ndarray
    omega: np.ndarray
    delta: np.ndarray
    omega_u: np.ndarray
    theta_hat: np.ndarray
    zeta_hat: np.ndarray
    modes: np.ndarray

    @property
    def omega_avg(self) -> float:
        return float(np.mean(self.omega_u))

    @property
    def theta_bar(self) -> np.ndarray:
        """Phase offset per node."""
        return self.theta_hat @ self.modes.T

    @property
    def state(self) -> np.ndarray:
        """The full-system state x = (phase offsets, scaled integrator states)."""
        return np.hstack([self.theta_bar, self.zeta_hat @ self.modes.T])


def default_time_step(sd: SpectralData, gains: Gains) -> float:
    """Step resolving the fastest closed-loop mode with a 20x safety factor.

    The block structure gives proportional modes at rate k_p*lambda and
    oscillatory modes at rate sqrt(b*lambda); the step tracks the faster.
    """
    lam_max = sd.lambda_max
    a_gain = gains.k_p
    b_gain = gains.effective_integral_gain
    return min(1.0 / (a_gain * lam_max), 1.0 / np.sqrt(b_gain * lam_max)) / 20.0


def output_time_step(sd: SpectralData, gains: Gains, output_dt: float) -> float:
    """The largest step no longer than default_time_step that divides output_dt.

    Stepping with it puts an RK4 step on every instant of the output grid.
    """
    return output_dt / np.ceil(output_dt / default_time_step(sd, gains))


# RK4 steps advanced per vectorised block: the block's step maps take
# 6 * _BLOCK_STEPS * n floats, and each block costs a few numpy calls
_BLOCK_STEPS = 256


def simulate_ode(sys: OdeSystem, omega_u, t_end: float, dt: float | None = None) -> OdeTrace:
    """RK4 trajectory of the full system from x(0) = 0.

    In the Laplacian eigenbasis the system splits into one 2x2 block per
    eigenvalue lambda_k, A_k = [[-a lambda_k, b], [-lambda_k, 0]], driven by
    (w_k, 0) with w = V^T omega_u. Classical RK4 commutes with that change of
    basis, so each block takes the same RK4 steps as the full system would,
    on the same grid; the final partial step lands exactly on t_end. The input
    is constant, so a step is the affine map z -> M_k z + g_k, and j steps are
    z -> M_k^j z + sum_{i<j} M_k^i g_k; the blocks advance together, up to
    _BLOCK_STEPS steps per numpy call. omega and delta are then one matrix
    product each. delta uses only the disagreement modes, so the drift mode,
    whose phase grows without bound, never cancels in it.
    """
    sd = sys.spectral
    n = sd.graph.n
    omega_u = np.asarray(omega_u, dtype=float)
    if omega_u.shape != (n,):
        raise ValueError(f"omega_u has shape {omega_u.shape}, expected ({n},)")
    if dt is None:
        dt = default_time_step(sd, sys.gains)
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_end / dt > RUN_SIZE_CAP:
        raise ParameterError(
            "t_end", f"reaching t = {t_end:g} takes {t_end / dt:.3g} RK4 steps of "
            f"{dt:.3g} s, above the run-size cap of {RUN_SIZE_CAP:.0e}")
    n_full = int(np.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    count = n_full + (2 if remainder > 1e-12 * max(t_end, 1.0) else 1)
    lam = sd.eigenvalues
    modes = sd.eigenvectors
    a_gain = sys.gains.k_p
    b_gain = sys.gains.effective_integral_gain
    a_modes = np.zeros((n, 2, 2))
    a_modes[:, 0, 0] = -a_gain * lam
    a_modes[:, 0, 1] = b_gain
    a_modes[:, 1, 0] = -lam
    w_hat = omega_u @ modes

    def step_map(h):
        m, g = rk4_step_operator(a_modes, h)
        return m, g[:, :, 0] * w_hat[:, None]

    # powers[j] = M^(j+1) and offsets[j] = sum_{i<=j} M^i g, laid out so that
    # each (row, column) entry is a contiguous (steps, modes) array
    m, g = step_map(dt)
    block = max(1, min(_BLOCK_STEPS, n_full))
    powers = np.empty((block, n, 2, 2))
    offsets = np.empty((block, n, 2))
    powers[0], offsets[0] = m, g
    for j in range(1, block):
        powers[j] = m @ powers[j - 1]
        offsets[j] = (m @ offsets[j - 1][:, :, None])[:, :, 0] + g
    powers = np.ascontiguousarray(powers.transpose(2, 3, 0, 1))
    offsets = np.ascontiguousarray(offsets.transpose(2, 0, 1))

    theta = np.empty((count, n))
    zeta = np.empty((count, n))
    theta[0] = 0.0
    zeta[0] = 0.0
    for s in range(0, n_full, block):
        j = min(block, n_full - s)
        th, ze = theta[s], zeta[s]
        theta[s + 1:s + 1 + j] = powers[0, 0, :j] * th + powers[0, 1, :j] * ze + offsets[0, :j]
        zeta[s + 1:s + 1 + j] = powers[1, 0, :j] * th + powers[1, 1, :j] * ze + offsets[1, :j]
    times = np.arange(count) * dt
    if count == n_full + 2:
        m, g = step_map(remainder)
        th, ze = theta[n_full], zeta[n_full]
        theta[-1] = m[:, 0, 0] * th + m[:, 0, 1] * ze + g[:, 0]
        zeta[-1] = m[:, 1, 0] * th + m[:, 1, 1] * ze + g[:, 1]
    times[-1] = t_end

    omega_hat = theta * (-a_gain * lam)
    omega_hat += b_gain * zeta
    omega = omega_hat @ modes.T
    del omega_hat
    omega += omega_u
    delta = theta[:, 1:] @ (-(sd.incidence.T @ modes[:, 1:])).T
    return OdeTrace(times=times, omega=omega, delta=delta, omega_u=omega_u,
                    theta_hat=theta, zeta_hat=zeta, modes=modes)


@dataclass(frozen=True)
class SteadyState:
    """Steady state of the reduced dynamics, via closed form and linear solve.

    omega_ss is the common steady-state frequency vector (the average of the
    uncorrected frequencies at every node).
    """

    x_closed: np.ndarray
    x_solved: np.ndarray
    omega_ss: np.ndarray
    rel_gap: float


def steady_state(reduced: ReducedSystem, omega_u) -> SteadyState:
    """Steady state of the reduced system under constant drive.

    The closed form stacks a zero block over -(1/b) U1^T omega_u: transient
    phase modes vanish and the integrators absorb the per-node frequency
    errors (b x2 -> omega_avg - omega_u in node coordinates). The solve-based
    route -A_hat^{-1} B2_hat omega_u must agree to rounding.
    """
    omega_u = np.asarray(omega_u, dtype=float)
    u1 = reduced.spectral.disagreement_basis
    b_gain = reduced.gains.effective_integral_gain
    n1 = u1.shape[1]
    x_closed = np.concatenate([np.zeros(n1), -(1.0 / b_gain) * (u1.T @ omega_u)])
    try:
        x_solved = -solve(reduced.a_hat, reduced.b2_hat @ omega_u)
    except SingularMatrixError:
        raise SingularMatrixError(
            "reduced system matrix is singular; this signals non-positive gains"
        )
    scale = max(np.linalg.norm(x_closed), 1e-300)
    rel_gap = float(np.linalg.norm(x_closed - x_solved) / scale)
    omega_ss = np.full(omega_u.shape, float(np.mean(omega_u)))
    return SteadyState(x_closed=x_closed, x_solved=x_solved, omega_ss=omega_ss, rel_gap=rel_gap)


@dataclass(frozen=True)
class DecoupledCoordinates:
    """Trajectory of the full system expressed in the spectral basis.

    disagreement_phase/integ are the (n-1)-dimensional transient blocks that
    decay to the steady state; agreement_phase is the drift mode growing as
    sqrt(n) * omega_avg * t, and agreement_integ stays identically zero.
    """

    disagreement_phase: np.ndarray
    disagreement_integ: np.ndarray
    agreement_phase: np.ndarray
    agreement_integ: np.ndarray


def decoupled_coordinates(trace: OdeTrace) -> DecoupledCoordinates:
    """Split a full-system trace into its disagreement and agreement components.

    The trace is stored in the Laplacian eigenbasis, whose first column is the
    normalised all-ones vector, so each component is a slice of it.
    """
    return DecoupledCoordinates(
        disagreement_phase=trace.theta_hat[:, 1:],
        disagreement_integ=trace.zeta_hat[:, 1:],
        agreement_phase=trace.theta_hat[:, 0],
        agreement_integ=trace.zeta_hat[:, 0],
    )
