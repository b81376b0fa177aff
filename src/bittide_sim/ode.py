"""Continuous-time linear approximation of the synchronization loop.

The closed loop under PI control, with quantization, sampling, and delays
removed, is a linear state-space system driven by the constant uncorrected
frequencies. State is x = (phase offsets, scaled integrator states); outputs
are per-node frequency and per-edge relative buffer occupancy.

In the Laplacian eigenbasis the loop splits into one 2x2 block per
eigenvalue, and OdeSystem holds it in that form. Its block for the zero
eigenvalue carries the drift mode (mean phase grows linearly), which is what
the frame-exact model exhibits, so trajectory comparisons use the full
system. Each other block has the characteristic polynomial
s^2 + a lambda_k s + b lambda_k, whose roots give the spectral abscissa in
closed form (spectral_abscissa); it sets the analysis horizon and is the
Hurwitz witness. The Lyapunov certificate uses the reduced system obtained by
projecting onto the disagreement subspace.
"""

import contextlib
from typing import NamedTuple

import numpy as np

from .graph import SpectralData


class ParameterError(ValueError):
    """A model parameter is out of range; field names the record field that holds it."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


# the most trace rows, fluid-model RK4 steps or estimated frame-model
# measurements one run may take; a larger run is refused before it allocates
RUN_SIZE_CAP = 10_000_000
# the most cells, rows times columns, one run's trace may hold
CELL_CAP = 100_000_000


class _GainFields(NamedTuple):
    k_p: float
    k_i: float
    omega_c: float = 1.0


class Gains(_GainFields):
    """PI controller gains and the controller frequency constant.

    The closed-loop formulas depend on the proportional gain k_p and the
    scaled integral gain omega_c * k_i; both must be positive for stability.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k_p <= 0:
            raise ParameterError("k_p", f"k_p must be > 0, got {self.k_p}")
        if self.k_i <= 0:
            raise ParameterError("k_i", f"k_i must be > 0, got {self.k_i}")
        if self.omega_c <= 0:
            raise ParameterError("omega_c", f"omega_c must be > 0, got {self.omega_c}")
        if not np.isfinite(self.omega_c * self.k_i):
            raise ParameterError("k_i", f"omega_c * k_i = {self.omega_c} * {self.k_i} "
                                 "overflows the float range")
        return self

    @classmethod
    def _make(cls, iterable):  # through __new__, so _replace checks too
        return cls(*iterable)

    @property
    def effective_integral_gain(self) -> float:
        return self.omega_c * self.k_i


class OdeSystem(NamedTuple):
    """The closed loop as one 2x2 block per Laplacian eigenvalue lambda_k.

    blocks[k] = [[-a lambda_k, b], [-lambda_k, 0]] acts on the modal state
    (theta_k, zeta_k), the phase and integrator coordinates along column k of
    spectral.eigenvectors, and is driven by (w_k, 0) with w = V^T omega_u.
    Row 0 also gives the modal frequency: (V^T omega)_k = w_k + blocks[k, 0] @ z_k.
    Column 0 is the drift mode; delta reads only the disagreement modes.
    """

    blocks: np.ndarray
    spectral: SpectralData
    gains: Gains


class ReducedSystem(NamedTuple):
    """Disagreement-subspace dynamics: (2n-2)-state, Hurwitz for positive gains."""

    a_hat: np.ndarray
    c1_hat: np.ndarray
    c2_hat: np.ndarray
    lap_hat: np.ndarray
    spectral: SpectralData
    gains: Gains


def build_full_system(sd: SpectralData, gains: Gains) -> OdeSystem:
    """The per-mode blocks of the full closed loop."""
    lam = sd.eigenvalues
    blocks = np.zeros((sd.graph.n, 2, 2))
    with np.errstate(over="ignore"):  # k_p lambda may pass 1.8e308; default_time_step refuses it
        blocks[:, 0, 0] = -gains.k_p * lam
    blocks[:, 0, 1] = gains.effective_integral_gain
    blocks[:, 1, 0] = -lam
    return OdeSystem(blocks=blocks, spectral=sd, gains=gains)


def build_reduced_system(sd: SpectralData, gains: Gains) -> ReducedSystem:
    """Assemble the reduced dynamics on the disagreement subspace U1 = eigenvectors[:, 1:]."""
    lap = sd.incidence @ sd.incidence.T
    u1 = sd.eigenvectors[:, 1:]
    lap_hat = u1.T @ lap @ u1
    lap_hat = (lap_hat + lap_hat.T) / 2.0
    n1 = u1.shape[1]
    a_gain = gains.k_p
    b_gain = gains.effective_integral_gain
    eye = np.eye(n1)
    a_hat = np.block([[-a_gain * lap_hat, b_gain * eye], [-lap_hat, np.zeros((n1, n1))]])
    c1_hat = np.hstack([-a_gain * lap @ u1, b_gain * u1])
    c2_hat = np.hstack([-sd.incidence.T @ u1, np.zeros((sd.graph.m, n1))])
    return ReducedSystem(a_hat=a_hat, c1_hat=c1_hat, c2_hat=c2_hat, lap_hat=lap_hat,
                         spectral=sd, gains=gains)


def rk4_step_operator(a: np.ndarray, dt: float):
    """One-step map of classical RK4 for the affine system dx/dt = a x + u.

    For constant u over the step, RK4 is exactly x' = phi @ x + gamma @ u with

        phi   = I + h a + h^2 a^2/2 + h^3 a^3/6 + h^4 a^4/24
        gamma = h I + h^2 a/2 + h^3 a^2/6 + h^4 a^3/24

    A stack of square float64 matrices, shape (..., d, d), gives a stack of maps.
    """
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a3 = a2 @ a
    a4 = a3 @ a
    phi = eye + dt * a + dt**2 / 2.0 * a2 + dt**3 / 6.0 * a3 + dt**4 / 24.0 * a4
    gamma = dt * eye + dt**2 / 2.0 * a + dt**3 / 6.0 * a2 + dt**4 / 24.0 * a3
    return phi, gamma


# RK4 steps advanced per vectorised block: the block's step maps take
# 6 * _BLOCK_STEPS * n floats, and each block costs a few numpy calls
_BLOCK_STEPS = 256
# rows of modal state formed at a time; a chunk starts on a block boundary, so
# every block starts from the same row whatever the chunking, and a short last
# chunk joins the one before it, since numpy sends a one-row product to gemv,
# which rounds differently from the many-row product
_CHUNK_STEPS = 8 * _BLOCK_STEPS
# one chunk's two products take _CHUNK_STEPS * n * (n + m) multiply-adds; from
# this many a run of two or more chunks starts a worker thread. At one BLAS
# thread on 2 cores the worker lost on a 10x11 mesh (6.96e7), broke about even
# on 11x11 (8.45e7) and won from 11x12 (1.01e8: 426 against 743 ms)
_WORKER_MACS = 8e7


def _modal_chunks(powers, offsets, last_step, n_full: int, count: int):
    """Yield (r, theta, zeta): the modal phase and integrator state of rows r, r+1, ...

    powers[r, c, j] is entry (r, c) of M^(j+1) and offsets[r, j] entry r of
    sum_{i<=j} M^i g, each a contiguous array over the modes; last_step is the
    (M, g) of the final partial step, or None when the grid ends on a full step.
    The chunks cover rows 0 .. count-1 in order from x(0) = 0: _CHUNK_STEPS
    rows each, and the last takes the rest, so it has fewer only when it is the
    only chunk. The row that starts the next chunk lies outside the yielded
    views, so the caller may overwrite them. Each block row is formed in place
    as ((p_c0 * theta) + (p_c1 * zeta)) + o_c, c = 0 for theta and 1 for zeta.
    """
    p, o = powers, offsets
    block, n = p.shape[2], p.shape[3]
    scratch = np.empty((block, n))
    th = ze = np.zeros(n)
    n_chunks = max(1, count // _CHUNK_STEPS)
    for i in range(n_chunks):
        r = i * _CHUNK_STEPS
        # a chunk before the last also holds the row after it, which starts the next
        end = count - 1 if i == n_chunks - 1 else r + _CHUNK_STEPS
        theta = np.empty((end - r + 1, n))
        zeta = np.empty((end - r + 1, n))
        theta[0] = th
        zeta[0] = ze
        for s in range(r, min(end, n_full), block):
            j = min(block, n_full - s, end - s)
            k = s - r
            th, ze = theta[k], zeta[k]
            for c, dst in enumerate((theta[k + 1:k + 1 + j], zeta[k + 1:k + 1 + j])):
                np.multiply(p[c, 0, :j], th, out=dst)
                dst += np.multiply(p[c, 1, :j], ze, out=scratch[:j])
                dst += o[c, :j]
        if end == n_full + 1:
            m, g = last_step
            th, ze = theta[-2], zeta[-2]
            theta[-1] = m[:, 0, 0] * th + m[:, 0, 1] * ze + g[:, 0]
            zeta[-1] = m[:, 1, 0] * th + m[:, 1, 1] * ze + g[:, 1]
        if i < n_chunks - 1:
            th, ze = theta[-1], zeta[-1]
            theta, zeta = theta[:-1], zeta[:-1]
        yield r, theta, zeta


class OdeTrace(NamedTuple):
    """Sampled trajectory of the full system from x(0) = 0.

    omega is the per-node frequency and delta the per-edge relative buffer
    occupancy in frame units (directly comparable to frame-exact occupancy
    offsets).
    """

    times: np.ndarray
    omega: np.ndarray
    delta: np.ndarray
    omega_u: np.ndarray

    @property
    def omega_avg(self) -> float:
        return float(np.mean(self.omega_u))


def spectral_abscissa(sd: SpectralData, gains: Gains) -> float:
    """Largest real part of the roots of s^2 + a lambda_k s + b lambda_k, k >= 1.

    The slower real root is -2 b lambda_k / (a lambda_k + sqrt(disc)): no cancellation.
    Where (a lambda_k)^2 overflows it is -2 r / (1 + sqrt(1 - 4 r / (a lambda_k))), r = b/a."""
    lam = sd.eigenvalues[1:]
    with np.errstate(over="ignore"):  # an overflowed branch is one np.where drops
        stiffness = gains.effective_integral_gain * lam
        damping = gains.k_p * lam
        disc = damping * damping - 4.0 * stiffness
        real = np.where(disc < 0.0, -damping / 2.0,
                        -2.0 * stiffness / (damping + np.sqrt(np.maximum(disc, 0.0))))
    big = np.isposinf(disc)
    r = gains.effective_integral_gain / gains.k_p
    real[big] = -2.0 * r / (1.0 + np.sqrt(1.0 - 4.0 * r / damping[big]))
    return float(real.max())


def default_time_step(sd: SpectralData, gains: Gains) -> float:
    """Step resolving the fastest closed-loop mode with a 20x safety factor.

    The block structure gives proportional modes at rate k_p*lambda and
    oscillatory modes at rate sqrt(b*lambda); the step tracks the faster.
    """
    lam_max = sd.lambda_max
    a_gain = gains.k_p
    b_gain = gains.effective_integral_gain
    return _positive_step(
        min(1.0 / (a_gain * lam_max), 1.0 / np.sqrt(b_gain * lam_max)) / 20.0, sd, gains)


def output_time_step(sd: SpectralData, gains: Gains, output_dt: float) -> float:
    """The largest step no longer than default_time_step that divides output_dt.

    Stepping with it puts an RK4 step on every instant of the output grid.
    """
    return _positive_step(output_dt / np.ceil(output_dt / default_time_step(sd, gains)),
                          sd, gains)


def _positive_step(dt: float, sd: SpectralData, gains: Gains) -> float:
    """dt if above zero; zero means a gain so large that a rate or a step count overflowed."""
    if dt > 0:
        return dt
    b_gain = gains.effective_integral_gain
    proportional = gains.k_p * sd.lambda_max >= np.sqrt(b_gain * sd.lambda_max)
    raise ParameterError("k_p" if proportional else "k_i", (
        f"k_p = {gains.k_p:.3g} and omega_c * k_i = {b_gain:.3g} leave the fluid model "
        "no RK4 step above zero"))


def simulate_ode(sys: OdeSystem, omega_u, t_end: float, dt: float | None = None) -> OdeTrace:
    """RK4 trajectory of the full system from x(0) = 0.

    Each block A_k = sys.blocks[k] is driven by (w_k, 0) with
    w = V^T omega_u. Classical RK4 commutes with the change to the Laplacian
    eigenbasis, so each block takes the same RK4 steps as the full system would,
    on the same grid; the final partial step lands exactly on t_end. The input
    is constant, so a step is the affine map z -> M_k z + g_k, and j steps are
    z -> M_k^j z + sum_{i<j} M_k^i g_k; the blocks advance together, up to
    _BLOCK_STEPS steps per numpy call. The modal state is formed _CHUNK_STEPS
    rows at a time and turned into omega and delta with one matrix product
    each, written straight into the trace, so no other trace-sized array
    exists; omega's integral term is formed in place in the chunk's zeta,
    which nothing reads after it. A run of two or more chunks whose products
    reach _WORKER_MACS (about an 11x11 mesh) adds omega_u to omega and forms
    delta on one worker thread; below that the handoff costs more than it saves.
    delta uses only the disagreement modes, so the drift mode, whose phase
    grows without bound, never cancels in it.
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
    cells = (t_end / dt + 2) * (n + sd.graph.m)
    if cells > CELL_CAP:
        raise ParameterError("t_end", f"reaching t = {t_end:g} takes {cells:.3g} trace cells "
                             f"((steps + 2) * (n + m)), above the cell cap of {CELL_CAP:.0e}")
    n_full = int(np.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    count = n_full + (2 if remainder > 1e-12 * max(t_end, 1.0) else 1)
    modes = sd.eigenvectors
    w_hat = omega_u @ modes

    def step_map(h):
        m, g = rk4_step_operator(sys.blocks, h)
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
    last_step = step_map(remainder) if count == n_full + 2 else None

    times = np.arange(count) * dt
    times[-1] = t_end
    omega = np.empty((count, n))
    delta = np.empty((count, sd.graph.m))
    phase_gain, integral_gain = sys.blocks[:, 0, 0], sys.blocks[:, 0, 1]
    to_delta = (-(sd.incidence.T @ modes[:, 1:])).T

    def finish(rows, theta):
        omega[rows] += omega_u
        np.matmul(theta[:, 1:], to_delta, out=delta[rows])

    # the worker, where one starts, finishes each chunk while this thread forms
    # the next; the same calls on the same operands, at most one chunk in flight
    worker = None
    if count >= 2 * _CHUNK_STEPS and _CHUNK_STEPS * n * (n + sd.graph.m) >= _WORKER_MACS:
        from concurrent.futures import ThreadPoolExecutor
        worker = ThreadPoolExecutor(max_workers=1)
    with worker or contextlib.nullcontext():
        pending = None
        for r, theta, zeta in _modal_chunks(powers, offsets, last_step, n_full, count):
            rows = slice(r, r + len(theta))
            omega_hat = theta * phase_gain
            omega_hat += np.multiply(integral_gain, zeta, out=zeta)  # zeta is not read again
            np.matmul(omega_hat, modes.T, out=omega[rows])
            del zeta, omega_hat
            if pending is not None:
                pending.result()
            pending = worker.submit(finish, rows, theta) if worker else finish(rows, theta)
        if pending is not None:
            pending.result()
    return OdeTrace(times=times, omega=omega, delta=delta, omega_u=omega_u)
