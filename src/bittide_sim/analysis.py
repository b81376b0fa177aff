"""Closed-form stability and performance layer.

For positive gains the reduced dynamics are Hurwitz, and the L2 norms of the
frequency deviation and relative occupancy have exact values

    |omega - omega_ss|^2 = q / (2 a)        q = d^T Lpinv d
    |delta|^2            = q / (2 a b)      d = omega_u - mean(omega_u)

with a the proportional gain and b the scaled integral gain. The quadratic
form q reduces to alpha^2 R_ij, R_ij the resistance distance, when exactly
two nodes are perturbed by +/- alpha; that form (two_node_perturbation in
tests/helpers.py) is the oracle for predicted_performance. q is maximized
over a norm ball by the Fiedler vector. Stability is certified two
independent ways: the spectral abscissa, in closed form from the roots of
each mode's s^2 + a lambda_k s + b lambda_k, and explicit positive-definite
Lyapunov solutions whose residuals are checked numerically on the dense
reduced matrix. Each result that becomes a report
names its report type in ``kind``.
"""

import warnings
from typing import NamedTuple

import numpy as np

from .graph import SpectralData
from .ode import Gains, OdeTrace, ParameterError, ReducedSystem, spectral_abscissa


class PositivityViolationError(RuntimeError):
    """A Lyapunov solution that must be positive definite is not."""


class InsufficientHorizonWarning(UserWarning):
    """Empirical norm integral likely truncated too early."""


class HurwitzResult(NamedTuple):
    kind = "hurwitz"
    is_hurwitz: bool
    spectral_abscissa: float


def hurwitz_check(sd: SpectralData, gains: Gains) -> HurwitzResult:
    """Stability of the reduced loop from its closed-form spectral abscissa.

    The reduced loop is one 2x2 block per nonzero Laplacian eigenvalue, so its
    poles are the roots of s^2 + a lambda_k s + b lambda_k; it is Hurwitz iff
    the largest real part among them is negative. Only the eigenvalues enter,
    so the result does not depend on the BLAS thread count.
    """
    abscissa = spectral_abscissa(sd, gains)
    return HurwitzResult(is_hurwitz=abscissa < 0, spectral_abscissa=abscissa)


class LyapunovCertificate(NamedTuple):
    """Residuals and smallest eigenvalues of the explicit Lyapunov solutions.

    x1 certifies the frequency-deviation norm, x2 the occupancy norm, and
    their sum solves the joint equation with the stacked output matrix;
    positive definiteness of the sum independently witnesses stability.
    """

    kind = "lyapunov_certificate"
    residual1: float
    residual2: float
    residual_sum: float
    min_eig_x1: float
    min_eig_x2: float


def lyapunov_solutions(reduced: ReducedSystem) -> tuple:
    """The block Lyapunov solutions (x1, x2) of the reduced loop.

    With L the reduced Laplacian, a, b the gains, and I the identity:

        x1 = [[a/2 L + b/(2a) I,  -b/2 I      ],
              [-b/2 I,             b^2/(2a) L^-1]]
        x2 = [[1/(2a) I,  0            ],
              [0,         b/(2a) L^-1  ]]
    """
    lap_hat = reduced.lap_hat
    n1 = lap_hat.shape[0]
    a = reduced.gains.k_p
    b = reduced.gains.effective_integral_gain
    eye = np.eye(n1)
    lap_hat_inv = np.linalg.inv(lap_hat)
    lap_hat_inv = (lap_hat_inv + lap_hat_inv.T) / 2.0
    x1 = np.block([
        [a / 2.0 * lap_hat + b / (2.0 * a) * eye, -b / 2.0 * eye],
        [-b / 2.0 * eye, b * b / (2.0 * a) * lap_hat_inv],
    ])
    x2 = np.block([
        [1.0 / (2.0 * a) * eye, np.zeros((n1, n1))],
        [np.zeros((n1, n1)), b / (2.0 * a) * lap_hat_inv],
    ])
    return x1, x2


def _lyapunov_residual(a: np.ndarray, x: np.ndarray, c: np.ndarray) -> float:
    """Frobenius norm of a^T x + x a + c^T c."""
    return float(np.linalg.norm(a.T @ x + x @ a + c.T @ c))


def build_lyapunov_certificate(reduced: ReducedSystem) -> LyapunovCertificate:
    """Verify the Lyapunov solutions of the reduced loop numerically.

    Residuals are reported relative to |C^T C|_F for each output block.
    """
    x1, x2 = lyapunov_solutions(reduced)
    c_hat = np.vstack([reduced.c1_hat, reduced.c2_hat])
    r1 = _lyapunov_residual(reduced.a_hat, x1, reduced.c1_hat)
    r2 = _lyapunov_residual(reduced.a_hat, x2, reduced.c2_hat)
    rs = _lyapunov_residual(reduced.a_hat, x1 + x2, c_hat)
    r1 /= np.linalg.norm(reduced.c1_hat.T @ reduced.c1_hat)
    r2 /= np.linalg.norm(reduced.c2_hat.T @ reduced.c2_hat)
    rs /= np.linalg.norm(c_hat.T @ c_hat)
    min1 = float(np.linalg.eigvalsh((x1 + x1.T) / 2.0)[0])
    min2 = float(np.linalg.eigvalsh((x2 + x2.T) / 2.0)[0])
    if min1 <= 0 or min2 <= 0:
        raise PositivityViolationError(
            f"Lyapunov solution not positive definite (min eigs {min1:.3e}, {min2:.3e}); "
            "at valid gains x1's smallest eigenvalue, about b^3/(4 a^2 lambda), can be "
            "below the rounding of eigvalsh"
        )
    return LyapunovCertificate(
        residual1=float(r1), residual2=float(r2),
        residual_sum=float(rs), min_eig_x1=min1, min_eig_x2=min2,
    )


class PerformanceReport(NamedTuple):
    """Closed-form L2 performance of a run: norms scale as q/2a and q/2ab."""

    kind = "performance"
    freq_dev_norm_sq: float
    occupancy_norm_sq: float
    quadratic_form: float
    k_p: float
    integral_gain_scaled: float


def predicted_performance(sd: SpectralData, gains: Gains, omega_u) -> PerformanceReport:
    """Exact L2 norms from the Laplacian pseudo-inverse quadratic form.

    q is formed from the deviations d = omega_u - mean(omega_u). L+ has the
    all-ones vector in its kernel, so this is the same q in exact arithmetic,
    but the common rate no longer cancels inside rounding. Gains that put
    either norm outside the float range raise ParameterError.
    """
    d = np.asarray(omega_u, dtype=float)
    d = d - d.mean()
    q = float(d @ sd.pseudo_inverse @ d)
    a = gains.k_p
    b = gains.effective_integral_gain
    freq_sq = q / (2.0 * a)
    occ_sq = q / (2.0 * a * b) if 2.0 * a * b > 0 else np.inf
    if not (np.isfinite(freq_sq) and np.isfinite(occ_sq)):
        raise ParameterError("k_p", (
            f"k_p = {a:.3g} and omega_c * k_i = {b:.3g} put the L2 norms q/(2a) and "
            "q/(2ab) outside the float range"))
    return PerformanceReport(
        freq_dev_norm_sq=freq_sq,
        occupancy_norm_sq=occ_sq,
        quadratic_form=q,
        k_p=a,
        integral_gain_scaled=b,
    )


# lambda_3 within this share of lambda_max of lambda_2 counts as a repeated lambda_2
_DEGENERATE_TOL = 1e-9


class WorstCaseResult(NamedTuple):
    """Worst frequency distribution on the |omega_u| <= gamma ball."""

    kind = "worst_case"
    omega_u: np.ndarray
    attained_quadratic_form: float
    degenerate: bool


def worst_case_frequency(sd: SpectralData, gamma: float) -> WorstCaseResult:
    """Frequency vector maximizing the performance quadratic form.

    The maximizer of x^T Lpinv x over the gamma-ball is gamma times the
    Fiedler vector, attaining gamma^2 / lambda_2. When lambda_2 is repeated
    the maximizer is any unit vector of the eigenspace; the result is
    flagged so callers do not treat the returned one as unique.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be a finite number > 0, got {gamma}")
    w = sd.eigenvalues
    attained = gamma * gamma / float(w[1])
    if not np.isfinite(attained):
        raise ValueError(f"gamma = {gamma:.3g} makes gamma^2 / lambda_2 overflow")
    return WorstCaseResult(
        omega_u=gamma * sd.eigenvectors[:, 1],
        attained_quadratic_form=attained,
        degenerate=bool(w.size > 2 and w[2] - w[1] <= _DEGENERATE_TOL * sd.lambda_max),
    )


# rows per deviation block in l2_norm_squared: a long trace then needs no
# temporary of its own size
_L2_BLOCK_ROWS = 1024


def l2_norm_squared(times: np.ndarray, values: np.ndarray, reference) -> float:
    """Quadrature of the integral of |y(t) - ref|^2 over the trace.

    Composite Simpson over the leading steps equal to the first (within a
    relative 1e-6, so rounding in k * dt counts as equal), in pairs; the
    trapezoid rule over the rest, which for a fluid trace is an odd leftover
    step and a final partial step. values has one row per sample; reference
    is a constant vector (or scalar) subtracted from every row. An all-zero
    reference is not subtracted: x - 0 differs from x only where it turns
    -0.0 into +0.0, which squares the same.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 2:
        raise ValueError("need at least 2 samples for quadrature")
    if values.ndim == 1:
        values = values[:, None]
    reference = np.asarray(reference, dtype=float)
    integrand = np.empty(values.shape[0])
    zero = not reference.any()
    for k in range(0, values.shape[0], _L2_BLOCK_ROWS):
        dev = values[k:k + _L2_BLOCK_ROWS]
        if not zero:
            dev = dev - reference
        integrand[k:k + _L2_BLOCK_ROWS] = np.einsum("ij,ij->i", dev, dev)
    dt = np.diff(times)
    uniform = int(np.argmax(np.append(np.abs(dt - dt[0]) > 1e-6 * dt[0], True)))
    e = uniform - uniform % 2  # samples 0..e take Simpson pairs
    simpson = np.sum((times[2:e + 1:2] - times[:e:2])
                     * (integrand[:e:2] + 4.0 * integrand[1:e:2] + integrand[2:e + 1:2])) / 6.0
    return float(simpson + np.sum(dt[e:] * (integrand[e:-1] + integrand[e + 1:]) / 2.0))


# the largest estimated truncated tail, as a share of its integral, that
# empirical_norms accepts without a warning
TAIL_TOL = 1e-3


def empirical_norms(trace: OdeTrace, spectral_abscissa: float | None = None):
    """Quadrature estimates of the two performance integrals from a trace.

    Integrates |omega(t) - omega_avg|^2 and |delta(t)|^2 over the trace window
    by l2_norm_squared (composite Simpson). If the estimated truncated tail
    (decay extrapolation of the final integrand) exceeds TAIL_TOL of the
    integral, an InsufficientHorizonWarning is issued.
    """
    omega_ss = np.full(trace.omega.shape[1], trace.omega_avg)
    freq_sq = l2_norm_squared(trace.times, trace.omega, omega_ss)
    occ_sq = l2_norm_squared(trace.times, trace.delta, np.zeros(trace.delta.shape[1]))
    dev_end = trace.omega[-1] - omega_ss
    tail_rate = None
    if spectral_abscissa is not None and spectral_abscissa < 0:
        tail_rate = -spectral_abscissa
    for integral, final_sq, label in (
        (freq_sq, float(dev_end @ dev_end), "frequency deviation"),
        (occ_sq, float(trace.delta[-1] @ trace.delta[-1]), "occupancy"),
    ):
        if integral <= 0 or tail_rate is None:
            continue
        tail = final_sq / (2.0 * tail_rate)
        if tail > TAIL_TOL * integral:
            warnings.warn(
                f"{label} integral tail estimate {tail:.3e} exceeds "
                f"{TAIL_TOL:.1e} of the integral {integral:.3e}; extend t_end",
                InsufficientHorizonWarning,
                stacklevel=2,
            )
    return freq_sq, occ_sq
