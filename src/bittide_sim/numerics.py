"""Small dense linear-algebra and integration kernel shared by all modules.

Everything here is deterministic: identical inputs produce identical outputs
on one platform. The symmetric eigendecomposition is backed by LAPACK
through numpy; the RK4 step map and quadrature are written out explicitly
so traces are reproducible and comparable across runs.
"""

from __future__ import annotations

import numpy as np


class NotSymmetricError(ValueError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class NonpositiveStepError(ValueError):
    """Integrator step size must be strictly positive."""


def eig_symmetric(m: np.ndarray, asym_tol: float = 1e-12):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    The input is checked for symmetry (relative asymmetry <= asym_tol) and
    explicitly symmetrized before factoring, so rounding noise in the input
    cannot leak into the result.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > asym_tol * scale:
        raise NotSymmetricError(
            f"matrix asymmetry {np.abs(m - m.T).max():.3e} exceeds "
            f"{asym_tol:.1e} * max|entry|"
        )
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    return w, v


def rk4_step_operator(a: np.ndarray, dt: float):
    """One-step map of classical RK4 for the affine system dx/dt = a x + u.

    For constant u over the step, RK4 is exactly x' = phi @ x + gamma @ u with

        phi   = I + h a + h^2 a^2/2 + h^3 a^3/6 + h^4 a^4/24
        gamma = h I + h^2 a/2 + h^3 a^2/6 + h^4 a^3/24

    Precomputing (phi, gamma) makes long linear-system runs cheap while
    producing the same classical fourth-order update. A stack of square
    matrices, shape (..., d, d), gives a stack of maps. Floating inputs keep
    their precision (np.longdouble stays long double); others become float64.
    """
    if dt <= 0:
        raise NonpositiveStepError(f"dt must be > 0, got {dt}")
    a = np.asarray(a, dtype=np.result_type(a, float))
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    a3 = a2 @ a
    a4 = a3 @ a
    phi = eye + dt * a + dt**2 / 2.0 * a2 + dt**3 / 6.0 * a3 + dt**4 / 24.0 * a4
    gamma = dt * eye + dt**2 / 2.0 * a + dt**3 / 6.0 * a2 + dt**4 / 24.0 * a3
    return phi, gamma


# rows per deviation block in l2_norm_squared: a long trace then needs no
# temporary of its own size
_L2_BLOCK_ROWS = 1024


def l2_norm_squared(times: np.ndarray, values: np.ndarray, reference) -> float:
    """Trapezoid approximation of the integral of |y(t) - ref|^2 over the trace.

    values has one row per sample; reference is a constant vector (or scalar)
    subtracted from every row.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 2:
        raise ValueError("need at least 2 samples for quadrature")
    if values.ndim == 1:
        values = values[:, None]
    reference = np.asarray(reference, dtype=float)
    integrand = np.empty(values.shape[0])
    for k in range(0, values.shape[0], _L2_BLOCK_ROWS):
        dev = values[k:k + _L2_BLOCK_ROWS] - reference
        integrand[k:k + _L2_BLOCK_ROWS] = np.einsum("ij,ij->i", dev, dev)
    dt = np.diff(times)
    return float(np.sum(dt * (integrand[:-1] + integrand[1:]) / 2.0))


def lyapunov_residual(a: np.ndarray, x: np.ndarray, c: np.ndarray) -> float:
    """Frobenius norm of a^T x + x a + c^T c."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.shape[0] != a.shape[1] or x.shape != a.shape:
        raise ValueError(f"dimension mismatch: a {a.shape}, x {x.shape}")
    if c.shape[1] != a.shape[0]:
        raise ValueError(f"dimension mismatch: c {c.shape} vs a {a.shape}")
    return float(np.linalg.norm(a.T @ x + x @ a + c.T @ c))
