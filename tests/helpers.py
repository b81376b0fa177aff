"""Shared test utilities: random graphs, scenario builders, independent oracles.

The scalar frame-model lookups (phase_at, slope_at, next_crossing, occupancy)
are the oracles for the rows that ``simulate_afm`` evaluates in bulk: they
read a PhaseHistory's breakpoint arrays one instant at a time.
pi_controller_step is the oracle for the PI update that the event loop makes
at each measurement.
resistance_distance and two_node_perturbation are the pairwise oracles for
``resistance_matrix`` and ``predicted_performance``; long_double_rk4_step is
the extended-precision reference for ``rk4_step_operator``, and
modal_response the exact fluid trajectory that ``simulate_ode`` approximates.
sign_normalize_columns is the column-by-column oracle for the sign convention
``spectral_data`` applies in bulk, and subtracted_l2_norm_squared the
oracle for ``l2_norm_squared``, which skips subtracting an all-zero reference.
scenario_to_dict and save_scenario write a loaded scenario back as a fully
resolved document, for the round-trip tests of the loader. RunStarted.refuse
stands in for ``frame_offsets``, the frame model's first step after its size
checks, so a test can tell a refused run from one that starts.
"""

import json
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bittide_sim.afm import AfmScenario, InadmissibleControlError, PhaseHistory
from bittide_sim.analysis import PerformanceReport, l2_norm_squared
from bittide_sim.graph import _SIGN_TOL, OrientedGraph, SpectralData
from bittide_sim.ode import Gains, ReducedSystem, default_time_step
from bittide_sim.scenario import _FIELDS, _trace_table


def random_connected_graph(rng: np.random.RandomState, n: int,
                           extra_edges: int | None = None) -> OrientedGraph:
    """Random spanning tree plus extra edges; always connected."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        u = order[rng.randint(0, k)]
        v = order[k]
        edges.add((min(u, v), max(u, v)))
    if extra_edges is None:
        extra_edges = n
    for _ in range(extra_edges):
        u, v = rng.randint(0, n), rng.randint(0, n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return OrientedGraph(n, tuple(sorted(edges)))


def union_find_connected(n: int, edges) -> bool:
    """Independent connectivity oracle (no spectral machinery)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(i) for i in range(n)}) == 1


def neighbors(g: OrientedGraph, i: int) -> list:
    """Sorted neighbor list of node i."""
    out = []
    for u, v in g.edges:
        if u == i:
            out.append(v)
        elif v == i:
            out.append(u)
    return sorted(out)


def bfs_distance(g: OrientedGraph, src: int, dst: int) -> int:
    """Unweighted shortest-path oracle."""
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in neighbors(g, u):
            if v not in dist:
                dist[v] = dist[u] + 1
                if v == dst:
                    return dist[v]
                queue.append(v)
    return -1


def resistance_distance(sd: SpectralData, i: int, j: int) -> float:
    """Effective resistance between nodes i and j, one pair at a time.

    Oracle for ``resistance_matrix``, which forms the same sum for every pair.
    """
    n = sd.graph.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"node index out of range: ({i},{j}) for n={n}")
    lp = sd.pseudo_inverse
    return float(lp[i, i] + lp[j, j] - 2.0 * lp[i, j])


def sign_normalize_columns(v: np.ndarray) -> np.ndarray:
    """Flip each column whose first entry above _SIGN_TOL * max(|column|, 1) is negative."""
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.nonzero(np.abs(col) > _SIGN_TOL * max(np.abs(col).max(), 1.0))[0]
        if nz.size and col[nz[0]] < 0:
            v[:, j] = -col
    return v


def subtracted_l2_norm_squared(times, values, reference) -> float:
    """The integral of |y(t) - ref|^2, always subtracting the reference.

    The deviations are formed here and integrated by ``l2_norm_squared``'s own
    quadrature, so only the subtraction it skips is under test.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    dev = values - np.asarray(reference, dtype=float)
    return l2_norm_squared(times, dev, np.zeros(dev.shape[1]))


def two_node_perturbation(sd: SpectralData, gains: Gains, i: int, j: int, alpha: float):
    """(omega_u, performance) when only nodes i and j deviate by +/- alpha from the rate 1.0.

    The quadratic form collapses to alpha^2 * R_ij, so both norms follow from
    the resistance distance between the perturbed nodes: the oracle for
    ``predicted_performance``, which forms q from the whole pseudo-inverse.
    """
    if i == j:
        raise ValueError("perturbed nodes must differ")
    q = alpha * alpha * resistance_distance(sd, i, j)
    omega_u = np.full(sd.graph.n, 1.0)
    omega_u[i] += alpha
    omega_u[j] -= alpha
    a = gains.k_p
    b = gains.effective_integral_gain
    return omega_u, PerformanceReport(freq_dev_norm_sq=q / (2.0 * a),
                                      occupancy_norm_sq=q / (2.0 * a * b),
                                      quadratic_form=q, k_p=a, integral_gain_scaled=b)


class RunStarted(Exception):
    """A document or scenario that should have been refused reached the run."""

    @classmethod
    def refuse(cls, *args, **kwargs):
        raise cls


class TargetInPastError(ValueError):
    """Phase-crossing target lies before the start of the recorded history."""


def _segment(h: PhaseHistory, t: float) -> int:
    """Index of the segment holding t; segment 0 extends back without limit."""
    return bisect_right(h.times, t, 1) - 1


def phase_at(h: PhaseHistory, t: float) -> float:
    """Scalar phase lookup; oracle for the rows of ``afm._phase_rows``."""
    k = _segment(h, t)
    return h.phases[k] + h.slopes[k] * (t - h.times[k])


def slope_at(h: PhaseHistory, t: float) -> float:
    """Right-continuous slope: at a breakpoint, the new segment's rate."""
    return h.slopes[_segment(h, t)]


def next_crossing(h: PhaseHistory, target_phase: float) -> float:
    """Exact time at which the phase reaches target_phase.

    Linear inversion within the containing segment; phases at breakpoints
    are strictly increasing so the crossing is unique.
    """
    if target_phase < h.phases[0]:
        raise TargetInPastError(
            f"target phase {target_phase} precedes history start {h.phases[0]}"
        )
    k = bisect_right(h.phases, target_phase) - 1
    return h.times[k] + (target_phase - h.phases[k]) / h.slopes[k]


def occupancy(hist_src: PhaseHistory, hist_dst: PhaseHistory, latency: float,
              frame_offset: int, t: float) -> int:
    """Exact integer buffer occupancy of a directed link at time t."""
    return (math.floor(phase_at(hist_src, t - latency))
            - math.floor(phase_at(hist_dst, t))
            + frame_offset)


@dataclass
class DiscreteControllerState:
    """One node's PI integrator between measurements."""

    node: int
    integ: float = 0.0


def pi_controller_step(state: DiscreteControllerState, r: float,
                       scenario: AfmScenario) -> float:
    """One sampled PI update in the local-tick domain.

    The correction uses the pre-update integral state; the accumulator then
    advances by meas_period * r (rectangle rule over the p local ticks
    between measurements). Raises if the corrected rate leaves the
    oscillator's physical range.
    """
    g = scenario.gains
    c = g.k_p * r + g.k_i * g.omega_c * state.integ
    state.integ += scenario.meas_period * r
    w = c + scenario.uncorrected_freq[state.node]
    if w <= scenario.omega_min or w >= scenario.omega_max:
        raise InadmissibleControlError(
            f"node {state.node}: corrected rate {w} outside "
            f"({scenario.omega_min}, {scenario.omega_max}) after correction {c}"
        )
    return c


def sampled_root_modulus(sd: SpectralData, k_p: float, p: float, d: float) -> float:
    """Largest root modulus of z^(m+1) - z^m + g over the disagreement modes.

    Oracle for the frame model's sampled-data stability limit. Measuring
    every p local ticks and acting m = d / p periods later, a proportional
    correction moves mode k by theta_(j+1) = theta_j - g theta_(j-m), with
    g = p k_p lambda_k; the loop is stable when every root lies inside the
    unit circle, that is for g < 2 at m = 0 and g < 1 at m = 1. The roots
    are the eigenvalues of the polynomial's companion matrix; the integral
    gain, latencies and the nodes' unequal measurement phases are left out.
    """
    m = round(d / p)
    if m * p != d:
        raise ValueError(f"d = {d} is not a whole number of periods p = {p}")
    worst = 0.0
    for lam in sd.eigenvalues[1:]:
        companion = np.eye(m + 1, k=-1)
        companion[0, 0] = 1.0
        companion[0, m] -= p * k_p * lam
        worst = max(worst, float(np.abs(np.linalg.eigvals(companion)).max()))
    return worst


def make_scenario(graph: OrientedGraph, omega_u, gains: Gains, *,
                  latency=0.0, p=1000.0, d=0.0, theta0=0.1,
                  beta_max=128, t_end=20000.0, output_dt=500.0,
                  omega_min=0.5, omega_max=2.0, beta0=None) -> AfmScenario:
    n = graph.n
    n_links = 2 * graph.m
    omega_u = tuple(float(w) for w in omega_u)
    if isinstance(latency, (int, float)):
        latency = (float(latency),) * n_links
    if beta0 is None:
        beta0 = beta_max // 2
    if isinstance(beta0, int):
        beta0 = (beta0,) * n_links
    if isinstance(theta0, (int, float)):
        theta0 = (float(theta0),) * n
    return AfmScenario(
        graph=graph,
        uncorrected_freq=omega_u,
        initial_phase=theta0,
        startup_freq=omega_u,
        prehistory_freq=omega_u,
        initial_occupancy=tuple(beta0),
        buffer_capacity=beta_max,
        latency=tuple(latency),
        meas_period=float(p),
        actuation_delay=float(d),
        gains=gains,
        omega_min=omega_min,
        omega_max=omega_max,
        t_end=float(t_end),
        output_dt=float(output_dt),
    )


def rk4_integrate(deriv, x0: np.ndarray, t0: float, t1: float, dt: float):
    """Integrate dx/dt = deriv(t, x) with classical fixed-step RK4.

    The final partial step is shortened to land exactly on t1; the returned
    trajectory includes both endpoints.

    Returns (times, states) with states[k] the state at times[k].
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    span = t1 - t0
    n_full = int(np.floor(span / dt + 1e-12))
    remainder = span - n_full * dt
    if remainder <= 1e-12 * max(abs(span), dt):
        remainder = 0.0
    x = np.array(x0, dtype=float)
    times = [t0]
    states = [x.copy()]
    for k in range(n_full + (1 if remainder else 0)):
        t = t0 + k * dt
        h = dt if k < n_full else remainder
        k1 = deriv(t, x)
        k2 = deriv(t + h / 2.0, x + (h / 2.0) * k1)
        k3 = deriv(t + h / 2.0, x + (h / 2.0) * k2)
        k4 = deriv(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append(t1 if k == n_full + (1 if remainder else 0) - 1 else t + h)
        states.append(x.copy())
    if len(times) == 1:
        # zero-length window: still report both endpoints
        times.append(t1)
        states.append(x.copy())
    return np.array(times), np.array(states)


def long_double_rk4_step(a: np.ndarray, h: float) -> tuple:
    """RK4's one-step map (phi, gamma) of dx/dt = a x + u, formed in long double.

    The same polynomials as ``rk4_step_operator``, which works in float64.
    """
    a = np.asarray(a, dtype=np.longdouble)
    h = np.longdouble(h)
    eye = np.eye(a.shape[-1], dtype=np.longdouble)
    a2 = a @ a
    a3 = a2 @ a
    a4 = a3 @ a
    phi = eye + h * a + h**2 / 2.0 * a2 + h**3 / 6.0 * a3 + h**4 / 24.0 * a4
    gamma = h * eye + h**2 / 2.0 * a + h**3 / 6.0 * a2 + h**4 / 24.0 * a3
    return phi, gamma


@dataclass(frozen=True)
class DenseSystem:
    """Full 2n-state closed loop: dx/dt = a x + b2 w,  omega = c1 x + w,  delta = c2 x.

    x = (phase offsets, scaled integrator states) in node coordinates. Oracle
    for the per-mode blocks of ``build_full_system``.
    """

    a: np.ndarray
    b2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray


def dense_system(sd: SpectralData, gains: Gains) -> DenseSystem:
    lap = sd.incidence @ sd.incidence.T
    n = sd.graph.n
    a_gain = gains.k_p
    b_gain = gains.effective_integral_gain
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return DenseSystem(
        a=np.block([[-a_gain * lap, b_gain * eye], [-lap, zero]]),
        b2=np.vstack([eye, zero]),
        c1=np.hstack([-a_gain * lap, b_gain * eye]),
        c2=np.hstack([-sd.incidence.T, np.zeros((sd.graph.m, n))]),
    )


def dense_rk4(sd: SpectralData, gains: Gains, omega_u, t_end: float, dt: float | None = None):
    """Generic RK4 on the dense system from x(0) = 0, on ``simulate_ode``'s grid.

    Returns (dense system, times, states).
    """
    dense = dense_system(sd, gains)
    drive = dense.b2 @ np.asarray(omega_u, dtype=float)
    if dt is None:
        dt = default_time_step(sd, gains)
    times, states = rk4_integrate(lambda t, x: dense.a @ x + drive,
                                  np.zeros(2 * sd.graph.n), 0.0, t_end, dt)
    return dense, times, states


def modal_response(sd: SpectralData, gains: Gains, omega_u, t) -> tuple:
    """(omega, delta): the fluid model's exact response from x(0) = 0 at instants t.

    Oracle for ``simulate_ode``'s RK4. Each disagreement mode solves
    theta'' + a lambda theta' + b lambda theta = 0 with theta(0) = 0 and
    theta'(0) = w_k, w = V^T (omega_u - mean), so with roots r1 and r2

        theta_k = w_k (e^(r1 t) - e^(r2 t)) / (r1 - r2),   omega_k = theta_k'.

    In complex arithmetic that covers the under- and overdamped modes. It is
    formed as w_k e^(r2 t) g with g = expm1((r1 - r2) t) / (r1 - r2), where
    r2 is the slower root, taken as b lambda / r1 so that it does not cancel;
    the critically damped mode, r1 = r2, takes the limit g = t. The drift
    mode moves every node at the mean rate and leaves delta alone.
    """
    omega_u = np.asarray(omega_u, dtype=float)
    t = np.asarray(t, dtype=float)[:, None]
    lam = sd.eigenvalues[1:]
    v = sd.eigenvectors[:, 1:]
    w = (omega_u - omega_u.mean()) @ v
    damping = gains.k_p * lam
    s = np.sqrt((damping * damping - 4.0 * gains.effective_integral_gain * lam).astype(complex))
    r1 = (-damping - s) / 2.0
    r2 = gains.effective_integral_gain * lam / r1
    critical = s == 0
    g = np.where(critical, t, np.expm1(-s * t) / np.where(critical, 1.0, -s))
    slow = w * np.exp(r2 * t)
    theta = (slow * g).real
    omega = omega_u.mean() + (slow * (1.0 + r1 * g)).real @ v.T
    return omega, theta @ (-(sd.incidence.T @ v)).T


def modal_states(sd: SpectralData, states: np.ndarray) -> tuple:
    """(theta_hat, zeta_hat): node-coordinate states in the Laplacian eigenbasis.

    Column 0 is the drift mode, along the normalised all-ones vector.
    """
    n = sd.graph.n
    return states[:, :n] @ sd.eigenvectors, states[:, n:] @ sd.eigenvectors


def dense_abscissa(a_hat: np.ndarray) -> float:
    """Largest real part among the dense eigenvalues of a matrix.

    Oracle for the closed-form ``spectral_abscissa`` on the reduced matrix
    ``build_reduced_system(...).a_hat``. Its last bits depend on the BLAS
    thread count.
    """
    return float(np.max(np.linalg.eigvals(a_hat).real))


@dataclass(frozen=True)
class SteadyState:
    x_closed: np.ndarray
    x_solved: np.ndarray
    omega_ss: np.ndarray
    rel_gap: float


def steady_state(reduced: ReducedSystem, omega_u) -> SteadyState:
    """Steady state of the reduced system under constant drive, two ways.

    The closed form stacks a zero block over -(1/b) U1^T omega_u: transient
    phase modes vanish and the integrators absorb the per-node frequency
    errors (b x2 -> omega_avg - omega_u in node coordinates). The dense solve
    -A_hat^{-1} (U1^T omega_u, 0) must agree to rounding.
    """
    omega_u = np.asarray(omega_u, dtype=float)
    u1 = reduced.spectral.eigenvectors[:, 1:]
    b_gain = reduced.gains.effective_integral_gain
    n1 = u1.shape[1]
    x_closed = np.concatenate([np.zeros(n1), -(1.0 / b_gain) * (u1.T @ omega_u)])
    x_solved = -np.linalg.solve(reduced.a_hat, np.concatenate([u1.T @ omega_u, np.zeros(n1)]))
    scale = max(np.linalg.norm(x_closed), 1e-300)
    rel_gap = float(np.linalg.norm(x_closed - x_solved) / scale)
    omega_ss = np.full(omega_u.shape, float(np.mean(omega_u)))
    return SteadyState(x_closed=x_closed, x_solved=x_solved, omega_ss=omega_ss, rel_gap=rel_gap)


def legacy_trace_text(table) -> str:
    """Trace text formatted cell by cell: the header, then repr of every cell.

    Oracle for ``write_trace``, which formats only the cells that differ from
    the cell above. Takes a TraceTable or any trace ``write_trace`` accepts.
    """
    table = _trace_table(table)
    rows = np.column_stack([table.times, table.values]).tolist()
    return "".join([",".join(("t",) + table.columns) + "\n"]
                   + [",".join(map(repr, row)) + "\n" for row in rows])


def scenario_to_dict(graph: OrientedGraph, scenario: AfmScenario, gains: Gains) -> dict:
    """Fully-resolved scenario document (all defaults materialized)."""
    doc = {"graph": {"n": graph.n, "edges": [list(e) for e in graph.edges]},
           "frequencies": {"omega_u": list(scenario.uncorrected_freq)}}
    for path, name, _, per, _ in _FIELDS:
        section, _, key = path.partition(".")
        value = getattr(gains if section == "controller" else scenario, name)
        doc.setdefault(section, {})[key] = value if per is None else list(value)
    return doc


def save_scenario(graph: OrientedGraph, scenario: AfmScenario, gains: Gains,
                  path_like) -> None:
    doc = scenario_to_dict(graph, scenario, gains)
    Path(path_like).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
