"""Shared test utilities: random graphs, scenario builders, independent oracles."""

from collections import deque

import numpy as np

from bittide_sim.afm import AfmScenario
from bittide_sim.graph import OrientedGraph
from bittide_sim.numerics import NonpositiveStepError
from bittide_sim.ode import Gains
from bittide_sim.scenario import _trace_table


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


def bfs_distance(g: OrientedGraph, src: int, dst: int) -> int:
    """Unweighted shortest-path oracle."""
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                if v == dst:
                    return dist[v]
                queue.append(v)
    return -1


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
    epoch = -(max(latency, default=0.0) + d / omega_min) - 1.0
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
        epoch=epoch,
    )


def rk4_integrate(deriv, x0: np.ndarray, t0: float, t1: float, dt: float):
    """Integrate dx/dt = deriv(t, x) with classical fixed-step RK4.

    The final partial step is shortened to land exactly on t1; the returned
    trajectory includes both endpoints.

    Returns (times, states) with states[k] the state at times[k].
    """
    if dt <= 0:
        raise NonpositiveStepError(f"dt must be > 0, got {dt}")
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


def legacy_trace_text(table) -> str:
    """Trace text formatted cell by cell: the header, then repr of every cell.

    Oracle for ``write_trace``, which formats only the cells that differ from
    the cell above. Takes a TraceTable or any trace ``write_trace`` accepts.
    """
    table = _trace_table(table)
    rows = np.column_stack([table.times, table.values]).tolist()
    return "".join([",".join(("t",) + table.columns) + "\n"]
                   + [",".join(map(repr, row)) + "\n" for row in rows])
