"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from bittide_sim.afm import simulate_afm
from bittide_sim.analysis import (build_lyapunov_certificate, empirical_norms,
                                  hurwitz_check, lyapunov_solutions, predicted_performance,
                                  worst_case_frequency)
from bittide_sim.graph import (OrientedGraph, complete, mesh, path, resistance_matrix,
                               spectral_data)
from bittide_sim.ode import Gains, build_full_system, build_reduced_system, simulate_ode
from bittide_sim.scenario import compare_traces
from helpers import (bfs_distance, dense_abscissa, make_scenario, phase_at,
                     random_connected_graph, steady_state)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_mesh_two_node_reproduction():
    """Quoted norms 0.175/0.565 and resistances 0.700/2.262 on the 4x6 mesh."""
    t0 = time.time()
    sd = spectral_data(mesh(4, 6))
    gains = Gains(k_p=2e-8, k_i=1e-15, omega_c=1.0)
    alpha = 1e-4
    r = resistance_matrix(sd)
    a = gains.k_p
    found = {}
    for target_norm, target_r in ((0.175, 0.700), (0.565, 2.262)):
        hits = []
        for i in range(24):
            for j in range(i + 1, 24):
                norm = alpha ** 2 * r[i, j] / (2 * a)
                if (abs(norm - target_norm) <= 0.01 * target_norm
                        and abs(r[i, j] - target_r) <= 0.01 * target_r):
                    hits.append((i, j))
        found[target_norm] = hits
    elapsed = time.time() - t0
    ok = bool(found[0.175]) and bool(found[0.565]) and elapsed < 1.0
    report("1 (two-node mesh reproduction)", ok,
           f"pairs@0.175: {len(found[0.175])}, pairs@0.565: {len(found[0.565])}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_2_norm_formula_cross_validation():
    """Integrated norms match the closed forms within 1%; ratio equals b within 0.5%.

    Sharper bounds sit beside those, at a few times the measured effect
    (8.3e-4 for the frequency norm and the ratio, 2.1e-7 for occupancy).
    """
    t0 = time.time()
    rng = np.random.RandomState(2024)
    worst_freq = worst_occ = worst_ratio = worst_abscissa = 0.0
    n_cases = 25
    for _ in range(n_cases):
        g = random_connected_graph(rng, rng.randint(2, 9))
        sd = spectral_data(g)
        gains = Gains(k_p=rng.uniform(0.1, 0.4), k_i=rng.uniform(0.05, 0.2),
                      omega_c=rng.uniform(0.5, 2.0))
        omega_u = 1.0 + 0.02 * rng.randn(g.n)
        omega_u -= (omega_u.mean() - 1.0)  # keep a unit mean, random zero-mean part
        hz = hurwitz_check(sd, gains)
        assert hz.spectral_abscissa < 0
        dense = dense_abscissa(build_reduced_system(sd, gains).a_hat)
        worst_abscissa = max(worst_abscissa, abs(hz.spectral_abscissa - dense)
                             / abs(hz.spectral_abscissa))
        horizon = 30.0 / abs(hz.spectral_abscissa)
        trace = simulate_ode(build_full_system(sd, gains), omega_u, horizon)
        freq_sq, occ_sq = empirical_norms(trace, hz.spectral_abscissa)
        pred = predicted_performance(sd, gains, omega_u)
        b = gains.effective_integral_gain
        worst_freq = max(worst_freq, abs(freq_sq - pred.freq_dev_norm_sq)
                         / pred.freq_dev_norm_sq)
        worst_occ = max(worst_occ, abs(occ_sq - pred.occupancy_norm_sq)
                        / pred.occupancy_norm_sq)
        worst_ratio = max(worst_ratio, abs(freq_sq / occ_sq - b) / b)
    elapsed = time.time() - t0
    sharp = worst_freq <= 2e-3 and worst_ratio <= 2e-3 and worst_occ <= 1e-6
    ok = (worst_freq <= 0.01 and worst_occ <= 0.01 and worst_ratio <= 0.005
          and sharp and worst_abscissa <= 1e-12 and elapsed < 30.0)
    report("2 (closed-form norm cross-validation)", ok,
           f"{n_cases} cases, worst freq err {worst_freq:.2e}, occ err {worst_occ:.2e}, "
           f"ratio err {worst_ratio:.2e}, abscissa vs dense {worst_abscissa:.2e}, "
           f"runtime {elapsed:.1f}s")


def test_criterion_3_stability_two_witnesses():
    """100 random draws: closed-form abscissa < 0, matching the dense eigenvalues
    within 1e-12 relative, and positive Lyapunov sum."""
    rng = np.random.RandomState(3)
    failures = 0
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(2, 11))
        sd = spectral_data(g)
        gains = Gains(k_p=10 ** rng.uniform(-4, 1), k_i=10 ** rng.uniform(-4, 1),
                      omega_c=10 ** rng.uniform(-1, 1))
        red = build_reduced_system(sd, gains)
        hz = hurwitz_check(sd, gains)
        dense = dense_abscissa(red.a_hat)
        cert = build_lyapunov_certificate(red)
        x1, x2 = lyapunov_solutions(red)
        x_sum = x1 + x2
        min_eig = np.linalg.eigvalsh((x_sum + x_sum.T) / 2).min()
        if not (hz.is_hurwitz and abs(hz.spectral_abscissa - dense) <= 1e-12 * abs(dense)
                and min_eig > 0 and cert.residual_sum <= 1e-9):
            failures += 1
    report("3 (stability, both witnesses)", failures == 0,
           f"100 draws, {failures} failures")


def test_criterion_4_lyapunov_and_steady_state_identities():
    """Explicit Lyapunov solutions and the steady-state closed form, 50 draws."""
    rng = np.random.RandomState(4)
    worst_r1 = worst_r2 = worst_ss = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 10))
        sd = spectral_data(g)
        gains = Gains(k_p=10 ** rng.uniform(-3, 0.7), k_i=10 ** rng.uniform(-3, 0.7),
                      omega_c=10 ** rng.uniform(-0.5, 0.5))
        red = build_reduced_system(sd, gains)
        cert = build_lyapunov_certificate(red)
        worst_r1 = max(worst_r1, cert.residual1)
        worst_r2 = max(worst_r2, cert.residual2)
        ss = steady_state(red, rng.randn(g.n))
        worst_ss = max(worst_ss, ss.rel_gap)
    ok = worst_r1 <= 1e-9 and worst_r2 <= 1e-9 and worst_ss <= 1e-9
    report("4 (explicit solution identities)", ok,
           f"50 draws, residuals {worst_r1:.2e}/{worst_r2:.2e}, "
           f"steady-state gap {worst_ss:.2e}")


def test_criterion_5_frame_model_agreement():
    """The frame-exact run converges, and with delays shrunk it tracks the fluid run.

    At theta0 = 0.1 every node settles at the slowest uncorrected rate (see
    test_afm.TestSettledRate); that is checked beside the 1e-4 * avg bound,
    which is wider than the whole omega_u spread.
    """
    t0 = time.time()
    gains = Gains(k_p=3e-5, k_i=2e-9, omega_c=1.0)
    g = complete(3)
    omega_u = (1.00005, 1.0, 0.99995)
    avg = float(np.mean(omega_u))

    scn = make_scenario(g, omega_u, gains, latency=500.0, p=1000.0, d=100.0,
                        theta0=0.1, t_end=200000.0, output_dt=500.0)
    trace = simulate_afm(scn)
    freq_dev = np.abs(trace.freq[-1] - avg).max()
    occ_dev = np.abs(trace.occupancy[-1] - 64).max()
    settled_dev = np.abs(trace.freq[-1] - min(omega_u)).max()
    converged = freq_dev <= 1e-4 * avg and settled_dev <= 1e-12 and occ_dev <= 2

    scn_fluid = make_scenario(g, omega_u, gains, latency=0.0, p=100.0, d=0.0,
                              theta0=0.1, beta_max=1024,
                              t_end=200000.0, output_dt=500.0)
    afm_trace = simulate_afm(scn_fluid)
    sd = spectral_data(g)
    ode_trace = simulate_ode(build_full_system(sd, gains), np.array(omega_u), 200000.0)
    cmp_report = compare_traces(afm_trace, ode_trace)
    tracks = cmp_report.max_occ_dev <= 2.0
    elapsed = time.time() - t0
    ok = converged and tracks and elapsed < 60.0
    report("5 (frame model vs fluid model)", ok,
           f"final freq dev {freq_dev:.2e} (tol {1e-4 * avg:.1e}), from the slowest rate "
           f"{settled_dev:.1e} (tol 1e-12), final occ dev "
           f"{occ_dev}, tracking dev {cmp_report.max_occ_dev:.2f} frames, "
           f"runtime {elapsed:.1f}s")


def test_criterion_5_frame_model_tracks_fluid_on_random_graphs():
    """With delays shrunk, the frame-exact run tracks the fluid run within 2 frames.

    Nine seeded graphs of 2 to 8 nodes take each pair of measurement period
    and theta0 below; over 40 draws of this kind, these nine first,
    max_occ_dev ranged from 1.004 to 1.365.
    """
    t0 = time.time()
    rng = np.random.RandomState(3)
    devs = []
    for case in range(9):
        g = random_connected_graph(rng, rng.randint(2, 9))
        gains = Gains(k_p=3e-5 * rng.uniform(0.3, 3), k_i=2e-9 * rng.uniform(0.3, 3))
        omega_u = 1.0 + rng.uniform(-5e-5, 5e-5, g.n)
        scn = make_scenario(g, omega_u, gains, latency=0.0, p=(10.0, 100.0, 1000.0)[case % 3],
                            d=0.0, theta0=(0.1, 0.5, 0.9)[case // 3], beta_max=1024,
                            t_end=200000.0, output_dt=500.0)
        ode_trace = simulate_ode(build_full_system(spectral_data(g), gains), omega_u, 200000.0)
        devs.append(compare_traces(simulate_afm(scn), ode_trace).max_occ_dev)
    elapsed = time.time() - t0
    report("5 (frame model vs fluid model, random graphs)", max(devs) <= 2.0,
           f"tracking dev {min(devs):.3f} to {max(devs):.3f} frames over {len(devs)} "
           f"graphs, runtime {elapsed:.1f}s")


def test_criterion_6_structural_invariants():
    """Frequency-sum invariance, exact occupancy identity, and determinism."""
    gains = Gains(k_p=3e-5, k_i=2e-9, omega_c=1.0)
    g = complete(3)
    omega_u = np.array([1.0001, 1.0, 0.9999])

    sd = spectral_data(g)
    ode_trace = simulate_ode(build_full_system(sd, gains), omega_u, 100000.0)
    n_avg = omega_u.sum()
    sum_dev = np.abs(ode_trace.omega.sum(axis=1) - n_avg).max()
    sum_ok = sum_dev <= 1e-9 * n_avg

    scn = make_scenario(g, tuple(omega_u), gains,
                        latency=(40.0, 90.0, 10.0, 140.0, 60.0, 20.0),
                        p=500.0, d=50.0, t_end=30000.0, output_dt=500.0)
    trace = simulate_afm(scn)
    links = g.directed_links()
    identity_ok = True
    event_times = sorted({ev.time for ev in trace.events})
    for t in event_times:
        for q, (src, dst) in enumerate(links):
            row = int(np.searchsorted(trace.times, t))
            lhs = int(trace.occupancy[row, q]) - scn.initial_occupancy[q]
            rhs = (math.floor(phase_at(trace.histories[src], t - scn.latency[q]))
                   - math.floor(phase_at(trace.histories[src], -scn.latency[q]))
                   - math.floor(phase_at(trace.histories[dst], t))
                   + math.floor(phase_at(trace.histories[dst], 0.0)))
            if lhs != rhs:
                identity_ok = False

    rerun = simulate_afm(scn)
    deterministic = (trace.events == rerun.events
                     and np.array_equal(trace.occupancy, rerun.occupancy)
                     and np.array_equal(trace.freq, rerun.freq))

    ok = sum_ok and identity_ok and deterministic
    report("6 (structural invariants)", ok,
           f"freq-sum dev {sum_dev:.2e}, occupancy identity exact: {identity_ok}, "
           f"deterministic: {deterministic}")


def test_criterion_7_graph_layer_properties():
    """Rayleigh monotonicity, path-length bound, Fiedler maximality, degeneracy flag."""
    rng = np.random.RandomState(7)

    rayleigh_ok = True
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 9), extra_edges=1)
        existing = {(min(u, v), max(u, v)) for u, v in g.edges}
        non_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                     if (i, j) not in existing]
        if not non_edges:
            continue
        r_before = resistance_matrix(spectral_data(g))
        extra = non_edges[rng.randint(len(non_edges))]
        r_after = resistance_matrix(spectral_data(OrientedGraph(g.n, g.edges + (extra,))))
        if not (r_after <= r_before + 1e-10).all():
            rayleigh_ok = False

    path_bound_ok = True
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(3, 9))
        r = resistance_matrix(spectral_data(g))
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if r[i, j] > bfs_distance(g, i, j) + 1e-10:
                    path_bound_ok = False

    fiedler_ok = True
    for g in (complete(5), mesh(3, 4), path(6), random_connected_graph(rng, 7)):
        sd = spectral_data(g)
        best = worst_case_frequency(sd, 1.0).attained_quadratic_form
        lp = sd.pseudo_inverse
        for _ in range(1000):
            u = rng.randn(g.n)
            u /= np.linalg.norm(u)
            if u @ lp @ u > best + 1e-9:
                fiedler_ok = False

    degenerate_flags = [worst_case_frequency(spectral_data(complete(n)), 1.0).degenerate
                        for n in (3, 4, 5, 6)]
    flag_ok = all(degenerate_flags)

    ok = rayleigh_ok and path_bound_ok and fiedler_ok and flag_ok
    report("7 (graph layer properties)", ok,
           f"rayleigh: {rayleigh_ok}, path bound: {path_bound_ok}, "
           f"fiedler maximality: {fiedler_ok}, K_n degeneracy flagged: {flag_ok}")
