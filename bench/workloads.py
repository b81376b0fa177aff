"""The benchmark's workloads: inputs made from the seed, one pass of operations,
and the checks each operation's outputs must pass.

Every workload is a closed loop: an operation starts when the previous one
ends, and a pass is the workload's operations in order. The program only
receives documents: shipped scenario files, or scenario files the workload
generates from the seed before any timing starts. A seed changes values, not
work: event and RK4 step counts are the same for every seed.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from bittide_sim import afm, cli, scenario

README_COMPARE_FLAGS = ["--set", "afm.latency=0.0", "--set", "afm.d=0.0",
                        "--set", "afm.p=100", "--set", "afm.beta_max=1024"]
BOUND_ERROR = re.compile(r"error: buffer (overflow|underflow) on link \d+ at t=")
# half a unit in the last digit the README gives for the 4x6 closed forms
README_DIGITS = 5e-4


class CheckFailed(Exception):
    """An operation's output does not match what the README promises."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: ``call`` runs the program and returns its exit code.

    ``check`` reads the outputs (and the captured stderr) after the call and
    returns the accuracy values it measured; ``outputs`` are the trace and
    event files whose sha256 must repeat exactly. ``expect_error`` names the
    exception the program documents for this input: raising it still fails
    the operation, but any other exception, or none, misses a check.
    """

    name: str
    call: Callable[[], int]
    expect: int = 0
    expect_error: str | None = None
    check: Callable[[str], dict] = lambda stderr: {}
    outputs: tuple = ()


@dataclass
class Workload:
    name: str
    why: str
    work: str  # the per-pass count events_per_s divides by wall time
    work_unit: str
    host_reference: str  # the hostspeed.py loop that does this workload's kind of work
    baseline: dict  # measured at the commit that added the benchmark
    prepare: Callable  # (root, run_dir, seed) -> Prepared


@dataclass
class Prepared:
    scenario_files: list  # what set-up loads and validates in a fresh interpreter
    ops: list
    notes: list = field(default_factory=list)


def _cli_op(name, argv, out: Path, **kw) -> Op:
    return Op(name, lambda: cli.main(argv + ["--out", str(out)]), **kw)


def _report(path: Path, kind: str) -> dict:
    reports = json.loads(path.read_text())["reports"]
    found = [r for r in reports if r.get("type") == kind]
    require(len(found) == 1, f"{path.name}: expected one {kind!r} report, got {len(found)}")
    return found[0]


def _resistance(path: Path) -> np.ndarray:
    with path.open() as fh:
        rows = list(csv.reader(fh))[1:]
    r = np.array([[float(v) for v in row] for row in rows])
    require(np.abs(r - r.T).max() <= 1e-12 * r.max() and not np.diag(r).any(),
            f"{path.name}: not a symmetric table with a zero diagonal")
    return r


def _check_sweep(path: Path, q_expected: float | None = None) -> float:
    """Every row must be q/(2 k_p) with a single q (the gains do not enter q)."""
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    require(rows and all(r["status"] == "ok" for r in rows), f"{path.name}: a point failed")
    qs = {float(r["quadratic_form"]) for r in rows}
    require(len(qs) == 1, f"{path.name}: {len(qs)} distinct q values")
    q = qs.pop()
    for r in rows:
        want = q / (2.0 * float(r["value"]))
        require(abs(float(r["freq_dev_norm_sq"]) - want) <= 1e-12 * want,
                f"{path.name}: k_p={r['value']} gives {r['freq_dev_norm_sq']}, not q/(2 k_p)")
    # q = omega_u' L+ omega_u carries the rounding of the base rate 1.0 (about
    # 1e-6 of q here); a wrong pair or a wrong R would be off by far more
    if q_expected is not None:
        require(abs(q - q_expected) <= 1e-5 * q_expected,
                f"{path.name}: q={q} but alpha^2 R_ij={q_expected}")
    return q


def _check_l2_gap(path: Path) -> float:
    gap = _report(path, "performance_empirical")["freq_rel_gap"]
    require(gap <= 0.01, f"integrated L2 norm is {gap:.2e} off the closed form (limit 1%)")
    return gap


def _check_bound_error(stderr: str) -> dict:
    require(BOUND_ERROR.search(stderr) is not None,
            f"exit 2 without a named buffer bound: {stderr.strip()[-200:]!r}")
    return {}


def _afm_outputs(out: Path) -> tuple:
    return (out / "trace_afm.csv", out / "trace_afm_events.csv")


# ---------------------------------------------------------------------------
# readme_cli
# ---------------------------------------------------------------------------

# the accuracy metrics come from these README operations on every workload
ACCURACY_OPS = ("simulate_afm_triangle", "compare_triangle", "analyze_close_pair")


def readme_ops(root: Path, run_dir: Path) -> list:
    sc = root / "scenarios"
    tri, close, far = (str(sc / f"{s}.json")
                       for s in ("triangle_pi", "mesh_close_pair", "mesh_far_pair"))
    omega_u = json.loads(Path(tri).read_text())["frequencies"]["omega_u"]
    close_doc = json.loads(Path(close).read_text())
    alpha = close_doc["frequencies"]["two_node"]["alpha"]
    k_p = close_doc["controller"]["k_p"]
    d = {name: run_dir / name for name in (
        "simulate_afm_triangle", "simulate_ode_triangle", "compare_triangle",
        "analyze_close_pair", "sweep_close_pair", "simulate_afm_close_pair",
        "simulate_afm_far_pair")}

    def settled(stderr):
        final = _report(d["simulate_afm_triangle"] / "report.json", "run_summary")["final_freq"]
        return {"settled_rate_bias": abs(float(np.mean(final)) - float(np.mean(omega_u)))}

    def compared(stderr):
        dev = _report(d["compare_triangle"] / "comparison.json", "comparison")["max_occ_dev"]
        require(dev <= 2.0, f"frame occupancy is {dev} frames off the fluid model (limit 2)")
        return {"frame_fluid_occ_dev": dev}

    def analyzed(stderr):
        out = d["analyze_close_pair"]
        perf = _report(out / "analysis.json", "performance")
        r = _resistance(out / "resistance.csv")
        far_norm = alpha * alpha * r[0, 23] / (2.0 * k_p)
        for label, got, want in (("close-pair norm", perf["freq_dev_norm_sq"], 0.175),
                                 ("far-pair norm", far_norm, 0.565),
                                 ("R_0,1", r[0, 1], 0.700), ("R_0,23", r[0, 23], 2.262)):
            require(abs(got - want) <= README_DIGITS, f"{label} is {got}, README says {want}")
        return {"l2_rel_gap": _check_l2_gap(out / "analysis.json")}

    def swept(stderr):
        _check_sweep(d["sweep_close_pair"] / "sweep.csv")
        return {}

    return [
        _cli_op("simulate_afm_triangle", ["simulate", "--model", "afm", "--scenario", tri],
                d["simulate_afm_triangle"], check=settled,
                outputs=_afm_outputs(d["simulate_afm_triangle"])),
        _cli_op("simulate_ode_triangle", ["simulate", "--model", "ode", "--scenario", tri],
                d["simulate_ode_triangle"],
                outputs=(d["simulate_ode_triangle"] / "trace_ode.csv",)),
        _cli_op("compare_triangle", ["compare", "--scenario", tri] + README_COMPARE_FLAGS,
                d["compare_triangle"], check=compared,
                outputs=_afm_outputs(d["compare_triangle"])
                + (d["compare_triangle"] / "trace_ode.csv",)),
        _cli_op("analyze_close_pair",
                ["analyze", "--scenario", close, "--resistance", "--performance",
                 "--simulate", "--lyapunov", "--worst-case"],
                d["analyze_close_pair"], check=analyzed),
        _cli_op("sweep_close_pair",
                ["sweep", "--scenario", close, "--param", "controller.k_p",
                 "--values", "1e-8,2e-8,4e-8", "--jobs", "2"],
                d["sweep_close_pair"], check=swept),
        _cli_op("simulate_afm_close_pair", ["simulate", "--model", "afm", "--scenario", close],
                d["simulate_afm_close_pair"], expect=2, check=_check_bound_error,
                outputs=_afm_outputs(d["simulate_afm_close_pair"])),
        _cli_op("simulate_afm_far_pair", ["simulate", "--model", "afm", "--scenario", far],
                d["simulate_afm_far_pair"], expect=2, check=_check_bound_error,
                outputs=_afm_outputs(d["simulate_afm_far_pair"])),
    ]


def prepare_readme_cli(root: Path, run_dir: Path, seed: int) -> Prepared:
    del seed  # the shipped scenario files are the traffic
    sc = root / "scenarios"
    return Prepared(
        scenario_files=[sc / f"{s}.json" for s in
                        ("triangle_pi", "mesh_close_pair", "mesh_far_pair")],
        ops=readme_ops(root, run_dir),
        notes=["the seed is unused: the shipped scenario files are the inputs",
               "sweep --jobs 2 runs its points in child processes; they show only "
               "inside the cli.sweep span"],
    )


# ---------------------------------------------------------------------------
# afm_mesh_ladder
# ---------------------------------------------------------------------------

LADDER = ((1, 3), (3, 3), (4, 6), (8, 8))
# t_end = LADDER_EVENTS / n gives ~3.2k measure+hold events per rung: a pass of
# about 3 s, so a run holds about ten passes
LADDER_EVENTS = 1.6e6
OMEGA_SPREAD = 5e-5


def ladder_docs(root: Path, seed: int) -> list:
    """One scenario per rung: triangle_pi's controller and afm settings on a mesh.

    t_end is LADDER_EVENTS/n moved to the middle of a measurement period, so that no
    node's last measurement or hold sits on the t_end boundary, where a seed's
    rates could add or drop an event.
    """
    base = json.loads((root / "scenarios" / "triangle_pi.json").read_text())
    p = base["afm"]["p"]
    rng = np.random.default_rng(seed)
    docs = []
    for rows, cols in LADDER:
        n = rows * cols
        doc = json.loads(json.dumps(base))
        doc["graph"] = {"generator": "mesh", "rows": rows, "cols": cols}
        doc["frequencies"] = {
            "omega_u": rng.uniform(1.0 - OMEGA_SPREAD, 1.0 + OMEGA_SPREAD, n).tolist()}
        doc["run"]["t_end"] = (np.floor(LADDER_EVENTS / n / p) + 0.5) * p
        docs.append(doc)
    return docs


def _ladder_op(doc: dict, out: Path) -> Op:
    n = doc["graph"]["rows"] * doc["graph"]["cols"]
    path = out / f"trace_afm_n{n}.csv"
    kept = {}

    def call():
        _, sc, _ = scenario.load_scenario_dict(doc)
        trace = afm.simulate_afm(sc)
        scenario.write_trace(trace, path)
        kept["trace"], kept["table"] = trace, scenario.read_trace(path)
        return 0

    def check(stderr):
        trace, table = kept.pop("trace"), kept.pop("table")
        values = np.hstack([trace.freq, trace.occupancy.astype(float)])
        require(table.times.tobytes() == trace.times.tobytes()
                and table.values.tobytes() == values.tobytes(),
                f"n={n}: read_trace does not reproduce the in-memory trace bit for bit")
        return {}

    return Op(f"afm_n{n}", call, check=check, outputs=(path, scenario.events_path_for(path)))


def prepare_afm_mesh_ladder(root: Path, run_dir: Path, seed: int) -> Prepared:
    out = run_dir / "ladder"
    out.mkdir(parents=True, exist_ok=True)
    files, ops = [], []
    for doc in ladder_docs(root, seed):
        n = doc["graph"]["rows"] * doc["graph"]["cols"]
        f = run_dir / f"ladder_n{n}.json"
        f.write_text(json.dumps(doc))
        files.append(f)
        ops.append(_ladder_op(json.loads(f.read_text()), out))
    return Prepared(files, ops, notes=["per-node omega_u drawn uniformly from 1 +- 5e-5"])


# ---------------------------------------------------------------------------
# fluid_analysis
# ---------------------------------------------------------------------------

FLUID_MESH = (12, 12)
FLUID_SWEEP = "1e-8,1.5e-8,2e-8,3e-8,4e-8,6e-8,8e-8,1.6e-7"


def fluid_doc(root: Path, seed: int) -> dict:
    """mesh_far_pair's settings on a 12x12 mesh; the seed picks the perturbed pair."""
    doc = json.loads((root / "scenarios" / "mesh_far_pair.json").read_text())
    rows, cols = FLUID_MESH
    i, j = np.random.default_rng(seed).choice(rows * cols, size=2, replace=False).tolist()
    doc["graph"] = {"generator": "mesh", "rows": rows, "cols": cols}
    doc["frequencies"]["two_node"].update(i=i, j=j)
    return doc


def prepare_fluid_analysis(root: Path, run_dir: Path, seed: int) -> Prepared:
    doc = fluid_doc(root, seed)
    f = run_dir / "fluid_12x12.json"
    f.write_text(json.dumps(doc))
    tn = doc["frequencies"]["two_node"]
    s = ["--scenario", str(f)]
    d = {name: run_dir / name for name in (
        "analyze_performance", "analyze_resistance", "analyze_lyapunov", "sweep_k_p",
        "simulate_ode")}

    def swept(stderr):
        r = _resistance(d["analyze_resistance"] / "resistance.csv")
        _check_sweep(d["sweep_k_p"] / "sweep.csv", tn["alpha"] ** 2 * r[tn["i"], tn["j"]])
        return {}

    def worst(stderr):
        _resistance(d["analyze_resistance"] / "resistance.csv")
        wc = _report(d["analyze_resistance"] / "analysis.json", "worst_case")
        require(wc["attained_quadratic_form"] > 0, "worst case attains q <= 0")
        return {}

    return Prepared([f], [
        _cli_op("analyze_performance", ["analyze", *s, "--performance", "--simulate"],
                d["analyze_performance"],
                check=lambda stderr: {"l2_rel_gap_12x12": _check_l2_gap(
                    d["analyze_performance"] / "analysis.json")}),
        _cli_op("analyze_resistance", ["analyze", *s, "--resistance", "--worst-case"],
                d["analyze_resistance"], check=worst),
        # x1's smallest eigenvalue is about -1e-23 here, a rounding-level miss
        _cli_op("analyze_lyapunov", ["analyze", *s, "--lyapunov"], d["analyze_lyapunov"],
                expect_error="PositivityViolationError"),
        _cli_op("sweep_k_p", ["sweep", *s, "--param", "controller.k_p",
                              "--values", FLUID_SWEEP, "--jobs", "1"],
                d["sweep_k_p"], check=swept),
        _cli_op("simulate_ode", ["simulate", "--model", "ode", *s], d["simulate_ode"],
                outputs=(d["simulate_ode"] / "trace_ode.csv",)),
    ], notes=[f"perturbed pair ({tn['i']}, {tn['j']}) of 144 nodes",
              "no frame model runs in a pass; events_per_s counts RK4 steps"])


# Baselines are medians over 20 runs of 30 s measured when the benchmark was added, on
# a 2-core x86 shared machine with Python 3.11 and numpy 2.4 (one BLAS thread), where
# the speed of a core drifts by up to half between spells. Host times are the run.py
# estimates at the reference host speed of hostspeed.py (wall_s sums each operation's
# median scaled time, setup_s is the median scaled sample). Accuracy values and counts
# repeat exactly.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="readme_cli",
            why="the README command lines on the shipped scenarios: small n, many frame "
                "events, CLI, reports and the sweep pool",
            work="afm.events",
            work_unit="frame-model measure+hold events",
            host_reference="python",
            baseline={"wall_s": 0.52, "setup_s": 0.11, "events_per_s": 27e3,
                      "peak_rss_mb": 104, "frame_fluid_occ_dev": 1.0694,
                      "l2_rel_gap": 1.633e-4, "settled_rate_bias": 5.0e-5,
                      "afm.events per pass": 14196, "failed": "0 of 7 per pass"},
            prepare=prepare_readme_cli,
        ),
        Workload(
            name="afm_mesh_ladder",
            why="frame model and trace I/O on meshes of n = 3, 9, 24, 64: the layer whose "
                "cost per event grows with n",
            work="afm.events",
            work_unit="frame-model measure+hold events",
            host_reference="python",
            baseline={"wall_s": 2.3, "setup_s": 0.11, "events_per_s": 5.6e3,
                      "peak_rss_mb": 119,
                      "afm.us_per_event n3 -> n64": "about 21 -> 320 (ratio about 16)",
                      "afm.events per pass": 12952, "trace CSVs per pass": "12.6 MB",
                      "failed": "0 of 4 per pass"},
            prepare=prepare_afm_mesh_ladder,
        ),
        Workload(
            name="fluid_analysis",
            why="closed-form analysis and RK4 on a 12x12 mesh with no frame model, so "
                "frame-model changes should not move it",
            work="ode.steps",
            work_unit="fluid-model RK4 steps",
            host_reference="matvec",
            baseline={"wall_s": 3.1, "setup_s": 0.11, "events_per_s": 44e3,
                      "peak_rss_mb": 1438,
                      "ode.steps per pass": 138474,
                      "share of a pass": "ode.simulate ~80%, analysis.empirical_norms ~15%",
                      "failed": "1 of 5 per pass: analyze --lyapunov raises "
                                "PositivityViolationError (min eig of x1 ~ -1e-23)"},
            prepare=prepare_fluid_analysis,
        ),
    )
}
