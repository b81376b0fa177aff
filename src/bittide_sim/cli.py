"""Command-line entry point: simulate, compare, analyze, and sweep.

Exit codes: 0 success, 1 scenario validation problems, 2 runtime failures
(inadmissible control or buffer bound violations, with the event named),
3 I/O errors. Summaries go to stdout; data goes to files in --out.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .afm import InadmissibleControlError, simulate_afm
from .analysis import (build_lyapunov_certificate, empirical_norms, hurwitz_check,
                       predicted_performance, worst_case_frequency)
from .graph import resistance_matrix, spectral_data
from .ode import (ParameterError, build_full_system, build_reduced_system, output_time_step,
                  simulate_ode)
from .scenario import (ParseError, ScenarioError, ValidationError, apply_overrides,
                       compare_traces, emit_report, field_error, load_scenario_dict,
                       read_document, write_trace)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _load(args) -> tuple:
    # OSError propagates (exit 3); malformed content is a validation failure
    return load_scenario_dict(read_document(args.scenario, args.set))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    graph, scenario, gains = _load(args)
    out = _out_dir(args)
    sd = spectral_data(graph)
    if args.model == "afm":
        trace = simulate_afm(scenario)
        write_trace(trace, out / "trace_afm.csv")
        bound_events = [ev for ev in trace.events if ev.kind in ("overflow", "underflow")]
        summary = {
            "type": "run_summary",
            "model": "afm",
            "nodes": graph.n,
            "edges": graph.m,
            "t_end": scenario.t_end,
            "samples": int(trace.times.shape[0]),
            "events": len(trace.events),
            "buffer_bound_events": len(bound_events),
            "final_freq": [float(v) for v in trace.freq[-1]],
        }
        tree = emit_report([summary], out / "summary.txt", out / "report.json")
        print(json.dumps(tree["reports"][0], indent=2, sort_keys=True))
        if bound_events:
            ev = bound_events[0]
            print(
                f"error: buffer {ev.kind} on link {ev.k} at t={ev.time} "
                f"(occupancy {ev.value})",
                file=sys.stderr,
            )
            return EXIT_RUNTIME
        return EXIT_OK
    # ode: delays and latencies do not exist in the fluid approximation
    if scenario.actuation_delay or any(scenario.latency):
        print("note: ode model ignores afm latencies and actuation delay", file=sys.stderr)
    sys_full = build_full_system(sd, gains)
    trace = simulate_ode(sys_full, np.array(scenario.uncorrected_freq), scenario.t_end,
                         output_time_step(sd, gains, scenario.output_dt))
    write_trace(trace, out / "trace_ode.csv")
    summary = {
        "type": "run_summary",
        "model": "ode",
        "nodes": graph.n,
        "edges": graph.m,
        "t_end": scenario.t_end,
        "samples": int(trace.times.shape[0]),
        "omega_avg": trace.omega_avg,
        "final_freq": [float(v) for v in trace.omega[-1]],
    }
    tree = emit_report([summary], out / "summary.txt", out / "report.json")
    print(json.dumps(tree["reports"][0], indent=2, sort_keys=True))
    return EXIT_OK


def cmd_compare(args) -> int:
    graph, scenario, gains = _load(args)
    out = _out_dir(args)
    sd = spectral_data(graph)
    afm_trace = simulate_afm(scenario)
    sys_full = build_full_system(sd, gains)
    ode_trace = simulate_ode(sys_full, np.array(scenario.uncorrected_freq), scenario.t_end,
                             output_time_step(sd, gains, scenario.output_dt))
    write_trace(afm_trace, out / "trace_afm.csv")
    write_trace(ode_trace, out / "trace_ode.csv")
    report = compare_traces(afm_trace, ode_trace, np.array(scenario.initial_occupancy))
    tree = emit_report([report], out / "comparison.txt", out / "comparison.json")
    print(json.dumps(tree["reports"][0], indent=2, sort_keys=True))
    return EXIT_OK


def cmd_analyze(args) -> int:
    graph, scenario, gains = _load(args)
    out = _out_dir(args)
    sd = spectral_data(graph)
    reports = []
    if args.resistance:
        r = resistance_matrix(sd)
        with (out / "resistance.csv").open("w") as fh:
            fh.write(",".join(f"node_{j}" for j in range(graph.n)) + "\n")
            for row in r:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        reports.append({
            "type": "resistance",
            "n": graph.n,
            "max": float(r.max()),
            "mean_offdiag": float(r.sum() / (graph.n * (graph.n - 1))),
            "table": "resistance.csv",
        })
    if args.worst_case:
        reports.append(worst_case_frequency(sd, args.gamma))
    if args.performance:
        perf = predicted_performance(sd, gains, np.array(scenario.uncorrected_freq))
        reports.append(perf)
        if args.simulate:
            reduced = build_reduced_system(sd, gains)
            hz = hurwitz_check(reduced.a_hat)
            t_end = 30.0 / abs(hz.spectral_abscissa)
            sys_full = build_full_system(sd, gains)
            omega_u = np.array(scenario.uncorrected_freq)
            trace = simulate_ode(sys_full, omega_u, t_end)
            omega_ss = np.full(graph.n, float(np.mean(omega_u)))
            freq_sq, occ_sq = empirical_norms(trace, omega_ss, hz.spectral_abscissa)
            gap = lambda emp, pred: abs(emp - pred) / pred if pred else 0.0
            reports.append({
                "type": "performance_empirical",
                "freq_dev_norm_sq": freq_sq,
                "occupancy_norm_sq": occ_sq,
                "freq_rel_gap": gap(freq_sq, perf.freq_dev_norm_sq),
                "occ_rel_gap": gap(occ_sq, perf.occupancy_norm_sq),
                "horizon": t_end,
            })
    if args.lyapunov:
        reduced = build_reduced_system(sd, gains)
        reports.append(hurwitz_check(reduced.a_hat))
        reports.append(build_lyapunov_certificate(reduced, sd, gains))
    if not reports:
        print("error: pick at least one of --resistance --worst-case "
              "--performance --lyapunov", file=sys.stderr)
        return EXIT_VALIDATION
    tree = emit_report(reports, out / "analysis.txt", out / "analysis.json")
    print((out / "analysis.txt").read_text(), end="")
    return EXIT_OK


def _sweep_one(doc_json: str, param: str, value: float) -> dict:
    """Worker for one sweep point; must stay importable for process pools."""
    doc = json.loads(doc_json)
    apply_overrides(doc, [f"{param}={value!r}"])
    try:
        graph, scenario, gains = load_scenario_dict(doc)
        sd = spectral_data(graph)
        perf = predicted_performance(sd, gains, np.array(scenario.uncorrected_freq))
        return {
            "value": value,
            "status": "ok",
            "freq_dev_norm_sq": perf.freq_dev_norm_sq,
            "occupancy_norm_sq": perf.occupancy_norm_sq,
            "quadratic_form": perf.quadratic_form,
        }
    except (ScenarioError, ValueError) as exc:
        return {"value": value, "status": f"error: {exc}"}


def cmd_sweep(args) -> int:
    doc = read_document(args.scenario, args.set)
    out = _out_dir(args)
    try:
        values = sorted(float(v) for v in args.values.split(","))
    except ValueError as exc:
        raise ValidationError("values", str(exc)) from exc
    doc_json = json.dumps(doc)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_one, [doc_json] * len(values),
                                 [args.param] * len(values), values))
    else:
        rows = [_sweep_one(doc_json, args.param, v) for v in values]
    rows.sort(key=lambda r: r["value"])
    columns = ["value", "status", "freq_dev_norm_sq", "occupancy_norm_sq", "quadratic_form"]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            repr(row[c]) if isinstance(row.get(c), float) else str(row.get(c, ""))
            for c in columns
        ))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    failures = [r for r in rows if r["status"] != "ok"]
    print("\n".join(lines))
    if failures:
        print(f"{len(failures)} of {len(rows)} sweep points failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bittide-sim",
        description="Simulate and analyze buffer-coupled logical clock synchronization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a scenario field (dotted path), repeatable")

    p_sim = sub.add_parser("simulate", help="run one model and write its trace")
    p_sim.add_argument("--model", choices=("afm", "ode"), required=True)
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run both models and compare traces")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ana = sub.add_parser("analyze", help="closed-form graph and performance analysis")
    common(p_ana)
    p_ana.add_argument("--resistance", action="store_true",
                       help="emit the full resistance distance matrix")
    p_ana.add_argument("--worst-case", action="store_true", dest="worst_case",
                       help="worst-case frequency distribution on the norm ball")
    p_ana.add_argument("--performance", action="store_true",
                       help="closed-form L2 performance for the scenario frequencies")
    p_ana.add_argument("--simulate", action="store_true",
                       help="with --performance: add an integrated empirical check")
    p_ana.add_argument("--lyapunov", action="store_true",
                       help="stability certificate residuals")
    p_ana.add_argument("--gamma", type=float, default=1.0,
                       help="norm bound for --worst-case (default 1.0)")
    p_ana.set_defaults(func=cmd_analyze)

    p_swp = sub.add_parser("sweep", help="rerun the analysis over a parameter range")
    common(p_swp)
    p_swp.add_argument("--param", required=True, help="dotted scenario field to vary")
    p_swp.add_argument("--values", required=True, help="comma-separated numeric values")
    p_swp.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ParameterError as exc:
        print(f"error: {field_error(exc)}", file=sys.stderr)
        return EXIT_VALIDATION
    except InadmissibleControlError as exc:
        print(f"error: inadmissible control: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
