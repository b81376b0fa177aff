"""Command-line entry point: simulate, compare, analyze, and sweep.

Exit codes: 0 success, 1 scenario validation problems or a bad command line,
2 runtime failures (inadmissible control or buffer bound violations, with the
event named), 3 I/O errors. Summaries go to stdout; data goes to files in --out.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .afm import InadmissibleControlError, simulate_afm
from .analysis import (build_lyapunov_certificate, empirical_norms, hurwitz_check,
                       predicted_performance, worst_case_frequency)
from .graph import resistance_matrix, spectral_data
from .ode import (ParameterError, build_full_system, build_reduced_system, default_time_step,
                  output_time_step, simulate_ode, spectral_abscissa)
from .scenario import (ParseError, ScenarioError, ValidationError, apply_overrides,
                       check_keys, compare_traces, emit_report, field_error,
                       load_scenario_dict, read_document, write_trace)

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


def _fluid_trace(graph, scenario, gains):
    """The fluid model's run of a scenario, with a row at every output instant."""
    sd = spectral_data(graph)
    return simulate_ode(build_full_system(sd, gains), np.array(scenario.uncorrected_freq),
                        scenario.t_end, output_time_step(sd, gains, scenario.output_dt))


def _performance(sd, gains, scenario):
    try:  # both gains set the norms, so a norm out of range names their section
        return predicted_performance(sd, gains, scenario.uncorrected_freq)
    except ParameterError as exc:
        raise ValidationError("controller", str(exc)) from exc


def cmd_simulate(args) -> int:
    graph, scenario, gains = _load(args)
    out = _out_dir(args)
    bound_events = []
    if args.model == "afm":
        trace = simulate_afm(scenario)
        write_trace(trace, out / "trace_afm.csv")
        bound_events = [ev for ev in trace.events if ev.kind in ("overflow", "underflow")]
        final_freq = trace.freq[-1]
        own = {"events": len(trace.events), "buffer_bound_events": len(bound_events)}
    else:
        # delays and latencies do not exist in the fluid approximation
        if scenario.actuation_delay or any(scenario.latency):
            print("note: ode model ignores afm latencies and actuation delay", file=sys.stderr)
        trace = _fluid_trace(graph, scenario, gains)
        write_trace(trace, out / "trace_ode.csv")
        final_freq = trace.omega[-1]
        own = {"omega_avg": trace.omega_avg}
    summary = {"type": "run_summary", "model": args.model, "nodes": graph.n,
               "edges": graph.m, "t_end": scenario.t_end,
               "samples": int(trace.times.shape[0]), "final_freq": final_freq.tolist(), **own}
    tree = emit_report([summary], out / "summary.txt", out / "report.json")
    print(json.dumps(tree["reports"][0], indent=2, sort_keys=True))
    return _bound_exit(bound_events)


def _bound_exit(events) -> int:
    """Name the first buffer bound hit of a frame-model event log and exit 2, else 0."""
    for ev in events:
        if ev.kind in ("overflow", "underflow"):
            print(f"error: buffer {ev.kind} on link {ev.k} at t={ev.time} "
                  f"(occupancy {ev.value})", file=sys.stderr)
            return EXIT_RUNTIME
    return EXIT_OK


def cmd_compare(args) -> int:
    graph, scenario, gains = _load(args)
    out = _out_dir(args)
    afm_trace = simulate_afm(scenario)
    ode_trace = _fluid_trace(graph, scenario, gains)
    write_trace(afm_trace, out / "trace_afm.csv")
    write_trace(ode_trace, out / "trace_ode.csv")
    report = compare_traces(afm_trace, ode_trace)
    tree = emit_report([report], out / "comparison.txt", out / "comparison.json")
    print(json.dumps(tree["reports"][0], indent=2, sort_keys=True))
    return _bound_exit(afm_trace.events)


def cmd_analyze(args) -> int:
    if not (args.resistance or args.worst_case or args.performance or args.lyapunov):
        print("error: pick at least one of --resistance --worst-case "
              "--performance --lyapunov", file=sys.stderr)
        return EXIT_VALIDATION
    if args.simulate and not args.performance:
        print("error: --simulate needs --performance", file=sys.stderr)
        return EXIT_VALIDATION
    if not (math.isfinite(args.gamma) and args.gamma > 0):
        raise ValidationError("gamma", f"expected a finite number > 0, got {args.gamma!r}")
    graph, scenario, gains = _load(args)
    out = _out_dir(args)
    sd = spectral_data(graph)
    reports = []
    if args.resistance:
        r = resistance_matrix(sd)
        with (out / "resistance.csv").open("w") as fh:
            fh.write(",".join(f"node_{j}" for j in range(graph.n)) + "\n")
            for row in r.tolist():
                fh.write(",".join(map(repr, row)) + "\n")
        reports.append({
            "type": "resistance",
            "n": graph.n,
            "max": float(r.max()),
            "mean_offdiag": float(r.sum() / (graph.n * (graph.n - 1))),
            "table": "resistance.csv",
        })
    if args.worst_case:
        try:
            reports.append(worst_case_frequency(sd, args.gamma))
        except ValueError as exc:
            raise ValidationError("gamma", str(exc)) from exc
    if args.performance:
        perf = _performance(sd, gains, scenario)
        reports.append(perf)
        if args.simulate:
            abscissa = spectral_abscissa(sd, gains)
            t_end = 30.0 / abs(abscissa) if abscissa else math.inf  # a rate that underflows
            dt = default_time_step(sd, gains)  # refused under its own gain, not the horizon
            try:
                trace = simulate_ode(build_full_system(sd, gains), scenario.uncorrected_freq,
                                     t_end, dt)
            except ParameterError as exc:
                raise ValidationError("controller", (
                    f"the --simulate horizon 30/|spectral abscissa| = {t_end:.3g} s is "
                    f"set by the controller gains, and {exc}")) from exc
            freq_sq, occ_sq = empirical_norms(trace, abscissa)
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
        reports.append(hurwitz_check(sd, gains))
        reports.append(build_lyapunov_certificate(build_reduced_system(sd, gains)))
    emit_report(reports, out / "analysis.txt", out / "analysis.json")
    print((out / "analysis.txt").read_text(), end="")
    return EXIT_OK


SWEEP_COLUMNS = ("value", "status", "freq_dev_norm_sq", "occupancy_norm_sq", "quadratic_form")


def _sweep_one(doc_json: str, param: str, value: float, spectra: dict) -> dict:
    """One sweep point, on its own copy of the document.

    spectra holds each graph this sweep has factorised, so a gain sweep factorises once.
    """
    doc = apply_overrides(json.loads(doc_json), [f"{param}={value!r}"])
    try:
        graph, scenario, gains = load_scenario_dict(doc)
        sd = spectra.get(graph)
        if sd is None:
            sd = spectra[graph] = spectral_data(graph)
        perf = _performance(sd, gains, scenario)
        return {"value": value, "status": "ok",
                **{c: getattr(perf, c) for c in SWEEP_COLUMNS[2:]}}
    except (ScenarioError, ValueError) as exc:
        return {"value": value, "status": f"error: {exc}"}


def cmd_sweep(args) -> int:
    doc_json = json.dumps(read_document(args.scenario, args.set))
    # checked once, before any point runs: the document's keys and the parameter's path
    check_keys(apply_overrides(json.loads(doc_json), [f"{args.param}=0"]))
    try:
        values = sorted(float(v) for v in args.values.split(","))
    except ValueError as exc:
        raise ValidationError("values", str(exc)) from exc
    if not all(map(math.isfinite, values)):
        raise ValidationError("values", f"expected finite numbers, got {args.values!r}")
    out = _out_dir(args)
    spectra = {}
    rows = [_sweep_one(doc_json, args.param, v, spectra) for v in values]
    import csv  # here, so that importing the CLI does not load it
    # the writer quotes an error status that holds a comma; floats go out as repr
    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows([row.get(c, "") for c in SWEEP_COLUMNS] for row in rows)
    failures = [r for r in rows if r["status"] != "ok"]
    print((out / "sweep.csv").read_text(), end="")
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
    p_swp.add_argument("--jobs", type=int, default=1,
                       help="ignored: sweep points run in this process")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage error; --help exits 0
        return EXIT_VALIDATION if exc.code == 2 else exc.code
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
