"""bittide-sim benchmark: runs one workload, checks its outputs, prints its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload readme_cli --seed 1 --seconds 30 --trace 0

Workloads are defined in ``bench/workloads.py``; the metric names, units and
bounds in ``BENCHMARK.json``. A run makes the workload's inputs from the seed,
then runs passes of the workload back to back for ``--seconds`` seconds of pass
time. Between passes it times ``bittide_sim.cli`` set-up in fresh interpreters.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics from untraced passes. Host
times are scaled to a reference host speed (``bench/hostspeed.py``): a fixed
loop that does the workload's kind of work is timed around and, from a timer
signal, during every operation and every set-up sample, and each time is
scaled by the loop's reference time over its median measured time, since slow
spells of a shared host last seconds to minutes and can cover a whole run.
``wall_s`` sums each operation's median scaled time over the passes, and
``setup_s`` is the median scaled set-up sample. The unscaled times are
printed beside them. numpy runs on one BLAS thread.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics from the traced ones (median over passes of each pass's total), plus
``trace_overhead_frac``, traced over untraced scaled pass time minus one. A layer
that a workload does not exercise reports 0.

Host time is kept apart from simulated outcomes. ``frame_fluid_occ_dev``,
``l2_rel_gap`` and ``settled_rate_bias`` come from the README operations
(``compare``, ``analyze`` on mesh_close_pair, ``simulate --model afm`` on
triangle_pi). They are part of every ``readme_cli`` pass; the other workloads
run those three operations once after timing, untimed.

An operation fails when an exception escapes the program, when its exit code
differs from the documented one, or when an output check misses. Failures are
counted against operations attempted, with the exception type named.
``correct`` is false when an output check misses, or when a result that must
repeat exactly (accuracy values, trace and event file fingerprints) changes
between passes.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

# one BLAS thread, set before numpy loads: the benchmark's only parallelism is the
# README's sweep --jobs 2, and a second BLAS thread would time the other core
os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 21


@dataclass
class OpResult:
    name: str
    op_id: int
    seconds: float
    start: float = 0.0  # perf_counter when the call began
    scaled: float = 0.0  # seconds at the reference host speed
    error: str | None = None  # exception type and message, or what missed
    check_missed: bool = False
    accuracy: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)


@dataclass
class Pass:
    traced: bool
    ops: list

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.ops)

    @property
    def scaled(self) -> float:
        return sum(r.scaled for r in self.ops)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_op(op, recorder, check_errors) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    op_id = recorder.begin_op(op.name)
    t0 = time.perf_counter()
    raised = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = op.call()
    except Exception as exc:  # an exception escaping the program fails this operation only
        code, raised = None, exc
    result = OpResult(op.name, op_id, time.perf_counter() - t0, start=t0)
    recorder.end_op()
    recorder.settle()
    if raised is not None:
        # the operation fails either way; only its documented exception leaves `correct` true
        result.error = f"{type(raised).__name__}: {raised}"
        result.check_missed = type(raised).__name__ != op.expect_error
        return result
    if op.expect_error is not None:
        result.error = f"NotRaised: documented {op.expect_error} did not occur"
        result.check_missed = True
        return result
    if code != op.expect:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        result.error = f"ExitCode: {code}, documented {op.expect}: {tail[0]}"
        result.check_missed = True
        return result
    try:
        result.accuracy = op.check(err.getvalue())
        result.fingerprints = {p.name: sha256(p) for p in op.outputs}
    except check_errors as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        result.check_missed = True
    return result


class SetupSampler:
    """Set-up timed in fresh interpreters, SETUP_REPEATS times spread over the timed
    passes, each sample scaled by the reference loop timed in the same interpreter."""

    def __init__(self, files):
        self.argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                     str(ROOT), *map(str, files)]
        self.samples = []  # (unscaled, scaled) seconds

    def sample_until(self, count: int) -> None:
        while len(self.samples) < count:
            out = subprocess.run(self.argv, check=True, capture_output=True, text=True,
                                 timeout=120).stdout
            self.samples.append(tuple(map(float, out.split())))


def run_passes(ops, recorder, seconds: float, trace: bool, check_errors, reference: str,
               setup: SetupSampler | None = None) -> list:
    """Closed loop: passes back to back until they have taken ``seconds``.

    With tracing, passes alternate untraced/traced and stop on a pair. Each
    operation's time is scaled by the ``reference`` loop of hostspeed.py. Set-up
    samples, if asked for, are taken between passes and do not count as pass time.
    """
    host = hostspeed.Sampler(reference)
    passes = []
    measured = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        recorder.tracing = traced
        start = time.perf_counter()
        results = []
        for op in ops:
            with host:
                r = run_op(op, recorder, check_errors)
            r.scaled = host.scaled(r.start, r.start + r.seconds)
            results.append(r)
        measured += time.perf_counter() - start
        recorder.tracing = False
        passes.append(Pass(traced, results))
        if setup is not None:
            setup.sample_until(math.ceil(SETUP_REPEATS * min(1.0, measured / seconds)))
        if measured >= seconds and (not trace or len(passes) % 2 == 0):
            return passes


def scaled_pass(passes) -> float:
    """Host time of one pass at the reference host speed: the sum of each
    operation's median scaled time over the passes."""
    return sum(statistics.median(p.ops[k].scaled for p in passes)
               for k in range(len(passes[0].ops)))


def pass_counts(recorder, op_pass: dict) -> dict:
    """Per-pass work and per-layer totals, from recorded calls and spans."""
    own = recorder.self_seconds()
    table = defaultdict(lambda: defaultdict(float))
    for c, s in zip(recorder.calls, own):
        if c.op not in op_pass or c.name.startswith("op."):
            continue
        t, f = table[op_pass[c.op]], c.facts
        if s is not None:
            if c.name.startswith("cli."):
                t["cli.self_s"] += s
                if c.name != "cli.main":
                    t[c.name + "_s"] += c.seconds
            else:
                t[c.name + "_s"] += s
        if c.name == "afm.simulate" and "events_measure" in f:
            events = f["events_measure"] + f["events_hold"]
            t["afm.events"] += events
            for k in ("events_measure", "events_hold", "events_bound", "samples",
                      "samples_event_instant"):
                t["afm." + k] += f[k]
            if s is not None:
                t[f"afm.n{f['n']}_s"] += c.seconds
                t[f"afm.n{f['n']}_events"] += events
        elif c.name == "ode.simulate" and f:
            t["ode.steps"] += f["rows"] - 1
            t["ode.state_mb"] += 8 * f["rows"] * (2 * f["n"] + f["n"] + f["m"]) / 1e6
        elif c.name == "scenario.write_trace" and "bytes" in f:
            t["scenario.write_trace_mb"] += f["bytes"] / 1e6
        elif c.name == "scenario.read_trace" and "bytes" in f:
            t["scenario.read_trace_mb"] += f["bytes"] / 1e6
        elif c.name == "graph.spectral":
            t["graph.spectral_calls"] += 1
    for t in table.values():
        ratio = lambda num, den, scale=1.0: scale * t[num] / t[den] if t[den] else 0.0
        sizes = [k[len("afm.n"):-len("_events")] for k in t
                 if k.startswith("afm.n") and k.endswith("_events")]
        for n in sizes:
            t[f"afm.us_per_event.n{n}"] = ratio(f"afm.n{n}_s", f"afm.n{n}_events", 1e6)
        t["afm.us_per_event_ratio"] = (
            ratio("afm.us_per_event.n64", "afm.us_per_event.n3")
            if t["afm.us_per_event.n64"] else 0.0)
        t["ode.ns_per_step"] = ratio("ode.simulate_s", "ode.steps", 1e9)
        t["scenario.write_trace_mb_per_s"] = ratio("scenario.write_trace_mb",
                                                   "scenario.write_trace_s")
        t["scenario.read_trace_mb_per_s"] = ratio("scenario.read_trace_mb",
                                                  "scenario.read_trace_s")
    return table


def describe(values, unit: str) -> str:
    return (f"median {statistics.median(values):.6g} {unit}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}")


def repeated(values_by_pass, label: str, problems: list):
    """The single value a deterministic output took, or None (and a problem) if it varied."""
    distinct = set(values_by_pass)
    if len(distinct) > 1:
        problems.append(f"{label} changed between passes: {sorted(distinct)}")
        return None
    return distinct.pop() if distinct else None


def measure(wl, args, workloads, recorder):
    """Set-up, the timed passes and (off readme_cli) the untimed accuracy probe."""
    check_errors = (workloads.CheckFailed, OSError, LookupError, ValueError)
    trace = bool(args.trace)
    run_dir = ROOT / ".bench_run" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    recorder.install()
    try:
        prepared = wl.prepare(ROOT, run_dir, args.seed)
        setup = None if trace else SetupSampler(prepared.scenario_files)
        passes = run_passes(prepared.ops, recorder, args.seconds, trace, check_errors,
                            wl.host_reference, setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        probe = []
        if not trace and wl.name != "readme_cli":
            probe_ops = [op for op in workloads.readme_ops(ROOT, run_dir / "accuracy")
                         if op.name in workloads.ACCURACY_OPS]
            probe = run_passes(probe_ops, recorder, 0.0, False, check_errors,
                               "python")[0].ops
    finally:
        recorder.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
    return prepared, setup, passes, peak_rss_mb, probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "bittide_sim"
    if not (package / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no bittide_sim source under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bittide_sim
    if Path(bittide_sim.__file__).resolve().parent != package:
        print(f"error: imported bittide_sim from {bittide_sim.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Recorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    recorder = Recorder()
    prepared, setup, passes, peak_rss_mb, probe = measure(wl, args, workloads, recorder)
    if args.trace:
        recorder.write_spans(ROOT / ".bench_run" / f"spans-{wl.name}-seed{args.seed}.jsonl")

    problems = []
    all_ops = [r for p in passes for r in p.ops]
    failures = [r for r in all_ops if r.error is not None]
    accuracy, fingerprints = {}, {}
    for r in all_ops + probe:
        for k, v in r.accuracy.items():
            accuracy.setdefault(k, []).append(v)
        for k, v in r.fingerprints.items():
            fingerprints.setdefault(f"{r.name}/{k}", []).append(v)
    accuracy = {k: repeated(v, k, problems) for k, v in accuracy.items()}
    fingerprints = {k: repeated(v, k, problems) for k, v in fingerprints.items()}
    problems += [f"{r.name} (accuracy probe): {r.error}" for r in probe if r.error]
    counts = pass_counts(recorder, {r.op_id: i for i, p in enumerate(passes) for r in p.ops})
    work = {k: repeated([counts[i][k] for i in range(len(passes))], k, problems)
            for k in ("afm.events", "afm.samples", "ode.steps")}
    traced = [i for i, p in enumerate(passes) if p.traced]
    walls = [p.wall for p in passes if not p.traced]

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} ({len(traced)} traced)")
    print(f"why: {wl.why}")
    for note in prepared.notes:
        print(f"note: {note}")
    print("work " + json.dumps(work, sort_keys=True))
    for op in prepared.ops:
        times = [r.seconds for r in all_ops if r.name == op.name]
        errors = Counter(r.error.split(":")[0] for r in all_ops
                         if r.name == op.name and r.error)
        status = "ok" if not errors else "FAILED " + ", ".join(
            f"{k} x{v}" for k, v in sorted(errors.items()))
        print(f"op {op.name}: {status}; {describe(times, 's')}")
    for r in {r.name: r for r in failures}.values():
        print(f"failure {r.name}: {r.error[:300]}")
    print(f"failed_frac = {len(failures)}/{len(all_ops)} = "
          f"{len(failures) / len(all_ops):.4g} ratio")
    for k, v in sorted(accuracy.items()):
        print(f"accuracy {k} = {v!r}")
    for k, v in sorted(fingerprints.items()):
        print(f"sha256 {k} {v}")
    digest = hashlib.sha256(json.dumps(fingerprints, sort_keys=True).encode()).hexdigest()
    print(f"fingerprint {digest}")

    if args.trace:
        values = {m["name"]: statistics.median(counts[i][m["name"]] for i in traced)
                  for m in spec["per_layer"]}
        values["trace_overhead_frac"] = (
            statistics.median(passes[i].scaled for i in traced)
            / statistics.median(p.scaled for p in passes if not p.traced) - 1)
        chosen = spec["per_layer"]
        print("note: bittide_sim.numerics is not timed on its own; its cost is inside "
              "graph.spectral, ode.simulate and analysis.*")
        print("note: ode.state_mb is computed as 8*rows*(2n+n+m) bytes, not measured")
    else:
        wall = scaled_pass([p for p in passes if not p.traced])
        setup_s = statistics.median(scaled for _, scaled in setup.samples)
        events = work[wl.work]
        print(f"pass time, unscaled: {describe(walls, 's')}")
        print(f"wall_s: {wall:.6g} s, the sum of each operation's median scaled time over "
              f"n={len(walls)} passes")
        print(f"setup time, unscaled: {describe([u for u, _ in setup.samples], 's')}")
        print(f"setup_s: {setup_s:.6g} s, the median scaled sample of n={len(setup.samples)}")
        print(f"events_per_s: {events} {wl.work_unit} per pass over wall_s")
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "events_per_s": events / wall if events else None,
            "peak_rss_mb": peak_rss_mb,
            **{k: accuracy.get(k) for k in ("frame_fluid_occ_dev", "l2_rel_gap",
                                            "settled_rate_bias")},
        }
        chosen = spec["end_to_end"]
    for k, v in sorted(wl.baseline.items()):
        print(f"baseline {k} = {v}")
    metrics = {}
    for m in chosen:
        value = values.get(m["name"])
        if value is None:
            problems.append(f"metric {m['name']} could not be measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value!r} {m['unit']}")
    for p in problems:
        print(f"problem: {p}")
    correct = not problems and not any(r.check_missed for r in all_ops)
    print(json.dumps({"correct": correct, "attempted": len(all_ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
