"""Outside-in spans and counters around the package's layer functions.

Nothing under ``src/`` is edited. The recorder replaces module attributes that
the package resolves by name at call time: the command functions and layer
functions ``bittide_sim.cli`` calls, and the functions the mesh ladder calls
through their defining modules. Every call is counted (so work counts are
known with tracing off); with tracing on, each call also becomes a span with a
name, start, end, parent and operation id. Spans stay in memory and are
written out when the benchmark ends.

``bittide_sim.numerics`` has no entry point that the CLI calls, so it gets no
span of its own: its cost sits inside ``graph.spectral``, ``ode.simulate`` and
the ``analysis.*`` spans.

Sweep workers started by ``sweep --jobs 2`` are child processes. Their calls
are not recorded; their time shows only inside the parent's ``cli.sweep`` span.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bittide_sim import afm, cli, scenario

# span name -> the (module, attribute) pairs it replaces
LAYER_FUNCTIONS = {
    "cli.main": [(cli, "main")],
    "cli.simulate": [(cli, "cmd_simulate")],
    "cli.compare": [(cli, "cmd_compare")],
    "cli.analyze": [(cli, "cmd_analyze")],
    "cli.sweep": [(cli, "cmd_sweep")],
    "afm.simulate": [(cli, "simulate_afm"), (afm, "simulate_afm")],
    "ode.simulate": [(cli, "simulate_ode")],
    "ode.build": [(cli, "build_full_system"), (cli, "build_reduced_system")],
    "scenario.load": [(cli, "load_scenario_dict"), (scenario, "load_scenario_dict")],
    "scenario.write_trace": [(cli, "write_trace"), (scenario, "write_trace")],
    "scenario.read_trace": [(scenario, "read_trace")],
    "scenario.compare": [(cli, "compare_traces")],
    "scenario.report": [(cli, "emit_report")],
    "graph.spectral": [(cli, "spectral_data")],
    "graph.resistance": [(cli, "resistance_matrix")],
    "analysis.performance": [(cli, "predicted_performance")],
    "analysis.hurwitz": [(cli, "hurwitz_check")],
    "analysis.lyapunov": [(cli, "build_lyapunov_certificate")],
    "analysis.empirical_norms": [(cli, "empirical_norms")],
    "analysis.worst_case": [(cli, "worst_case_frequency")],
}


def _afm_facts(args, trace):
    # keep references only; counting happens in settle(), outside the op's timer
    sc = trace.scenario
    return {"n": sc.graph.n, "events": trace.events, "times": trace.times,
            "output_dt": sc.output_dt, "t_end": sc.t_end}


def _ode_facts(args, trace):
    rows, n = trace.omega.shape
    return {"rows": rows, "n": n, "m": trace.delta.shape[1]}


def _written_facts(args, result):
    return {"path": Path(args[1])}


def _read_facts(args, result):
    return {"path": Path(args[0])}


def _settle_afm(facts):
    kinds = [ev.kind for ev in facts.pop("events")]
    times = facts.pop("times")
    dt, t_end = facts.pop("output_dt"), facts.pop("t_end")
    on_grid = (times == np.round(times / dt) * dt) | (times == t_end)
    facts.update(
        events_measure=kinds.count("measure"),
        events_hold=kinds.count("hold"),
        events_bound=kinds.count("overflow") + kinds.count("underflow"),
        samples=int(times.shape[0]),
        samples_event_instant=int(times.shape[0] - on_grid.sum()),
    )


def _settle_read(facts):
    facts["bytes"] = facts.pop("path").stat().st_size


def _settle_written(facts):
    events = scenario.events_path_for(facts["path"])
    _settle_read(facts)
    if events.exists():
        facts["bytes"] += events.stat().st_size


# span name -> (facts taken from the call's arguments and result,
#               what turns kept references into counts once the op has ended)
_FACTS = {
    "afm.simulate": (_afm_facts, _settle_afm),
    "ode.simulate": (_ode_facts, None),
    "scenario.write_trace": (_written_facts, _settle_written),
    "scenario.read_trace": (_read_facts, _settle_read),
}


@dataclass
class Call:
    """One recorded call; start and end stay None when tracing is off."""

    name: str
    op: int
    parent: int | None
    start: float | None = None
    end: float | None = None
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Counts every wrapped call and, while ``tracing`` is set, times it as a span."""

    def __init__(self):
        self.calls: list[Call] = []
        self.tracing = False
        self.op = -1
        self._stack: list[int] = []
        self._pending: list[tuple] = []  # (settle function, facts) per finished call
        self._saved = []

    def install(self) -> None:
        for name, targets in LAYER_FUNCTIONS.items():
            for module, attr in targets:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        facts, settle = _FACTS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            call = Call(name, self.op, self._stack[-1] if self._stack else None)
            index = len(self.calls)
            self.calls.append(call)
            self._stack.append(index)
            try:
                if self.tracing:
                    call.start = time.perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        call.end = time.perf_counter()
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
            if facts is not None:
                call.facts = facts(args, result)
            if settle is not None:
                self._pending.append((settle, call.facts))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, name: str) -> int:
        """Open the next operation and return its id.

        With tracing on, the operation is the root span ``op.<name>``.
        """
        self.op += 1
        call = Call(f"op.{name}", self.op, None)
        self._stack.append(len(self.calls))
        self.calls.append(call)
        if self.tracing:
            call.start = time.perf_counter()
        return self.op

    def end_op(self) -> None:
        call = self.calls[self._stack.pop()]
        if self.tracing:
            call.end = time.perf_counter()

    def settle(self) -> None:
        """Turn references kept during an operation into counts (run outside timers)."""
        for settle, facts in self._pending:
            settle(facts)
        self._pending.clear()

    def self_seconds(self) -> list[float | None]:
        """Each span's duration minus its children's; None for untimed calls."""
        own = [c.seconds if c.start is not None else None for c in self.calls]
        for c in self.calls:
            if c.start is not None and c.parent is not None and own[c.parent] is not None:
                own[c.parent] -= c.seconds
        return own

    def write_spans(self, path: Path) -> None:
        own = self.self_seconds()
        with path.open("w") as fh:
            for i, (c, s) in enumerate(zip(self.calls, own)):
                if c.start is None:
                    continue
                fh.write(json.dumps({
                    "id": i, "name": c.name, "op": c.op, "parent": c.parent,
                    "start": c.start, "end": c.end, "self": s,
                    "facts": c.facts,
                }) + "\n")
