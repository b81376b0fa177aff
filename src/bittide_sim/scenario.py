"""Scenario files, trace serialization, trace comparison, and report emission.

A scenario is a single JSON document with sections graph / frequencies /
controller / afm / run. Loading applies documented defaults, validates every
invariant with the offending field named, and yields the graph, the
frame-exact scenario, and the controller gains. Traces are delimited text
tables (one header row, full float precision) so any plotting tool can
consume them; event logs go to a companion table.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .afm import AfmScenario, AfmTrace
from .graph import OrientedGraph, complete, mesh, path
from .ode import Gains, OdeTrace, ParameterError


class ScenarioError(Exception):
    """Base for scenario loading problems."""


class ParseError(ScenarioError):
    """Scenario file is not a well-formed document."""


class ValidationError(ScenarioError):
    """A scenario field violates an invariant; names the field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class MissingFieldError(ValidationError):
    def __init__(self, field: str):
        super().__init__(field, "required field is missing")


class GridMismatchError(ValueError):
    """Trace comparison windows do not overlap."""


_DEFAULTS = {
    "afm.p": 1000.0,
    "afm.d": 0.0,
    "afm.latency": 0.0,
    "afm.beta_max": 128,
    "afm.theta0": 0.1,
    "afm.omega_min": 0.5,
    "afm.omega_max": 2.0,
    "run.t_end": 100000.0,
}

# AfmScenario and Gains fields -> the document field each is read from
_DOCUMENT_FIELDS = {
    "k_p": "controller.k_p",
    "k_i": "controller.k_i",
    "omega_c": "controller.omega_c",
    "uncorrected_freq": "frequencies.omega_u",
    "initial_phase": "afm.theta0",
    "startup_freq": "afm.omega_m1",
    "prehistory_freq": "afm.omega_m2",
    "initial_occupancy": "afm.beta0",
    "buffer_capacity": "afm.beta_max",
    "latency": "afm.latency",
    "meas_period": "afm.p",
    "actuation_delay": "afm.d",
    "omega_min": "afm.omega_min",
    "omega_max": "afm.omega_max",
    "epoch": "afm.epoch",
    "t_end": "run.t_end",
    "output_dt": "run.output_dt",
}


def field_error(exc: ParameterError) -> ValidationError:
    """The same error, naming the document field the parameter is read from."""
    return ValidationError(_DOCUMENT_FIELDS[exc.field], str(exc))


def _section(doc: dict, name: str, required: bool = True) -> dict:
    sec = doc.get(name)
    if sec is None:
        if required:
            raise MissingFieldError(name)
        return {}
    if not isinstance(sec, dict):
        raise ValidationError(name, f"expected a mapping, got {type(sec).__name__}")
    return sec


def _number(value, field: str) -> float:
    """A finite JSON number; null, bools, strings, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(field, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(field, f"expected a finite number, got {value!r}")
    return x


def _count(value, field: str) -> int:
    """A whole number, written as an integer or an integral float such as 3.0."""
    x = _number(value, field)
    if x != math.floor(x):
        raise ValidationError(field, f"expected a whole number, got {value!r}")
    return int(x)


def _build_graph(spec: dict) -> OrientedGraph:
    try:
        if "generator" in spec:
            kind = spec["generator"]
            if kind == "complete":
                return complete(_count(spec["n"], "graph.n"))
            if kind == "path":
                return path(_count(spec["n"], "graph.n"))
            if kind == "mesh":
                return mesh(_count(spec["rows"], "graph.rows"),
                            _count(spec["cols"], "graph.cols"))
            raise ValidationError("graph.generator", f"unknown generator {kind!r}")
        if "edges" in spec:
            edges = tuple(tuple(_count(v, f"graph.edges[{k}]") for v in e)
                          for k, e in enumerate(spec["edges"]))
            return OrientedGraph(_count(spec["n"], "graph.n"), edges)
    except KeyError as exc:
        raise MissingFieldError(f"graph.{exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError("graph", str(exc)) from exc
    raise ValidationError("graph", "need either a generator spec or an edge list")


def _per_entry(value, count: int, field: str, convert=_number) -> tuple:
    """One scalar for every entry, or a list of exactly count entries."""
    if not isinstance(value, (list, tuple)):
        return (convert(value, field),) * count
    if len(value) != count:
        raise ValidationError(field, f"expected {count} entries, got {len(value)}")
    return tuple(convert(v, f"{field}[{k}]") for k, v in enumerate(value))


def _build_frequencies(spec: dict, n: int) -> tuple:
    if "omega_u" in spec:
        return _per_entry(spec["omega_u"], n, "frequencies.omega_u")
    if "two_node" in spec:
        tn = spec["two_node"]
        if not isinstance(tn, dict):
            raise ValidationError("frequencies.two_node",
                                  f"expected a mapping, got {type(tn).__name__}")
        for key in ("i", "j", "alpha"):
            if key not in tn:
                raise MissingFieldError(f"frequencies.two_node.{key}")
        i = _count(tn["i"], "frequencies.two_node.i")
        j = _count(tn["j"], "frequencies.two_node.j")
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValidationError("frequencies.two_node",
                                  f"need two distinct node indices in [0,{n}), got ({i},{j})")
        base = _number(tn.get("base", 1.0), "frequencies.two_node.base")
        alpha = _number(tn["alpha"], "frequencies.two_node.alpha")
        freqs = [base] * n
        freqs[i] += alpha
        freqs[j] -= alpha
        return tuple(freqs)
    raise MissingFieldError("frequencies.omega_u")


def load_scenario_dict(doc: dict):
    """Validate a scenario document and build (graph, AfmScenario, Gains)."""
    graph = _build_graph(_section(doc, "graph"))
    n = graph.n
    n_links = 2 * graph.m

    omega_u = _build_frequencies(_section(doc, "frequencies"), n)

    ctrl = _section(doc, "controller")
    for key in ("k_p", "k_i"):
        if key not in ctrl:
            raise MissingFieldError(f"controller.{key}")
    try:
        gains = Gains(
            k_p=_number(ctrl["k_p"], "controller.k_p"),
            k_i=_number(ctrl["k_i"], "controller.k_i"),
            omega_c=_number(ctrl.get("omega_c", 1.0), "controller.omega_c"),
        )
    except ParameterError as exc:
        raise field_error(exc) from exc

    afm = _section(doc, "afm", required=False)
    run = _section(doc, "run", required=False)

    omega_min = _number(afm.get("omega_min", _DEFAULTS["afm.omega_min"]), "afm.omega_min")
    d = _number(afm.get("d", _DEFAULTS["afm.d"]), "afm.d")
    latency = _per_entry(afm.get("latency", _DEFAULTS["afm.latency"]),
                         n_links, "afm.latency")
    beta_max = _count(afm.get("beta_max", _DEFAULTS["afm.beta_max"]), "afm.beta_max")
    beta0 = _per_entry(afm.get("beta0", beta_max // 2), n_links, "afm.beta0", _count)
    delay_s = d / omega_min if omega_min > 0 else 0.0
    epoch_default = -(max(latency, default=0.0) + delay_s) - 1.0
    t_end = _number(run.get("t_end", _DEFAULTS["run.t_end"]), "run.t_end")
    output_dt = _number(run.get("output_dt", t_end / 400.0), "run.output_dt")

    try:
        scenario = AfmScenario(
            graph=graph,
            uncorrected_freq=omega_u,
            initial_phase=_per_entry(afm.get("theta0", _DEFAULTS["afm.theta0"]),
                                     n, "afm.theta0"),
            startup_freq=_per_entry(afm.get("omega_m1", list(omega_u)), n, "afm.omega_m1"),
            prehistory_freq=_per_entry(afm.get("omega_m2", list(omega_u)), n, "afm.omega_m2"),
            initial_occupancy=beta0,
            buffer_capacity=beta_max,
            latency=latency,
            meas_period=_number(afm.get("p", _DEFAULTS["afm.p"]), "afm.p"),
            actuation_delay=d,
            gains=gains,
            omega_min=omega_min,
            omega_max=_number(afm.get("omega_max", _DEFAULTS["afm.omega_max"]),
                              "afm.omega_max"),
            t_end=t_end,
            output_dt=output_dt,
            epoch=_number(afm.get("epoch", epoch_default), "afm.epoch"),
        )
    except ParameterError as exc:
        raise field_error(exc) from exc
    return graph, scenario, gains


def read_document(path_like, overrides=()) -> dict:
    """Parse a scenario file into a document and apply key=value overrides.

    OSError propagates; malformed JSON or a top level that is not a mapping
    raises ParseError.
    """
    p = Path(path_like)
    text = p.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{p}: top level must be a mapping")
    return apply_overrides(doc, overrides)


def load_scenario(path_like):
    """Load and validate a scenario file; returns (graph, AfmScenario, Gains)."""
    try:
        doc = read_document(path_like)
    except OSError as exc:
        raise ParseError(f"cannot read {path_like}: {exc}") from exc
    return load_scenario_dict(doc)


def scenario_to_dict(graph: OrientedGraph, scenario: AfmScenario, gains: Gains) -> dict:
    """Fully-resolved scenario document (all defaults materialized)."""
    return {
        "graph": {"n": graph.n, "edges": [list(e) for e in graph.edges]},
        "frequencies": {"omega_u": list(scenario.uncorrected_freq)},
        "controller": {"k_p": gains.k_p, "k_i": gains.k_i, "omega_c": gains.omega_c},
        "afm": {
            "p": scenario.meas_period,
            "d": scenario.actuation_delay,
            "latency": list(scenario.latency),
            "beta_max": scenario.buffer_capacity,
            "beta0": list(scenario.initial_occupancy),
            "theta0": list(scenario.initial_phase),
            "omega_m1": list(scenario.startup_freq),
            "omega_m2": list(scenario.prehistory_freq),
            "epoch": scenario.epoch,
            "omega_min": scenario.omega_min,
            "omega_max": scenario.omega_max,
        },
        "run": {"t_end": scenario.t_end, "output_dt": scenario.output_dt},
    }


def save_scenario(graph: OrientedGraph, scenario: AfmScenario, gains: Gains,
                  path_like) -> None:
    doc = scenario_to_dict(graph, scenario, gains)
    Path(path_like).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply key=value overrides onto a scenario document (dotted paths).

    Values parse as JSON when possible, else are kept as strings. The result
    passes through the same validation as a file would.
    """
    for item in assignments:
        if "=" not in item:
            raise ValidationError(item, "override must look like section.key=value")
        key_path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key_path.split(".")
        node = doc
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValidationError(key_path, f"{part} is not a section")
        node[parts[-1]] = value
    return doc


# ---------------------------------------------------------------------------
# Trace tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceTable:
    """Generic delimited trace: time column plus named signal columns."""

    columns: tuple
    times: np.ndarray
    values: np.ndarray


def _trace_table(trace) -> TraceTable:
    if isinstance(trace, TraceTable):
        return trace
    if isinstance(trace, AfmTrace):
        n = trace.freq.shape[1]
        n_links = trace.occupancy.shape[1]
        cols = tuple(f"omega_{i}" for i in range(n)) + tuple(
            f"beta_link{q}" for q in range(n_links)
        )
        values = np.hstack([trace.freq, trace.occupancy.astype(float)])
        return TraceTable(cols, trace.times, values)
    if isinstance(trace, OdeTrace):
        n = trace.omega.shape[1]
        m = trace.delta.shape[1]
        cols = tuple(f"omega_{i}" for i in range(n)) + tuple(
            f"delta_edge{l}" for l in range(m)
        )
        values = np.hstack([trace.omega, trace.delta])
        return TraceTable(cols, trace.times, values)
    raise TypeError(f"cannot serialize trace of type {type(trace).__name__}")


def events_path_for(path_like) -> Path:
    p = Path(path_like)
    return p.with_name(p.stem + "_events" + (p.suffix or ".csv"))


# cells per formatted block, so that wide tables get short blocks: a block's
# strings then stay in cache while its rows are assembled, and the text held
# in memory stays small; an event counts as four cells
_WRITE_BLOCK_CELLS = 16384


def write_trace(trace, path_like) -> None:
    """Write a trace as a delimited text table; events go to a companion file.

    Floats are written in shortest exact decimal form (``repr``), so reading
    the file back reproduces every sample bit-for-bit. Frame-model cells
    mostly repeat the cell above them, so each cell is formatted once per run
    of equal bit patterns down its column, and every row is assembled from
    those strings. Bits, not floats, are compared: ``-0.0 == 0.0`` would
    reuse the wrong text.
    """
    table = _trace_table(trace)
    p = Path(path_like)
    width = 1 + len(table.columns)
    rows = max(1, _WRITE_BLOCK_CELLS // width)
    with p.open("w") as fh:
        fh.write(",".join(("t",) + table.columns) + "\n")
        # the row above the current block: its bits, and its cells' text
        last_bits, last_text = None, np.full(width, "", dtype=object)
        for k in range(0, table.times.shape[0], rows):
            block = np.column_stack([table.times[k:k + rows], table.values[k:k + rows]])
            bits = block.view(np.uint64)
            changed = np.empty(bits.shape, dtype=bool)
            np.not_equal(bits[1:], bits[:-1], out=changed[1:])
            if last_bits is None:
                changed[0] = True
            else:
                np.not_equal(bits[0], last_bits, out=changed[0])
            # text pool: the row above at 0..width-1, then each changed cell
            pool = np.concatenate((last_text, np.array(
                list(map(repr, block[changed].tolist())), dtype=object)))
            where = np.zeros(bits.shape, dtype=np.intp)
            where[0] = np.arange(width)
            where[changed] = np.arange(width, pool.shape[0])
            # positions grow down each column, so a running max fills every
            # unchanged cell with the text of the last change above it
            np.maximum.accumulate(where, axis=0, out=where)
            cells = pool[where]
            fh.write("\n".join(map(",".join, cells.tolist())) + "\n")
            last_bits, last_text = bits[-1].copy(), cells[-1]
    if isinstance(trace, AfmTrace) and trace.events:
        per_write = _WRITE_BLOCK_CELLS // 4
        with events_path_for(p).open("w") as fh:
            fh.write("time,node,kind,value\n")
            for k in range(0, len(trace.events), per_write):
                fh.write("".join(f"{ev.time!r},{ev.node},{ev.kind},{ev.value!r}\n"
                                 for ev in trace.events[k:k + per_write]))


def read_trace(path_like) -> TraceTable:
    p = Path(path_like)
    with p.open() as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{p}: empty trace file")
        cols = header.split(",")
        if cols[0] != "t":
            raise ValueError(f"{p}: first column must be t, got {cols[0]!r}")
        # skip blank lines up to the first row: np.loadtxt warns on a body without data
        while True:
            body = fh.tell()
            line = fh.readline()
            if not line:
                return TraceTable(tuple(cols[1:]), np.zeros(0), np.zeros((0, len(cols) - 1)))
            if line.strip():
                break
        fh.seek(body)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(cols):
        raise ValueError(f"{p}: rows have {data.shape[1]} columns, header has {len(cols)}")
    return TraceTable(tuple(cols[1:]), data[:, 0], data[:, 1:])


# ---------------------------------------------------------------------------
# Trace comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Deviation of a frame-exact run from the fluid prediction.

    Occupancy comparison maps each edge's fluid offset onto the two directed
    links through the edge orientation: the buffer at the edge source gets
    beta0 + delta, the buffer at the target gets beta0 - delta.
    """

    freq_max_dev: np.ndarray
    freq_max_time: np.ndarray
    occ_max_dev: np.ndarray
    occ_max_time: np.ndarray
    freq_steady_dev: np.ndarray
    occ_steady_dev: np.ndarray
    max_freq_dev: float
    max_occ_dev: float
    n_samples: int
    freq_pass: bool | None = None
    occ_pass: bool | None = None


def compare_traces(afm_trace: AfmTrace, ode_trace: OdeTrace, beta0,
                   freq_tol: float | None = None,
                   occ_tol: float | None = None) -> ComparisonReport:
    """Compare a frame-exact trace with a fluid-model trace of the same scenario.

    The fluid trace is resampled onto the frame-exact output grid by linear
    interpolation over the overlapping time window.
    """
    t0 = max(afm_trace.times[0], ode_trace.times[0])
    t1 = min(afm_trace.times[-1], ode_trace.times[-1])
    if t1 <= t0:
        raise GridMismatchError(
            f"trace windows do not overlap: [{afm_trace.times[0]}, {afm_trace.times[-1]}]"
            f" vs [{ode_trace.times[0]}, {ode_trace.times[-1]}]"
        )
    mask = (afm_trace.times >= t0) & (afm_trace.times <= t1)
    times = afm_trace.times[mask]
    n = afm_trace.freq.shape[1]
    m = ode_trace.delta.shape[1]
    n_links = afm_trace.occupancy.shape[1]
    if n_links != 2 * m:
        raise GridMismatchError(
            f"traces disagree on topology: {n_links} directed links vs {m} edges"
        )
    beta0 = np.asarray(beta0, dtype=float)
    if beta0.ndim == 0:
        beta0 = np.full(n_links, float(beta0))

    omega_i = np.column_stack([
        np.interp(times, ode_trace.times, ode_trace.omega[:, i]) for i in range(n)
    ])
    delta_i = np.column_stack([
        np.interp(times, ode_trace.times, ode_trace.delta[:, l]) for l in range(m)
    ])
    freq_dev = afm_trace.freq[mask] - omega_i

    # directed link 2l runs source->target (buffer at target: beta0 - delta),
    # link 2l+1 runs target->source (buffer at source: beta0 + delta)
    predicted = np.empty((times.shape[0], n_links))
    for l in range(m):
        predicted[:, 2 * l] = beta0[2 * l] - delta_i[:, l]
        predicted[:, 2 * l + 1] = beta0[2 * l + 1] + delta_i[:, l]
    occ_dev = afm_trace.occupancy[mask].astype(float) - predicted

    abs_freq = np.abs(freq_dev)
    abs_occ = np.abs(occ_dev)
    freq_arg = np.argmax(abs_freq, axis=0)
    occ_arg = np.argmax(abs_occ, axis=0)
    report = ComparisonReport(
        freq_max_dev=abs_freq.max(axis=0),
        freq_max_time=times[freq_arg],
        occ_max_dev=abs_occ.max(axis=0),
        occ_max_time=times[occ_arg],
        freq_steady_dev=abs_freq[-1],
        occ_steady_dev=abs_occ[-1],
        max_freq_dev=float(abs_freq.max()),
        max_occ_dev=float(abs_occ.max()),
        n_samples=int(times.shape[0]),
        freq_pass=None if freq_tol is None else bool(abs_freq.max() <= freq_tol),
        occ_pass=None if occ_tol is None else bool(abs_occ.max() <= occ_tol),
    )
    return report


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _report_tree(report) -> dict:
    from .analysis import (HurwitzResult, LyapunovCertificate, PerformanceReport,
                           WorstCaseResult)

    if isinstance(report, PerformanceReport):
        return {
            "type": "performance",
            "freq_dev_norm_sq": report.freq_dev_norm_sq,
            "occupancy_norm_sq": report.occupancy_norm_sq,
            "quadratic_form": report.quadratic_form,
            "k_p": report.k_p,
            "integral_gain_scaled": report.integral_gain_scaled,
        }
    if isinstance(report, LyapunovCertificate):
        return {
            "type": "lyapunov_certificate",
            "residual1": report.residual1,
            "residual2": report.residual2,
            "residual_sum": report.residual_sum,
            "min_eig_x1": report.min_eig_x1,
            "min_eig_x2": report.min_eig_x2,
        }
    if isinstance(report, HurwitzResult):
        return {
            "type": "hurwitz",
            "is_hurwitz": report.is_hurwitz,
            "spectral_abscissa": report.spectral_abscissa,
        }
    if isinstance(report, WorstCaseResult):
        return {
            "type": "worst_case",
            "omega_u": [float(v) for v in report.omega_u],
            "attained_quadratic_form": report.attained_quadratic_form,
            "degenerate": report.degenerate,
        }
    if isinstance(report, ComparisonReport):
        return {
            "type": "comparison",
            "max_freq_dev": report.max_freq_dev,
            "max_occ_dev": report.max_occ_dev,
            "freq_steady_dev": [float(v) for v in report.freq_steady_dev],
            "occ_steady_dev": [float(v) for v in report.occ_steady_dev],
            "n_samples": report.n_samples,
            "freq_pass": report.freq_pass,
            "occ_pass": report.occ_pass,
        }
    if isinstance(report, dict):
        return report
    raise TypeError(f"cannot render report of type {type(report).__name__}")


def render_reports(reports) -> tuple:
    """Render reports to (text summary, structured tree).

    The tree preserves input order and serializes with sorted keys, so the
    structured file is stable and diffable across runs.
    """
    trees = [_report_tree(r) for r in reports]
    lines = []
    for tree in trees:
        kind = tree.get("type", "report")
        lines.append(f"[{kind}]")
        for key in sorted(k for k in tree if k != "type"):
            lines.append(f"  {key} = {tree[key]}")
    text = "\n".join(lines) + ("\n" if lines else "")
    return text, {"reports": trees}


def emit_report(reports, text_path=None, json_path=None) -> dict:
    """Emit reports as a human-readable summary and a structured JSON tree."""
    text, tree = render_reports(list(reports))
    if text_path is not None:
        Path(text_path).write_text(text)
    if json_path is not None:
        Path(json_path).write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n")
    return tree
