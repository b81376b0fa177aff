"""Scenario files, trace serialization, trace comparison, and report emission.

A scenario is a single JSON document with sections graph / frequencies /
controller / afm / run. Loading applies documented defaults, validates every
invariant with the offending field named, and yields the graph, the
frame-exact scenario, and the controller gains. Traces are delimited text
tables (one header row, full float precision) so any plotting tool can
consume them; event logs go to a companion table.
"""

import io
import json
import math
import numbers
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .afm import AfmScenario, AfmTrace
from .graph import OrientedGraph, complete, mesh, path
from .ode import RUN_SIZE_CAP, Gains, OdeTrace, ParameterError


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


def check_keys(doc: dict, section: str = "") -> None:
    """Refuse keys their section does not hold; sections must be mappings, values not.

    A misspelled key would otherwise be ignored, and the field it meant would
    silently keep its value or default; so would a key of another form of its
    section, such as graph.n beside a mesh generator's rows and cols.
    """
    keys, form = _KEYS[section], None
    if isinstance(keys, dict):
        name = doc.get("generator", next((k for k in doc if k in keys), None))
        form = next((ks for f, ks in keys.items() if f == name), None)
        keys = tuple(dict.fromkeys(k for ks in keys.values() for k in ks))
    for key, value in doc.items():
        path = f"{section}.{key}" if section else key
        if key not in keys:
            raise ValidationError(path, "unknown key, expected one of " + ", ".join(keys))
        if path in _KEYS:
            if not isinstance(value, dict):
                raise ValidationError(path, f"expected a mapping, got {type(value).__name__}")
            check_keys(value, path)
        elif isinstance(value, dict):
            raise ValidationError(path, "expected a value, got a mapping")
        if form is not None and key not in form:
            raise ValidationError(path, f"not held by the {name!r} form of {section}, "
                                        "which holds only " + ", ".join(form))


def _section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise MissingFieldError(name)
    return doc[name]


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


def _check_graph_size(field: str, n: int, m: int) -> None:
    """Refuse a graph whose dense n x m incidence matrix would pass the run-size cap."""
    if n > 0 and m > 0 and n * m > RUN_SIZE_CAP:
        from decimal import Decimal  # formats ints past the float range; only loaded here
        n, m, nm = map(Decimal, (n, m, n * m))
        raise ValidationError(field, f"{n:.3g} nodes and {m:.3g} edges: n*m = {nm:.3g}, "
                                     f"above the run-size cap of {RUN_SIZE_CAP:.0e}")


def _build_graph(spec: dict) -> OrientedGraph:
    """The graph of a document's graph section, sized against the cap before it is built."""
    try:
        kind = spec.get("generator")
        if kind in ("complete", "path"):
            n = _count(spec["n"], "graph.n")
            _check_graph_size("graph.n", n, n * (n - 1) // 2 if kind == "complete" else n - 1)
            graph = (complete if kind == "complete" else path)(n)
        elif kind == "mesh":
            rows, cols = _count(spec["rows"], "graph.rows"), _count(spec["cols"], "graph.cols")
            if min(rows, cols) > 0:  # else mesh() refuses the sides
                _check_graph_size("graph.rows", rows * cols, rows * (cols - 1) + cols * (rows - 1))
            graph = mesh(rows, cols)
        elif "generator" in spec:
            raise ValidationError("graph.generator", f"unknown generator {kind!r}")
        elif "edges" in spec:
            n = _count(spec["n"], "graph.n")
            _check_graph_size("graph.n", n, len(spec["edges"]))
            edges = tuple(tuple(_count(v, f"graph.edges[{k}]") for v in e)
                          for k, e in enumerate(spec["edges"]))
            graph = OrientedGraph(n, edges)
        else:
            raise ValidationError("graph", "need either a generator spec or an edge list")
    except KeyError as exc:
        raise MissingFieldError(f"graph.{exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError("graph", str(exc)) from exc
    if graph.m < graph.n - 1 or not graph.is_connected():  # no union-find on too few edges
        raise ValidationError("graph", f"not connected: {graph.m} edges do not join "
                                       f"all {graph.n} nodes")
    return graph


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


def _omega_u(values: dict) -> tuple:
    return values["uncorrected_freq"]


# every field of controller, afm and run, in document order: its path, the Gains
# or AfmScenario field it fills, its reader, "node" or "link" if it holds one
# value per node or per directed link, and its default (None if required). A
# callable default is computed from the values read before it
_FIELDS = (
    ("controller.k_p", "k_p", _number, None, None),
    ("controller.k_i", "k_i", _number, None, None),
    ("controller.omega_c", "omega_c", _number, None, 1.0),
    ("afm.p", "meas_period", _number, None, 1000.0),
    ("afm.d", "actuation_delay", _number, None, 0.0),
    ("afm.latency", "latency", _number, "link", 0.0),
    ("afm.beta_max", "buffer_capacity", _count, None, 128),
    ("afm.beta0", "initial_occupancy", _count, "link", lambda v: v["buffer_capacity"] // 2),
    ("afm.theta0", "initial_phase", _number, "node", 0.1),
    ("afm.omega_m1", "startup_freq", _number, "node", _omega_u),
    ("afm.omega_m2", "prehistory_freq", _number, "node", _omega_u),
    ("afm.omega_min", "omega_min", _number, None, 0.5),
    ("afm.omega_max", "omega_max", _number, None, 2.0),
    ("run.t_end", "t_end", _number, None, 100000.0),
    ("run.output_dt", "output_dt", _number, None, lambda v: v["t_end"] / 400.0),
)

# the keys each section of a document may hold; "" is the top level, and a
# dotted name is a section inside a section. A section given in one of several
# forms maps each form to its keys: the form is the value of its generator
# key, else the first of its keys that names a form
_KEYS = {
    "": ("graph", "frequencies", "controller", "afm", "run"),
    "graph": {"complete": ("generator", "n"), "path": ("generator", "n"),
              "mesh": ("generator", "rows", "cols"), "edges": ("n", "edges")},
    "frequencies": {"omega_u": ("omega_u",), "two_node": ("two_node",)},
    "frequencies.two_node": ("i", "j", "alpha", "base"),
}
for _path, *_ in _FIELDS:  # the keys of controller, afm and run
    _name, _, _key = _path.partition(".")
    _KEYS[_name] = _KEYS.get(_name, ()) + (_key,)
# AfmScenario and Gains fields -> the document field each is read from
_DOCUMENT_FIELDS = {"uncorrected_freq": "frequencies.omega_u",
                    **{name: path for path, name, *_ in _FIELDS}}


def field_error(exc: ParameterError) -> ValidationError:
    """The same error, naming the document field the parameter is read from."""
    return ValidationError(_DOCUMENT_FIELDS[exc.field], str(exc))


def load_scenario_dict(doc: dict):
    """Validate a scenario document and build (graph, AfmScenario, Gains).

    Every field's type is checked, in document order, before any range rule.
    """
    check_keys(doc)
    graph = _build_graph(_section(doc, "graph"))
    values = {"uncorrected_freq": _build_frequencies(_section(doc, "frequencies"), graph.n)}
    counts = {"node": graph.n, "link": 2 * graph.m}
    borrowed = {}  # absent fields that took frequencies.omega_u -> their paths
    for path, name, read, per, default in _FIELDS:
        section, _, key = path.partition(".")
        if key in doc.get(section, {}):
            value = doc[section][key]
        elif default is None:
            raise MissingFieldError(path if section in doc else section)
        else:
            value = default(values) if callable(default) else default
            if default is _omega_u:
                borrowed[name] = path
        values[name] = (read(value, path) if per is None
                        else _per_entry(value, counts[per], path, read))
    try:
        gains = Gains(**{name: values.pop(name) for name in Gains._fields})
        scenario = AfmScenario(graph=graph, gains=gains, **values)
    except ParameterError as exc:
        if exc.field in borrowed:
            raise ValidationError("frequencies.omega_u", f"{exc} ({borrowed[exc.field]} is "
                                  "absent, so it takes frequencies.omega_u)") from exc
        raise field_error(exc) from exc
    return graph, scenario, gains


def read_document(path_like, overrides=()) -> dict:
    """Parse a scenario file into a document and apply key=value overrides.

    OSError propagates; text that is not UTF-8, malformed or too deeply nested
    JSON, an integer past the digit limit or a top level that is not a mapping
    raises ParseError.
    """
    p = Path(path_like)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
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


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply key=value overrides onto a scenario document (dotted paths).

    Values parse as JSON when possible, else are kept as strings; a value past
    the decoder's digit or nesting limit raises ValidationError. The result
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
        except (ValueError, RecursionError) as exc:  # digit limit or nesting depth
            raise ValidationError(key_path, str(exc)) from exc
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

class TraceTable(NamedTuple):
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
# in memory stays small
_WRITE_BLOCK_CELLS = 16384


def write_trace(trace, path_like) -> None:
    """Write a trace as a delimited text table; events go to a companion file.

    Floats are written in shortest exact decimal form (``repr``), so reading
    the file back reproduces every sample bit-for-bit. Frame-model cells
    mostly repeat the cell above them, so each cell is formatted once per run
    of equal bit patterns down its column, and every row is assembled from
    those strings. Bits, not floats, are compared: ``-0.0 == 0.0`` would
    reuse the wrong text. An event log that breaks the AfmTrace contract
    raises ValueError before either file is created; else each event is
    written with its row's block, its time in the text of its row. Values
    are printed as Python floats, so numpy scalars write their floats' text.
    """
    table = _trace_table(trace)
    events = trace.events if isinstance(trace, AfmTrace) else ()
    p = Path(path_like)
    ev_time = np.array([ev.time for ev in events], dtype=float)
    ev_row = np.searchsorted(table.times, ev_time)
    if not (np.all(ev_time[1:] >= ev_time[:-1]) and np.all(ev_row < table.times.shape[0])
            and np.array_equal(table.times[ev_row].view(np.uint64), ev_time.view(np.uint64))):
        raise ValueError(f"{p}: events must be in time order, each at the time of a row")
    width = 1 + len(table.columns)
    rows = max(1, _WRITE_BLOCK_CELLS // width)
    # a log without events writes no events file
    with p.open("w") as fh, (events_path_for(p).open("w") if events
                             else io.StringIO()) as ev_fh:
        fh.write(",".join(("t",) + table.columns) + "\n")
        ev_fh.write("time,node,kind,value\n")
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
            lo, hi = np.searchsorted(ev_row, (k, k + bits.shape[0]))
            ev_fh.write("".join(f"{t},{ev.node},{ev.kind},{float(ev.value)!r}\n"
                                for t, ev in zip(cells[ev_row[lo:hi] - k, 0].tolist(),
                                                 events[lo:hi])))


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

class ComparisonReport(NamedTuple):
    """Deviation of a frame-exact run from the fluid prediction.

    Occupancy comparison maps each edge's fluid offset onto the two directed
    links through the edge orientation: the buffer at the edge source gets
    beta0 + delta, the buffer at the target gets beta0 - delta, with beta0
    the link's initial occupancy.
    """

    kind = "comparison"
    freq_steady_dev: np.ndarray
    occ_steady_dev: np.ndarray
    max_freq_dev: float
    max_occ_dev: float
    n_samples: int


def compare_traces(afm_trace: AfmTrace, ode_trace: OdeTrace) -> ComparisonReport:
    """Compare a frame-exact trace with a fluid-model trace of the same scenario.

    Both traces span [0, t_end]; the fluid trace is resampled onto every
    frame-exact row time by linear interpolation. Each link's beta0 is its
    initial occupancy in the frame-exact trace's scenario.
    """
    times = afm_trace.times
    beta0 = np.asarray(afm_trace.scenario.initial_occupancy, dtype=float)

    omega_i = np.column_stack([np.interp(times, ode_trace.times, y) for y in ode_trace.omega.T])
    delta_i = np.column_stack([np.interp(times, ode_trace.times, y) for y in ode_trace.delta.T])
    freq_dev = afm_trace.freq - omega_i

    # directed link 2l runs source->target (buffer at target: beta0 - delta),
    # link 2l+1 runs target->source (buffer at source: beta0 + delta)
    predicted = np.empty(afm_trace.occupancy.shape)
    predicted[:, 0::2] = beta0[0::2] - delta_i
    predicted[:, 1::2] = beta0[1::2] + delta_i
    occ_dev = afm_trace.occupancy.astype(float) - predicted

    abs_freq = np.abs(freq_dev)
    abs_occ = np.abs(occ_dev)
    return ComparisonReport(
        freq_steady_dev=abs_freq[-1],
        occ_steady_dev=abs_occ[-1],
        max_freq_dev=float(abs_freq.max()),
        max_occ_dev=float(abs_occ.max()),
        n_samples=int(times.shape[0]),
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _report_tree(report) -> dict:
    """A report as {"type": kind, field: value, ...}, with arrays as lists.

    Reports the CLI builds itself are plain dicts and pass through unchanged.
    """
    if isinstance(report, dict):
        return report
    tree = {"type": report.kind}
    for name, value in report._asdict().items():
        tree[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return tree


def emit_report(reports, text_path, json_path) -> dict:
    """Write reports as a human-readable summary and a structured JSON tree; return the tree.

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
    Path(text_path).write_text("\n".join(lines) + ("\n" if lines else ""))
    tree = {"reports": trees}
    Path(json_path).write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n")
    return tree
