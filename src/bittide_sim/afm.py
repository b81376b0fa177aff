"""Event-driven simulation of the frame-exact synchronization model.

Each node runs a free oscillator whose phase advances piecewise-linearly;
a frame is sent on every outgoing link at each integer phase crossing, so
buffer occupancies are exact integer functions of two floored phases. The
controller samples its local buffers every meas_period local ticks and the
resulting correction takes effect actuation_delay local ticks later.

Measurement and actuation instants are defined by phase crossings, which on
linear segments invert in closed form; no numeric root-finding is involved,
so two runs of the same scenario produce identical event logs. The event
loop only schedules and handles measurements and holds; the row times and
rows are formed in bulk from the events and phase histories after it ends.
These are the package's only phase lookups; their scalar oracles (phase_at,
slope_at, next_crossing, occupancy), and that of the PI update
(pi_controller_step), live in tests/helpers.py.
"""

import heapq
import math
from bisect import bisect_right
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .graph import OrientedGraph
from .ode import CELL_CAP, RUN_SIZE_CAP, Gains, ParameterError


class InadmissibleControlError(RuntimeError):
    """A correction pushed an oscillator outside its physical frequency range."""


class PhaseHistory(NamedTuple):
    """Piecewise-linear clock phase record: three parallel breakpoint arrays.

    Segment k starts at (times[k], phases[k]) with rate slopes[k]; the last
    extends forward indefinitely. The first two breakpoints are both at
    (t = 0, theta0): segment 0, the pre-history, extends back without limit,
    so lookups search from breakpoint 1. Phase is continuous, bit for bit at
    each breakpoint, and strictly increasing; every slope exceeds the
    oscillator minimum by admissibility.
    """

    times: np.ndarray
    phases: np.ndarray
    slopes: np.ndarray


class _ScenarioFields(NamedTuple):
    graph: OrientedGraph
    uncorrected_freq: tuple
    initial_phase: tuple
    startup_freq: tuple
    prehistory_freq: tuple
    initial_occupancy: tuple
    buffer_capacity: int
    latency: tuple
    meas_period: float
    actuation_delay: float
    gains: Gains
    omega_min: float
    omega_max: float
    t_end: float
    output_dt: float


class AfmScenario(_ScenarioFields):
    """Parameter set for a frame-exact run, its values checked; simulate_afm sizes the run.

    Per-node sequences are ordered by node index; per-directed-link sequences
    follow OrientedGraph.directed_links() order (edge l forward at slot 2l,
    reverse at 2l+1). Phases are in ticks, time in seconds, frequencies in
    ticks/second; meas_period and actuation_delay are in local ticks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n = self.graph.n
        n_links = 2 * self.graph.m
        for name, want in (
            ("uncorrected_freq", n), ("initial_phase", n),
            ("startup_freq", n), ("prehistory_freq", n),
            ("initial_occupancy", n_links), ("latency", n_links),
        ):
            got = len(getattr(self, name))
            if got != want:
                raise ParameterError(name, f"{name}: expected {want} entries, got {got}")
        if self.omega_min <= 0:
            raise ParameterError("omega_min", f"omega_min must be > 0, got {self.omega_min}")
        if self.omega_max <= self.omega_min:
            raise ParameterError("omega_max", "omega_max must exceed omega_min")
        for i, th in enumerate(self.initial_phase):
            if th <= 0 or th == math.floor(th):
                raise ParameterError(
                    "initial_phase",
                    f"initial_phase[{i}] must be positive and non-integer, got {th}")
        for name in ("startup_freq", "prehistory_freq"):
            for i, w in enumerate(getattr(self, name)):
                if w <= self.omega_min:
                    raise ParameterError(
                        name, f"{name}[{i}]={w} must exceed omega_min={self.omega_min}")
        # traces write occupancies as float64, exact only up to 2**53 frames
        if not 0 < self.buffer_capacity <= 2**53 or self.buffer_capacity % 2 != 0:
            raise ParameterError("buffer_capacity", f"buffer_capacity must be a positive even "
                                 f"integer at most 2**53, got {self.buffer_capacity}")
        for q, b0 in enumerate(self.initial_occupancy):
            if not (0 <= b0 <= self.buffer_capacity):
                raise ParameterError("initial_occupancy", f"initial_occupancy[{q}]={b0} "
                                     f"outside [0, {self.buffer_capacity}]")
        for q, l in enumerate(self.latency):
            if l < 0:
                raise ParameterError("latency", f"latency[{q}] must be >= 0, got {l}")
        if self.meas_period <= 0:
            raise ParameterError("meas_period",
                                 f"meas_period must be > 0, got {self.meas_period}")
        if self.actuation_delay < 0:
            raise ParameterError("actuation_delay",
                                 f"actuation_delay must be >= 0, got {self.actuation_delay}")
        if self.t_end <= 0:
            raise ParameterError("t_end", f"t_end must be > 0, got {self.t_end}")
        if self.output_dt <= 0:
            raise ParameterError("output_dt", f"output_dt must be > 0, got {self.output_dt}")
        rows = self.t_end / self.output_dt
        if rows > RUN_SIZE_CAP:
            raise ParameterError("output_dt", f"t_end/output_dt = {rows:.3g} trace rows, "
                                 f"above the run-size cap of {RUN_SIZE_CAP:.0e}")
        total_freq = sum(self.uncorrected_freq)
        if not math.isfinite(total_freq):
            raise ParameterError("uncorrected_freq", f"the sum of omega_u is {total_freq}, "
                                 "outside the float range")
        # floored phases, and so occupancies, are exact only up to 2**53 ticks
        for q, (src, _) in enumerate(self.graph.directed_links()):
            pre = self.prehistory_freq[src] * self.latency[q]
            if not pre <= 2**53:
                raise ParameterError("latency", f"latency[{q}] reaches {pre:.3g} ticks "
                                     "into its source's pre-history, past 2**53")
        return self

    @classmethod
    def _make(cls, iterable):  # through __new__, so _replace checks too
        return cls(*iterable)


class AfmEvent(NamedTuple):
    """One logged event: a measurement, a correction taking hold, or a buffer bound hit."""

    time: float
    node: int
    kind: str  # "measure" | "hold" | "overflow" | "underflow"
    k: int     # measurement index, or link index for buffer events
    value: float  # r for measure, correction for hold, occupancy for buffer events


class AfmTrace(NamedTuple):
    """Sampled run output: the uniform output grid plus every event instant.

    occupancy columns follow directed_links() order and are exact integers;
    freq is the active oscillator rate (right-continuous at events);
    histories holds each node's full PhaseHistory, the breakpoint arrays
    from which a phase at or between rows can be read. freq and occupancy
    are indexed (row, column) but are transposed views of node-major and
    link-major arrays, so each node's and each link's column is contiguous.
    events is the log in time order, and each event's time is, bit for bit,
    the time of a row; write_trace refuses a log that breaks either rule.
    """

    times: np.ndarray
    freq: np.ndarray
    occupancy: np.ndarray
    events: tuple
    scenario: AfmScenario
    histories: tuple


def frame_offsets(scenario: AfmScenario) -> tuple:
    """Integer constants aligning floored phases with the initial occupancies.

    For link (j -> i): offset = beta0 - floor(theta_j(-latency)) + floor(theta_i(0)),
    which makes the occupancy at t=0 equal beta0 exactly.
    """
    offs = []
    links = scenario.graph.directed_links()
    for q, (src, dst) in enumerate(links):
        th_src = (scenario.initial_phase[src]
                  - scenario.prehistory_freq[src] * scenario.latency[q])
        offs.append(
            int(scenario.initial_occupancy[q])
            - math.floor(th_src)
            + math.floor(scenario.initial_phase[dst])
        )
    return tuple(offs)


_MEASURE, _HOLD = 0, 1


def simulate_afm(scenario: AfmScenario) -> AfmTrace:
    """Run the frame-exact model to t_end.

    Events (measurements and correction holds) are processed in global time
    order; ties break by node index, measurements before holds. The event
    loop records each node's full phase history and the events. After it, the
    row times (the output grid k*output_dt <= t_end, every event time and t_end)
    are formed, and rows evaluated from the histories by _phase_rows with the same
    floating-point operations as the scalar oracles phase_at/slope_at and
    occupancy in tests/helpers.py, so they equal those lookups bit for bit.

    Buffer bound violations are logged and the run continues. Each link's
    first overflow and first underflow are logged once each, at the first row
    that shows them: a hit in a row at time T comes after every event at or
    before T, and hits are in (row, link) order. Raises ParameterError before the
    first event if the run passes the measurement ("meas_period") or cell ("t_end")
    cap, and ("t_end") after the loop if a phase passes 2**53 ticks by t_end.
    """
    g = scenario.graph
    n = g.n
    links = g.directed_links()
    p, d = scenario.meas_period, scenario.actuation_delay
    t_end, dt = scenario.t_end, scenario.output_dt
    # a node runs at omega_m1 until its first correction holds, at phase theta0 + d
    measurements = sum(w * t_end + min(w1 * t_end, d) for w, w1 in
                       zip(scenario.uncorrected_freq, scenario.startup_freq)) / p
    if measurements > RUN_SIZE_CAP:
        raise ParameterError("meas_period", f"about {measurements:.3g} measurements (sum of "
                             "omega_u * t_end + min(omega_m1 * t_end, d), over meas_period), "
                             f"above the run-size cap of {RUN_SIZE_CAP:.0e}")
    cells = (t_end / dt + 1 + 2 * measurements) * (n + len(links))
    if cells > CELL_CAP:
        raise ParameterError("t_end", f"about {cells:.3g} trace cells ((t_end/output_dt + 1 + 2 "
                             f"* measurements) * (n + 2m)), above the cell cap of {CELL_CAP:.0e}")
    offsets = frame_offsets(scenario)
    # per receiver: (source, latency, frame offset, initial occupancy)
    in_links = [[] for _ in range(n)]
    for q, (src, dst) in enumerate(links):
        in_links[dst].append((src, scenario.latency[q], offsets[q],
                              scenario.initial_occupancy[q]))

    # each node's breakpoint lists; both first breakpoints are at (0, theta0)
    h_times = [[0.0, 0.0] for _ in range(n)]
    h_phases = [[th, th] for th in scenario.initial_phase]
    h_slopes = [list(w) for w in zip(scenario.prehistory_freq, scenario.startup_freq)]
    # controller memory per node: PI integrator, next measurement index, and the
    # (k, correction) pairs measured but not yet held, k ascending
    integ = [0.0] * n
    next_k = [0] * n
    pending = [[] for _ in range(n)]
    omega_u = scenario.uncorrected_freq
    omega_min, omega_max = scenario.omega_min, scenario.omega_max
    k_p = scenario.gains.k_p
    k_ic = scenario.gains.k_i * scenario.gains.omega_c
    theta0 = scenario.initial_phase

    # No crossing target lies below its node's last breakpoint phase, so crossings
    # use the last segment. No heap entry is ever stale: a measurement that crosses
    # strictly after its node's scheduled hold is left for the hold to reschedule.
    heap = [(0.0, i, _MEASURE) for i in range(n)]  # phase theta0 at t = 0; sorted
    hold_at = [math.inf] * n  # crossing time of each node's scheduled hold
    events: list[AfmEvent] = []

    while heap:
        t_evt, i, kind = heapq.heappop(heap)
        ts, ps, ss = h_times[i], h_phases[i], h_slopes[i]
        if kind == _MEASURE:
            k = next_k[i]
            floor_dst = math.floor(ps[-1] + ss[-1] * (t_evt - ts[-1]))
            r = 0
            for src, lat, off, b0 in in_links[i]:
                x = t_evt - lat
                src_t = h_times[src]
                j = len(src_t) - 1 if x >= src_t[-1] else bisect_right(src_t, x, 1) - 1
                r += (math.floor(h_phases[src][j] + h_slopes[src][j] * (x - src_t[j]))
                      - floor_dst + off) - b0
            r = float(r)
            # sampled PI in local ticks: the correction uses the integral before
            # this measurement, which then adds p * r (rectangle rule)
            c = k_p * r + k_ic * integ[i]
            integ[i] += p * r
            w = c + omega_u[i]
            if w <= omega_min or w >= omega_max:
                raise InadmissibleControlError(
                    f"t={t_evt}, measurement {k}: node {i}: corrected rate {w} outside "
                    f"({omega_min}, {omega_max}) after correction {c}")
            pending[i].append((k, c))
            next_k[i] = k + 1
            events.append(AfmEvent(t_evt, i, "measure", k, r))
        else:
            k, c = pending[i].pop(0)
            ps.append(ps[-1] + ss[-1] * (t_evt - ts[-1]))  # on the segment it ends
            ts.append(t_evt)
            ss.append(c + omega_u[i])
            events.append(AfmEvent(t_evt, i, "hold", k, float(c)))
            hold_at[i] = math.inf
        if pending[i] and hold_at[i] == math.inf:
            t_hold = hold_at[i] = ts[-1] + (theta0[i] + pending[i][0][0] * p + d - ps[-1]) / ss[-1]
            if t_hold <= t_end:
                heapq.heappush(heap, (t_hold, i, _HOLD))
        t_meas = ts[-1] + (theta0[i] + next_k[i] * p - ps[-1]) / ss[-1]
        if t_meas <= hold_at[i] and t_meas <= t_end:
            heapq.heappush(heap, (t_meas, i, _MEASURE))

    hists = tuple(PhaseHistory(*map(np.array, h)) for h in zip(h_times, h_phases, h_slopes))
    # phases only rise, and floored phases (so occupancies) are exact up to 2**53 ticks
    top = max(h.phases[-1] + h.slopes[-1] * (t_end - h.times[-1]) for h in hists)
    if not top <= 2**53:
        raise ParameterError("t_end", f"phases reach {top:.3g} ticks by t_end, past 2**53")
    # the grid k*dt <= t_end (t_end/dt is at most one off its last k), then the event
    # times and t_end off it, each once, in order; np.unique would load numpy.ma (0.8 MB)
    times = np.arange(math.floor(t_end / dt) + 2, dtype=np.float64)
    times *= dt
    times = times[:np.searchsorted(times, t_end, side="right")]
    extra = np.array([*map(attrgetter("time"), events), t_end])  # sorted
    at, past = np.searchsorted(times, extra), np.searchsorted(times, extra, side="right")
    new = (at == past) & (extra != np.append(extra[1:], math.inf))  # off grid, last copy
    times = np.insert(times, at[new], extra[new])
    # node-major and link-major: each node and each link fills one contiguous row
    freq = np.empty((n, times.shape[0]))
    # floored phases in int64, so occupancies up to the 2**53 cap are exact
    floor_phase = np.empty(freq.shape, dtype=np.int64)
    for i in range(n):
        freq[i], phase = _phase_rows(hists[i], times)
        floor_phase[i] = np.floor(phase, out=phase)
    del phase  # one row fewer held while the link rows are formed
    # links that share a source and a latency read one row of floored phases
    by_source = {}
    for q, (src, _) in enumerate(links):
        by_source.setdefault((src, scenario.latency[q]), []).append(q)
    occ = np.empty((len(links), times.shape[0]), dtype=np.int64)
    for (src, lat), qs in by_source.items():
        src_floor = np.floor(_phase_rows(hists[src], times - lat)[1]).astype(np.int64)
        for q in qs:
            occ[q] = src_floor - floor_phase[links[q][1]] + offsets[q]
    freq, occ = freq.T, occ.T

    return AfmTrace(
        times=times,
        freq=freq,
        occupancy=occ,
        events=_insert_row_hits(events, occ, scenario.buffer_capacity, times, links),
        scenario=scenario,
        histories=hists,
    )


def _phase_rows(h: PhaseHistory, t: np.ndarray) -> tuple:
    """(slope, phase) of one history at each of t.

    The segment search matches bisect_right from breakpoint 1 and the
    arithmetic matches the scalar oracle phase_at in tests/helpers.py term for
    term, so every value equals that lookup bit for bit.
    """
    k = np.searchsorted(h.times[1:], t, side="right")
    s = h.slopes[k]
    return s, h.phases[k] + s * (t - h.times[k])


def _insert_row_hits(events: list, occ: np.ndarray, cap: int, times: np.ndarray,
                     links: list) -> tuple:
    """Insert each link's first overflow and first underflow into the event log.

    Each hit goes at the first row that shows it, after every event at that
    row's time or before; hits are in (row, link) order.
    """
    hits = []  # (row, link, event)
    for kind, mask in (("overflow", occ > cap), ("underflow", occ < 0)):
        first_rows = mask.argmax(axis=0)
        for q in np.flatnonzero(mask.any(axis=0)).tolist():
            row = int(first_rows[q])
            hits.append((row, q, AfmEvent(float(times[row]), links[q][1], kind,
                                          q, float(occ[row, q]))))
    if not hits:
        return tuple(events)
    hits.sort(key=lambda h: h[:2])
    # on equal times merge takes from its first input first: hits follow events
    return tuple(heapq.merge(events, (hit for _, _, hit in hits), key=attrgetter("time")))
