"""Event-driven simulation of the frame-exact synchronization model.

Each node runs a free oscillator whose phase advances piecewise-linearly;
a frame is sent on every outgoing link at each integer phase crossing, so
buffer occupancies are exact integer functions of two floored phases. The
controller samples its local buffers every meas_period local ticks and the
resulting correction takes effect actuation_delay local ticks later.

Measurement and actuation instants are defined by phase crossings, which on
linear segments invert in closed form; no numeric root-finding is involved,
so two runs of the same scenario produce identical event logs. The event
loop only schedules and handles measurements and holds; trace rows are
evaluated in bulk from the recorded phase histories after the loop ends.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .graph import OrientedGraph
from .ode import RUN_SIZE_CAP, Gains, ParameterError


class InadmissibleControlError(RuntimeError):
    """A correction pushed an oscillator outside its physical frequency range."""


class HistoryGapError(LookupError):
    """Phase queried at a time older than the recorded history."""


class TargetInPastError(ValueError):
    """Phase-crossing target lies before the start of the recorded history."""


class PhaseHistory:
    """Piecewise-linear clock phase record supporting delayed lookups.

    Breakpoints are (time, phase, slope) with the last segment extending
    forward indefinitely at its slope. Phase is continuous and strictly
    increasing; every slope exceeds the oscillator minimum by admissibility.
    """

    __slots__ = ("times", "phases", "slopes")

    def __init__(self, times, phases, slopes):
        self.times = list(times)
        self.phases = list(phases)
        self.slopes = list(slopes)

    @classmethod
    def initial(cls, theta0: float, prehistory_freq: float, startup_freq: float,
                epoch: float) -> "PhaseHistory":
        """History covering [epoch, 0] at the pre-history rate, then the startup rate."""
        return cls(
            times=[epoch, 0.0],
            phases=[theta0 + prehistory_freq * epoch, theta0],
            slopes=[prehistory_freq, startup_freq],
        )

    def _segment(self, t: float) -> int:
        if t < self.times[0]:
            raise HistoryGapError(
                f"time {t} precedes recorded history (starts at {self.times[0]})"
            )
        return bisect_right(self.times, t) - 1

    def phase_at(self, t: float) -> float:
        k = self._segment(t)
        return self.phases[k] + self.slopes[k] * (t - self.times[k])

    def slope_at(self, t: float) -> float:
        """Right-continuous slope: at a breakpoint, the new segment's rate."""
        return self.slopes[self._segment(t)]

    def next_crossing(self, target_phase: float) -> float:
        """Exact time at which the phase reaches target_phase.

        Linear inversion within the containing segment; phases at breakpoints
        are strictly increasing so the crossing is unique.
        """
        if target_phase < self.phases[0]:
            raise TargetInPastError(
                f"target phase {target_phase} precedes history start {self.phases[0]}"
            )
        k = bisect_right(self.phases, target_phase) - 1
        return self.times[k] + (target_phase - self.phases[k]) / self.slopes[k]

    def append_breakpoint(self, t: float, phase: float, slope: float) -> None:
        if t < self.times[-1]:
            raise ValueError(f"breakpoint time {t} precedes last segment {self.times[-1]}")
        self.times.append(t)
        self.phases.append(phase)
        self.slopes.append(slope)


@dataclass(frozen=True)
class AfmScenario:
    """Complete parameter set for a frame-exact run.

    Per-node sequences are ordered by node index; per-directed-link sequences
    follow OrientedGraph.directed_links() order (edge l forward at slot 2l,
    reverse at 2l+1). Phases are in ticks, time in seconds, frequencies in
    ticks/second; meas_period and actuation_delay are in local ticks.
    """

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
    epoch: float

    def __post_init__(self):
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
        if self.buffer_capacity <= 0 or self.buffer_capacity % 2 != 0:
            raise ParameterError("buffer_capacity", f"buffer_capacity must be a positive "
                                 f"even integer, got {self.buffer_capacity}")
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
        measurements = sum(self.uncorrected_freq) * self.t_end / self.meas_period
        if measurements > RUN_SIZE_CAP:
            raise ParameterError(
                "meas_period", f"about {measurements:.3g} measurements (sum of omega_u "
                f"* t_end / meas_period), above the run-size cap of {RUN_SIZE_CAP:.0e}")
        bound = -(max(self.latency, default=0.0) + self.actuation_delay / self.omega_min)
        if self.epoch >= 0 or self.epoch > bound:
            raise ParameterError(
                "epoch", f"epoch={self.epoch} violates epoch <= "
                f"-(max latency + actuation_delay/omega_min) = {bound}"
            )


@dataclass
class DiscreteControllerState:
    """Per-node controller memory between measurement events."""

    node: int
    integ: float = 0.0
    next_k: int = 0
    pending: list = field(default_factory=list)  # (k, correction), k ascending


@dataclass(frozen=True)
class AfmEvent:
    """One logged event: a measurement, a correction taking hold, or a buffer bound hit."""

    time: float
    node: int
    kind: str  # "measure" | "hold" | "overflow" | "underflow"
    k: int     # measurement index, or link index for buffer events
    value: float  # r for measure, correction for hold, occupancy for buffer events


@dataclass(frozen=True)
class AfmTrace:
    """Sampled run output: the uniform output grid plus every event instant.

    occupancy columns follow directed_links() order and are exact integers;
    freq is the active oscillator rate (right-continuous at events).
    """

    times: np.ndarray
    freq: np.ndarray
    occupancy: np.ndarray
    phase: np.ndarray
    events: tuple
    frame_offsets: tuple
    scenario: AfmScenario
    histories: tuple = ()  # populated only when keep_histories=True


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


def occupancy(hist_src: PhaseHistory, hist_dst: PhaseHistory, latency: float,
              frame_offset: int, t: float) -> int:
    """Exact integer buffer occupancy of a directed link at time t."""
    return (math.floor(hist_src.phase_at(t - latency))
            - math.floor(hist_dst.phase_at(t))
            + frame_offset)


def pi_controller_step(state: DiscreteControllerState, r: float,
                       scenario: AfmScenario) -> float:
    """One sampled PI update in the local-tick domain.

    The correction uses the pre-update integral state; the accumulator then
    advances by meas_period * r (rectangle rule over the p local ticks
    between measurements). Raises if the corrected rate leaves the
    oscillator's physical range.
    """
    g = scenario.gains
    c = g.k_p * r + g.k_i * g.omega_c * state.integ
    state.integ += scenario.meas_period * r
    w = c + scenario.uncorrected_freq[state.node]
    if w <= scenario.omega_min or w >= scenario.omega_max:
        raise InadmissibleControlError(
            f"node {state.node}: corrected rate {w} outside "
            f"({scenario.omega_min}, {scenario.omega_max}) after correction {c}"
        )
    return c


_MEASURE, _HOLD = 0, 1
_BOUND_KINDS = ("overflow", "underflow")


def simulate_afm(scenario: AfmScenario, keep_histories: bool = False) -> AfmTrace:
    """Run the frame-exact model to t_end.

    Events (measurements and correction holds) are processed in global time
    order; ties break by node index, measurements before holds. The event
    loop records each node's full phase history and the sample instants: the
    uniform output grid plus each event instant. Trace rows are evaluated from
    the recorded histories after the loop, with the same floating-point
    operations as PhaseHistory.phase_at/slope_at and occupancy(), so they
    equal the scalar lookups bit for bit.

    Buffer bound violations are logged and the run continues. The first
    overflow and the first underflow of each link are logged once each, at the
    earlier of two places: just before the measurement that saw it, or, for a
    hit in a sample row at time T, after every event at or before T. Hits at
    the same place are in ascending link order.
    """
    g = scenario.graph
    n = g.n
    links = g.directed_links()
    offsets = frame_offsets(scenario)
    in_links = [[] for _ in range(n)]
    for q, (_, dst) in enumerate(links):
        in_links[dst].append(q)

    hists = [
        PhaseHistory.initial(
            scenario.initial_phase[i], scenario.prehistory_freq[i],
            scenario.startup_freq[i], scenario.epoch,
        )
        for i in range(n)
    ]
    ctrl = [DiscreteControllerState(node=i) for i in range(n)]
    p = scenario.meas_period
    d = scenario.actuation_delay
    t_end = scenario.t_end
    cap = scenario.buffer_capacity

    # heap of (time, node, kind, seq); live[kind][node] is the seq of that
    # candidate's current entry, so an entry whose candidate was rescheduled
    # is stale and dropped when it reaches the top
    heap: list = []
    live = ([-1] * n, [-1] * n)
    seq = 0

    def schedule(i: int, kind: int, t: float) -> None:
        nonlocal seq
        seq += 1
        live[kind][i] = seq
        if t <= t_end:
            heapq.heappush(heap, (t, i, kind, seq))

    def drop_stale() -> None:
        while heap and live[heap[0][2]][heap[0][1]] != heap[0][3]:
            heapq.heappop(heap)

    for i in range(n):
        schedule(i, _MEASURE, hists[i].next_crossing(scenario.initial_phase[i]))

    sample_times: list[float] = []
    sample_at: list[int] = []  # len(events) when each sample was taken
    events: list[AfmEvent] = []
    # first overflow / underflow seen by a measurement: link -> index in events
    meas_hit: tuple[dict, dict] = ({}, {})

    def add_sample(t: float) -> None:
        if not sample_times or sample_times[-1] != t:
            sample_times.append(t)
            sample_at.append(len(events))

    grid_idx = 0

    def grid_time(j: int) -> float:
        return j * scenario.output_dt

    while True:
        drop_stale()
        if not heap:
            break
        t_evt, i, kind, _ = heapq.heappop(heap)
        live[kind][i] = -1
        while grid_time(grid_idx) < t_evt and grid_time(grid_idx) <= t_end:
            add_sample(grid_time(grid_idx))
            grid_idx += 1

        if kind == _MEASURE:
            k = ctrl[i].next_k
            r = 0
            for q in in_links[i]:
                src, dst = links[q]
                b = occupancy(hists[src], hists[dst], scenario.latency[q], offsets[q], t_evt)
                hit = 0 if b > cap else 1 if b < 0 else -1
                if hit >= 0 and q not in meas_hit[hit]:
                    meas_hit[hit][q] = len(events)
                    events.append(AfmEvent(t_evt, i, _BOUND_KINDS[hit], q, float(b)))
                r += b - scenario.initial_occupancy[q]
            try:
                c = pi_controller_step(ctrl[i], float(r), scenario)
            except InadmissibleControlError as exc:
                raise InadmissibleControlError(
                    f"t={t_evt}, measurement {k}: {exc}"
                ) from exc
            ctrl[i].pending.append((k, c))
            ctrl[i].next_k = k + 1
            events.append(AfmEvent(t_evt, i, "measure", k, float(r)))
            schedule(i, _MEASURE, hists[i].next_crossing(
                scenario.initial_phase[i] + ctrl[i].next_k * p
            ))
            if len(ctrl[i].pending) == 1:
                schedule(i, _HOLD, hists[i].next_crossing(
                    scenario.initial_phase[i] + k * p + d
                ))
        else:
            k, c = ctrl[i].pending.pop(0)
            target = scenario.initial_phase[i] + k * p + d
            hists[i].append_breakpoint(t_evt, target, c + scenario.uncorrected_freq[i])
            events.append(AfmEvent(t_evt, i, "hold", k, float(c)))
            # the slope changed: recompute this node's crossings
            schedule(i, _MEASURE, hists[i].next_crossing(
                scenario.initial_phase[i] + ctrl[i].next_k * p
            ))
            if ctrl[i].pending:
                schedule(i, _HOLD, hists[i].next_crossing(
                    scenario.initial_phase[i] + ctrl[i].pending[0][0] * p + d
                ))

        drop_stale()
        if not heap or heap[0][0] > t_evt:
            if grid_time(grid_idx) == t_evt:
                grid_idx += 1
            add_sample(t_evt)

    while grid_time(grid_idx) <= t_end:
        add_sample(grid_time(grid_idx))
        grid_idx += 1
    add_sample(t_end)

    times = np.array(sample_times)
    segments = [(np.array(h.times), np.array(h.phases), np.array(h.slopes)) for h in hists]
    freq = np.empty((times.shape[0], n))
    phase = np.empty_like(freq)
    for i, seg in enumerate(segments):
        freq[:, i], phase[:, i] = _phase_rows(seg, times)
    occ = np.empty((times.shape[0], len(links)), dtype=np.int64)
    floor_phase = np.floor(phase)
    for q, (src, dst) in enumerate(links):
        _, src_phase = _phase_rows(segments[src], times - scenario.latency[q])
        occ[:, q] = np.floor(src_phase) - floor_phase[:, dst] + offsets[q]

    return AfmTrace(
        times=times,
        freq=freq,
        occupancy=occ,
        phase=phase,
        events=_merge_sample_hits(events, meas_hit, occ, cap, times, sample_at, links),
        frame_offsets=offsets,
        scenario=scenario,
        histories=tuple(hists) if keep_histories else (),
    )


def _phase_rows(segments: tuple, t: np.ndarray) -> tuple:
    """(slope, phase) of one history's (times, phases, slopes) arrays at each of t.

    The segment search matches bisect_right and the arithmetic matches
    PhaseHistory.phase_at term for term, so every value equals the scalar
    lookup bit for bit.
    """
    bt, bp, bs = segments
    k = np.searchsorted(bt, t, side="right") - 1
    if t.shape[0] and k.min() < 0:
        raise HistoryGapError(f"time {t.min()} precedes recorded history (starts at {bt[0]})")
    s = bs[k]
    return s, bp[k] + s * (t - bt[k])


def _merge_sample_hits(events: list, meas_hit: tuple, occ: np.ndarray, cap: int,
                       times: np.ndarray, sample_at: list, links: list) -> tuple:
    """Insert the bound hits found in sample rows into the event log.

    A link's first hit of each kind is kept at whichever comes first: the
    measurement that saw it (already in events) or the first sample row that
    shows it, placed where that row was taken. The later of the two is dropped.
    """
    dropped = set()
    found = []  # (position in events, row, link, event)
    for kind, mask in enumerate((occ > cap, occ < 0)):
        first_rows = mask.argmax(axis=0)
        for q in np.flatnonzero(mask.any(axis=0)).tolist():
            row = int(first_rows[q])
            at = meas_hit[kind].get(q)
            if at is not None and at < sample_at[row]:
                continue
            if at is not None:
                dropped.add(at)
            found.append((sample_at[row], row, q, AfmEvent(
                float(times[row]), links[q][1], _BOUND_KINDS[kind], q, float(occ[row, q]))))
    if not found:
        return tuple(events)
    found.sort(key=lambda f: f[:3])
    merged = []
    j = 0
    for idx, ev in enumerate(events):
        while j < len(found) and found[j][0] <= idx:
            merged.append(found[j][3])
            j += 1
        if idx not in dropped:
            merged.append(ev)
    merged.extend(f[3] for f in found[j:])
    return tuple(merged)
