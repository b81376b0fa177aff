"""Symmetries of the frame and fluid models that hold bit for bit."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from bittide_sim.afm import simulate_afm
from bittide_sim.cli import _fluid_trace
from bittide_sim.scenario import load_scenario_dict

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
NAMES = ["triangle_pi", "mesh_close_pair", "mesh_far_pair"]


def time_scaled(doc: dict, c: float) -> dict:
    """The document with every rate multiplied by c and every time divided by c.

    Phases, measurement periods and delays are in local ticks, so they keep their values.
    """
    doc = copy.deepcopy(doc)
    freqs = doc["frequencies"]
    if "omega_u" in freqs:
        freqs["omega_u"] = [w * c for w in freqs["omega_u"]]
    else:
        for key in ("base", "alpha"):
            freqs["two_node"][key] *= c
    for section, keys in (("controller", ("k_p", "k_i")), ("afm", ("omega_min", "omega_max"))):
        for key in keys:
            doc[section][key] *= c
    for section, key in (("afm", "latency"), ("run", "t_end"), ("run", "output_dt")):
        doc[section][key] /= c
    return doc


@pytest.mark.parametrize("c", [2.0, 0.25, 1024.0])
@pytest.mark.parametrize("name", NAMES)
def test_frame_model_is_invariant_under_time_scaling(name, c):
    # c is a power of two, so scaling rounds nothing: the scaled run must
    # cross every phase at the scaled instant, and so floor to the same frames.
    # Times are >= +0.0 and rates positive, so equal values are equal bits
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    base = simulate_afm(load_scenario_dict(copy.deepcopy(doc))[1])
    scaled = simulate_afm(load_scenario_dict(time_scaled(doc, c))[1])
    assert np.array_equal(scaled.times * c, base.times)
    assert np.array_equal(scaled.freq / c, base.freq)
    assert np.array_equal(scaled.occupancy, base.occupancy)
    assert len(scaled.events) == len(base.events)
    for ev, want in zip(scaled.events, base.events):
        value = ev.value / c if ev.kind == "hold" else ev.value
        assert (ev.time * c, ev.node, ev.kind, ev.k, value) == tuple(want), (ev, want)


def edge_list_form(name: str, seed: int) -> dict:
    """The scenario as an edge-list document with one value per node and per link.

    Latencies, initial occupancies and initial phases are drawn around the
    shipped values, so that a value carried to the wrong node or link shows.
    """
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    graph, scn, _ = load_scenario_dict(copy.deepcopy(doc))
    rng = np.random.RandomState(seed)
    doc["graph"] = {"n": graph.n, "edges": [list(e) for e in graph.edges]}
    doc["frequencies"] = {"omega_u": list(scn.uncorrected_freq)}
    afm = doc["afm"]
    afm["latency"] = (afm["latency"] * rng.uniform(0.5, 1.5, 2 * graph.m)).tolist()
    afm["beta0"] = (afm["beta_max"] // 2 + rng.randint(-4, 5, 2 * graph.m)).tolist()
    afm["theta0"] = rng.uniform(0.0, 1.0, graph.n).tolist()
    return doc


def relabelled(doc: dict, perm, order) -> tuple:
    """The document with node v renamed perm[v] and edge order[l] stored l-th.

    Returns it with link_to, where link_to[q] is the new slot of directed link q.
    """
    doc = copy.deepcopy(doc)
    edges = doc["graph"]["edges"]
    doc["graph"]["edges"] = [[int(perm[u]), int(perm[v])] for u, v in (edges[l] for l in order)]
    link_to = np.empty(2 * len(edges), dtype=int)
    for new, old in enumerate(order):
        link_to[2 * old:2 * old + 2] = (2 * new, 2 * new + 1)

    def carried(values, to):
        return [values[q] for q in np.argsort(to)]

    doc["frequencies"]["omega_u"] = carried(doc["frequencies"]["omega_u"], perm)
    for key, to in (("latency", link_to), ("beta0", link_to), ("theta0", perm)):
        doc["afm"][key] = carried(doc["afm"][key], to)
    return doc, link_to


def mapped_events(events, node_to, link_to) -> list:
    """Each event with its node, and a buffer event's link, renamed."""
    return [(ev.time, int(node_to[ev.node]), ev.kind,
             int(link_to[ev.k]) if ev.kind in ("overflow", "underflow") else ev.k, ev.value)
            for ev in events]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_frame_model_is_invariant_under_relabelling(name, seed):
    # each node and each link keeps its values under its new name, so every row
    # must be the same; events tied at one instant are logged in node order,
    # so the logs agree as multisets
    doc = edge_list_form(name, seed)
    n, m = doc["graph"]["n"], len(doc["graph"]["edges"])
    rng = np.random.RandomState(100 + seed)
    perm, order = rng.permutation(n), rng.permutation(m)
    new_doc, link_to = relabelled(doc, perm, order)
    base = simulate_afm(load_scenario_dict(doc)[1])
    moved = simulate_afm(load_scenario_dict(new_doc)[1])
    assert np.array_equal(moved.times, base.times)
    assert np.array_equal(moved.freq[:, perm], base.freq)
    assert np.array_equal(moved.occupancy[:, link_to], base.occupancy)
    assert sorted(map(tuple, moved.events)) == sorted(mapped_events(base.events, perm, link_to))


def flipped(doc: dict) -> tuple:
    """The document with every other edge reversed, its two links' values swapped.

    Returns it with link_to, where link_to[q] is the new slot of directed link q.
    """
    doc = copy.deepcopy(doc)
    link_to = np.arange(2 * len(doc["graph"]["edges"]))
    for l in range(1, len(doc["graph"]["edges"]), 2):
        doc["graph"]["edges"][l].reverse()
        link_to[[2 * l, 2 * l + 1]] = (2 * l + 1, 2 * l)
        for key in ("latency", "beta0"):
            values = doc["afm"][key]
            values[2 * l], values[2 * l + 1] = values[2 * l + 1], values[2 * l]
    return doc, link_to


@pytest.mark.parametrize("name", NAMES)
def test_frame_model_is_invariant_under_edge_orientation(name):
    # a flipped edge's links are the same two links in the other slots
    doc = edge_list_form(name, 0)
    new_doc, link_to = flipped(doc)
    base = simulate_afm(load_scenario_dict(doc)[1])
    moved = simulate_afm(load_scenario_dict(new_doc)[1])
    assert np.array_equal(moved.times, base.times)
    assert np.array_equal(moved.freq, base.freq)
    assert np.array_equal(moved.occupancy[:, link_to], base.occupancy)
    assert [tuple(ev) for ev in moved.events] == mapped_events(
        base.events, np.arange(doc["graph"]["n"]), link_to)


@pytest.mark.parametrize("name", NAMES)
def test_fluid_model_is_invariant_under_edge_orientation(name):
    # reversing an edge negates its incidence column, which leaves the
    # Laplacian's bits alone, so omega keeps its bits and that edge's delta its magnitude
    doc = edge_list_form(name, 0)
    base = _fluid_trace(*load_scenario_dict(doc))
    moved = _fluid_trace(*load_scenario_dict(flipped(doc)[0]))
    sign = np.where(np.arange(base.delta.shape[1]) % 2, -1.0, 1.0)
    assert np.array_equal(moved.times, base.times)
    assert np.array_equal(moved.omega, base.omega)
    assert np.array_equal(moved.delta, base.delta * sign)
