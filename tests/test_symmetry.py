"""Symmetries of the frame model that hold bit for bit."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from bittide_sim.afm import simulate_afm
from bittide_sim.scenario import load_scenario_dict

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
@pytest.mark.parametrize("name", ["triangle_pi", "mesh_close_pair", "mesh_far_pair"])
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
