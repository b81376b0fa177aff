"""Deterministic simulator and analysis toolkit for bittide-style logical
clock synchronization.

Two models of the same closed loop: a frame-exact event-driven simulation
(quantized buffers, sampled PI control, link latencies, actuation delay) and
its continuous-time linear approximation, plus closed-form L2 performance
results built on graph resistance distance.
"""

from .afm import (AfmScenario, AfmTrace, InadmissibleControlError, PhaseHistory,
                  simulate_afm)
from .analysis import (LyapunovCertificate, PerformanceReport, build_lyapunov_certificate,
                       empirical_norms, hurwitz_check, predicted_performance,
                       worst_case_frequency)
from .graph import (NotConnectedError, OrientedGraph, SpectralData, complete,
                    incidence_matrix, mesh, path, resistance_matrix, spectral_data)
from .ode import Gains, OdeSystem, OdeTrace, build_full_system, simulate_ode
from .scenario import (ComparisonReport, ValidationError, compare_traces, emit_report,
                       load_scenario, read_trace, write_trace)

__version__ = "0.1.0"

__all__ = [
    "AfmScenario", "AfmTrace", "InadmissibleControlError", "PhaseHistory",
    "simulate_afm",
    "LyapunovCertificate", "PerformanceReport", "build_lyapunov_certificate",
    "empirical_norms", "hurwitz_check", "predicted_performance", "worst_case_frequency",
    "NotConnectedError", "OrientedGraph", "SpectralData", "complete",
    "incidence_matrix", "mesh", "path", "resistance_matrix", "spectral_data",
    "Gains", "OdeSystem", "OdeTrace", "build_full_system", "simulate_ode",
    "ComparisonReport", "ValidationError", "compare_traces", "emit_report",
    "load_scenario", "read_trace", "write_trace",
]
