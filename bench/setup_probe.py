"""Set-up cost as a user pays it: a fresh interpreter imports ``bittide_sim.cli``
and loads and validates every scenario file a workload uses.

Usage: python3 bench/setup_probe.py <checkout root> <scenario.json>...
Prints the seconds the import and the loads took, then the same at the
reference host speed of ``hostspeed.py``, with its ``python`` loop timed in
this interpreter around and during them. Interpreter start and exit are left
out: they are not the package's, and timing the process from outside would add
the parent's wait granularity.
"""

import sys
import time
from pathlib import Path

from hostspeed import Sampler

if __name__ == "__main__":
    sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
    with Sampler("python") as host:
        start = time.perf_counter()
        import bittide_sim.cli  # noqa: F401  (the import is what is measured)
        from bittide_sim.scenario import load_scenario

        for scenario_file in sys.argv[2:]:
            load_scenario(scenario_file)
        end = time.perf_counter()
    print(end - start, host.scaled(start, end))
