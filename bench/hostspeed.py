"""Host speed reference: a fixed loop, timed while the program runs.

On a shared host the speed of each core drifts by up to half, in spells that
last from a second to minutes, as other tenants come and go. A run that falls
in a slow spell is slower as a whole, and no statistic over its own passes
removes that. The benchmark therefore times a reference loop around and during
every operation and scales the operation's time by the loop's reference time
over its median measured time: the result is the operation's time on a host
where the loop takes its reference time.

A slow spell does not slow every kind of work alike, so each workload names
the loop that does its kind of work:

- ``python``: interpreted arithmetic and a dict store, like the frame model's
  event loop, the CLI and the trace I/O;
- ``matvec``: products of a 288x288 matrix and a vector, like the RK4 step of
  the fluid model on a 12x12 mesh.

During an operation a ``SIGALRM`` every ``INTERVAL_S`` runs the loop once in
the benchmark's own process, on the core the program runs on; an operation of
a few seconds sees dozens of samples, so a spell that starts or ends inside it
is weighed by how much of the operation it covers. Around each operation the
loop runs ``AROUND`` times, which is all that a short operation sees. The
loop's time inside the operation is taken out of the operation's time.

The module imports only ``signal`` and ``time`` (numpy only for ``matvec``),
so that the set-up probe, which uses the ``python`` loop, does not import for
the program what the program imports. The loops take nothing from the program
and the program cannot change them; the unscaled times are printed beside the
scaled ones.
"""

import signal
import time

INTERVAL_S = 0.05
AROUND = 8


def _python_loop():
    table, x = {}, 0.0
    for i in range(4_000):
        x = x * 0.5 + i
        table[i & 63] = x


def _matvec_loop():
    import numpy as np

    a, x = np.full((288, 288), 0.5), np.ones(288)

    def loop():
        for _ in range(40):
            a @ x
    return loop


# each loop's time on a fast spell of the 2-core x86 machine the baselines in
# workloads.py were measured on (Python 3.11, numpy 2.4 on one OpenBLAS thread)
REFERENCES = {"python": (lambda: _python_loop, 0.00035),
              "matvec": (_matvec_loop, 0.0005)}


class Sampler:
    """Loop runs around and, from a timer signal, during one timed stretch."""

    def __init__(self, kind: str):
        make, self.reference_s = REFERENCES[kind]
        self.loop = make()
        self.samples = []  # (start, end) perf_counter of each loop run

    def _run(self) -> tuple:
        start = time.perf_counter()
        self.loop()
        return start, time.perf_counter()

    def __enter__(self):
        self.samples = [self._run() for _ in range(AROUND)]
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [self._run() for _ in range(AROUND)]

    def _on_alarm(self, signum, frame):
        self.samples.append(self._run())

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` less the loop runs inside it, at the reference host speed."""
        inside = sum(b - a for a, b in self.samples if a >= start and b <= end)
        loops = sorted(b - a for a, b in self.samples)
        return (end - start - inside) * self.reference_s / loops[len(loops) // 2]
