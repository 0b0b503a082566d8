"""The machine's speed during a run, from a fixed reference kernel.

The benchmark runs on a shared machine whose speed drifts by 20-40% over
minutes as other tenants' load comes and goes, in phases that last as long
as a whole run.  Raw times from one run therefore say as much about the
phase as about the program.  The probe times a fixed kernel of the
benchmark's own between the operations of a run, and the speed factor
rescales the run's times to the speed at which the kernel takes
``NOMINAL_MS``.  The kernel uses numpy only, never collimcal, so a change
to the program cannot move it.

The kernel has two parts, an interpreter loop and a BLAS matrix product,
timed separately; the kernel's time is the geometric mean of the two
parts' medians.  Timed beside a fixed set of CLI requests for 200 s on a
2-core machine whose speed swung by 1.75x, that combination followed the
requests' time with an elasticity of 1.0 and cut their spread by more
than half (standard deviation of the log over 8-request windows: 0.12
raw, 0.046 rescaled).  Either part alone followed less closely, and
small-matrix LAPACK calls and a memory copy less closely still.

A workload that keeps several cores busy is probed on as many cores at
once: on this machine the interpreter part took about 2.2 ms with one core
busy and 4-6 ms on each of two busy cores, in phases of their own that a
probe on one core does not see.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
import threading
import time

import numpy as np

# The kernel's time on the 2-core machine the bounds were set on.
NOMINAL_MS = 1.75

_MATRIX = np.random.default_rng(20240611).standard_normal((160, 160))


def _interpreter() -> float:
    x = 0.0
    for j in range(30000):
        x += j * 0.5
    return x


def _blas() -> float:
    x = 0.0
    for _ in range(6):
        x += float((_MATRIX @ _MATRIX)[0, 0])
    return x


PARTS = {"interpreter": _interpreter, "blas": _blas}


def _time_parts(repeats: int) -> dict:
    samples = {name: [] for name in PARTS}
    for _ in range(repeats):
        for name, part in PARTS.items():
            t0 = time.perf_counter()
            part()
            samples[name].append((time.perf_counter() - t0) * 1e3)
    return samples


def _serve(conn) -> None:
    """Probe process: time the kernel each time the parent asks."""
    while (repeats := conn.recv()) is not None:
        conn.send(_time_parts(repeats))


class SpeedProbe:
    """Times the reference kernel whenever asked and keeps every sample.

    With ``cores`` > 1 the kernel runs in that many processes at once; use
    it as a context manager so that they are stopped.
    """

    def __init__(self, cores: int = 1):
        self.samples_ms = {name: [] for name in PARTS}
        self.cores = cores
        self._conns, self._procs = [], []
        if cores > 1:
            # fork, so that a probe process holds about the memory of a
            # pool worker and starts no resource tracker; safe only while
            # this process runs no other thread.
            if threading.active_count() != 1:
                raise RuntimeError("the speed probe forks; start it with no "
                                   "other thread running")
            ctx = multiprocessing.get_context("fork")
            for _ in range(cores):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(child,), daemon=True)
                proc.start()
                self._conns.append(parent)
                self._procs.append(proc)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:        # the process has already ended
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._conns, self._procs = [], []

    def sample(self, repeats: int = 1) -> None:
        if not self._conns:
            results = [_time_parts(repeats)]
        else:
            for conn in self._conns:
                conn.send(repeats)
            results = [conn.recv() for conn in self._conns]
        for result in results:
            for name, values in result.items():
                self.samples_ms[name].extend(values)

    @property
    def kernel_ms(self) -> float:
        return math.prod(statistics.median(s) for s in self.samples_ms.values()
                         ) ** (1.0 / len(PARTS))

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get it at nominal speed."""
        return NOMINAL_MS / self.kernel_ms

    def summary(self) -> dict:
        return dict({f"{name}_ms_p50": statistics.median(s)
                     for name, s in self.samples_ms.items()},
                    kernel_ms=self.kernel_ms, nominal_ms=NOMINAL_MS,
                    factor=self.factor, cores=self.cores,
                    samples=len(self.samples_ms["interpreter"]))
