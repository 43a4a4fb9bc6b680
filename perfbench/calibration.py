"""Calibration: fixed work that gauges how fast the host runs at the moment.

On the shared 2-vCPU virtual machine the benchmark was built on, the same
call took up to 1.8 times as long from one minute to the next, with the
load from other tenants, and a slow spell could last a whole run. CPU time
slowed as much as wall time (no steal), so neither the fastest of many
repetitions nor CPU time gave steady figures. Work that does not change with
the program slows down with it, though, so the benchmark times such work
next to the program's and reports each time scaled to a fixed host speed:

- the kernel (:func:`kernel`), a fixed mix of the kinds of work hurstlab
  does (small NumPy calls in a Python loop, a sort of a larger array, float
  formatting and parsing), runs between the timed calls;
- a fresh interpreter that imports NumPy and exits runs between the set-up
  spawns, which are mostly the same start and slow down far less under
  load than the kernel does.

Neither uses hurstlab, so no change to the program can change them.
"""


from __future__ import annotations

import subprocess
import sys
import threading
import time

import numpy as np

# The kernel's and the calibration spawn's times on the quiet 2-vCPU Intel
# Xeon virtual machine (Python 3.11, numpy 2.4). Times are reported as if
# the host ran at that speed. The constants only set the scale, so they
# never need to change.
REFERENCE_S = 0.004
SPAWN_REFERENCE_S = 0.1
SPAWN_CODE = "import numpy"
SPAWN_TIMEOUT_S = 120

_DATA = np.random.default_rng(20261018).exponential(size=8192)


def kernel() -> float:
    """The fixed work; returns a number so that nothing is optimised away."""
    x = _DATA
    acc = 0.0
    for n in (16, 64, 256):
        for k in range(0, 2048, n):
            w = x[k:k + n]
            y = np.cumsum(w - w.mean())
            acc += (y.max() - y.min()) / w.std()
    acc += float(np.sort(x).sum())
    text = "\n".join(map(repr, x[:1500].tolist()))
    return acc + sum(map(float, text.split()))


def probe(min_seconds: float = 0.0) -> tuple[float, float]:
    """Run the kernel once, and again until `min_seconds` have passed.

    Returns the mean seconds per run of the kernel and the seconds spent."""
    runs = 0
    start = time.perf_counter()
    while True:
        kernel()
        runs += 1
        spent = time.perf_counter() - start
        if spent >= min_seconds:
            return spent / runs, spent


def at_reference_speed(seconds: float, before: float, after: float,
                       reference: float = REFERENCE_S) -> float:
    """`seconds` of work scaled to the reference host speed, given the
    calibration's time just before and just after the work and its time on
    the reference host."""
    return seconds * reference * 2 / (before + after)


def timed_spawn(argv: list[str], cwd) -> tuple[float, int, bytes]:
    """Run `argv` to its end; return its seconds, exit code and stderr.

    A timer thread kills it after SPAWN_TIMEOUT_S. (``Popen.wait`` with a
    timeout polls in steps of up to 50 ms, which would blur the time.)"""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
    return time.perf_counter() - start, proc.returncode, err


def spawn_probe(cwd) -> float:
    """Seconds a fresh interpreter takes to import NumPy and exit."""
    seconds, code, err = timed_spawn([sys.executable, "-c", SPAWN_CODE], cwd)
    if code:
        raise RuntimeError(f"calibration spawn exited {code}: {err.decode(errors='replace')}")
    return seconds
