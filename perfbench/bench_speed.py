"""Speed reference for a shared machine.

The machine this benchmark was built on (2 vCPUs of a shared Xeon host)
changes speed by up to a half for minutes at a time: one workload on one
seed read 100 and 135 ops/s a minute apart, and every timing moved.
So a fixed loop of dict, tuple, string and sort work, written here and
independent of modalfib, is timed between operations, and each measured
time is multiplied by (REFERENCE_S / median loop time in the same pass)
** EXPONENT.  REFERENCE_S is the loop's median duration there when this
file was written.  Ops slow by between the 0.5 and the 1.0 power of the
loop's slowdown, depending on the op; over eight seeds per workload in
one slow spell the 0.75 power gave the smallest worst spread: 0.03-0.14
on ops_per_s, 0.06-0.12 on op_p50_ms and 0.08-0.18 on op_p90_ms, against
0.15-0.28, 0.13-0.30 and 0.11-0.34 unscaled.  The unscaled figures are
printed on every run.
"""

import gc
import statistics
import time

REFERENCE_S = 380e-6
EXPONENT = 0.75


def _key(x):
    if isinstance(x, tuple):
        return (2, tuple(_key(y) for y in x))
    if isinstance(x, str):
        return (1, x)
    return (0, x)


def _loop():
    """Dict, tuple and sort work shaped like the program's own."""
    d = {}
    for i in range(200):
        key = (i % 17, "v%d" % i)
        d[key] = d.get(key, 0) + i
    pairs = sorted(d.items(), key=lambda kv: _key(kv[0]))
    out = [(b, a) for (a, b), v in pairs if v % 3]
    return len(set(out))


def sample():
    """One timing of the loop, after one untimed pass to warm the caches,
    with the collector off so that objects the program left alive do not
    slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples):
    """The scale that takes times measured alongside `samples` to the
    reference speed."""
    return (REFERENCE_S / statistics.median(samples)) ** EXPONENT
