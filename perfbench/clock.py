"""Timing normalized by a reference loop measured next to each timing.

The benchmark's 2-vCPU host is shared, and its speed drifts by up to a
third over tens of seconds: the same pass can take 30% longer a minute
later.  Each measured interval is therefore paired with the time of a
fixed pure-Python reference loop, run just before and just after it, and
reported as ``seconds * REFERENCE_S / reference``: the time the interval
would have taken on a machine where the loop takes ``REFERENCE_S``.  The
loop does no irkit work, so a change to irkit moves the normalized time as
it moves the raw one.  ``run.py`` prints the raw wall-clock rates as well.
"""

from __future__ import annotations

import time

# The reference loop's median time on the machine the bounds were set on
# (Intel Xeon, Sapphire Rapids, KVM, 2 vCPUs, Python 3.11).
REFERENCE_S = 0.0033

_TEXT = " ".join(f"?x{i % 7} ns:film.film.directed_by m_0{i:05d} ."
                 for i in range(200))


def _reference_work() -> int:
    seen: dict[str, int] = {}
    for tok in _TEXT.split():
        seen[tok] = seen.get(tok, 0) + 1
    return len(seen)


def reference(samples: int = 7, calls: int = 20) -> float:
    """Median time of ``samples`` runs of the reference loop."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        for _ in range(calls):
            _reference_work()
        times.append(time.perf_counter() - started)
    times.sort()
    return times[len(times) // 2]


def normalized(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S * 2.0 / (before + after)
