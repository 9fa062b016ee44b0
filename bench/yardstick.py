"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over minutes, in CPU time as well as wall time, because other
tenants contend for the same cores and caches.  A run cannot avoid that, but
it can measure it: the worker times a short slice of this work between its
items, so the slices see the same machine as the items around them.  The run
then scales its timings by ``REFERENCE_SLICE_S / mean slice time``, which
reports them as they would read on a machine where one slice takes exactly
``REFERENCE_SLICE_S``.

The work imitates the shape of hermlab's inner loops (frozen records compared
field by field, recursion over a tower of levels, small tuples and dicts,
short strings joined), but it never calls hermlab, so no change to the
program moves it.  Nothing in it depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

REFERENCE_SLICE_S = 0.01    # the slice time the scaled figures are quoted at
SLICE_ROUNDS = 40           # about 10 ms per slice on the baseline machine
LEVELS = 4


@dataclass(frozen=True)
class _Cls:
    level: int
    data: object


def _make(level: int, bits: int) -> _Cls:
    if level == 0:
        return _Cls(0, bits & 1)
    return _Cls(level, (_make(level - 1, bits >> 2), (bits >> 1) & 1))


def _mul(a: _Cls, b: _Cls) -> _Cls:
    if a.level != b.level:
        raise ValueError("levels differ")
    if a.level == 0:
        return _Cls(0, a.data ^ b.data)
    (ua, va), (ub, vb) = a.data, b.data
    return _Cls(a.level, (_mul(ua, ub), va ^ vb))


def _names(a: _Cls) -> list:
    if a.level == 0:
        return ["u"] if a.data else []
    unit, v = a.data
    names = _names(unit)
    if v:
        names.append("pi" if a.level == 1 else f"pi{a.level}")
    return names


def work(rounds: int = SLICE_ROUNDS) -> int:
    """The fixed work; returns a checksum so that nothing is optimised away."""
    group = [_make(LEVELS, bits) for bits in range(1 << (LEVELS + 1))]
    seen: dict = {}
    check = 0
    for r in range(rounds):
        a = group[r % len(group)]
        for b in group:
            c = _mul(a, b)
            text = "*".join(_names(c)) or "1"
            seen[text] = seen.get(text, 0) + 1
            check += len(text) + (c == b)
    return check + len(seen)


def slice_time() -> float:
    """Wall time of one slice of the fixed work, in seconds."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
