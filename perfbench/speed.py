"""The machine's current speed, measured with a fixed pure-Python kernel.

The benchmark runs on a few cores of a shared host, where the speed the
process gets moves by up to 1.6x in phases lasting from seconds to
minutes. Timing the same kernel next to each unit of work and dividing by
it cancels most of that drift, so that runs made in a slow phase and in a
fast one read alike.

The kernel does what the program's hot paths do, with none of its code:
it scans a list of frozen-dataclass triples of IRI strings for attribute
matches and sorts the hits by a tuple key. Its inputs are fixed, and no
set or dict is iterated, so its work does not depend on the process's
hash seed. Nothing here imports cpskg, so a change to the program cannot
move the kernel.

``scale(seconds, kernel_s)`` turns a time measured while a kernel pass
took ``kernel_s`` into the time it would have taken where a pass takes
``REFERENCE_S``: a fixed scale, so that scaled times read as seconds.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from time import perf_counter

# On a shared 2.1 GHz Xeon vCPU with CPython 3.11 a pass takes 2.4 to 3.8 ms,
# depending on the host's load.
REFERENCE_S = 0.003
PASSES = 5


@dataclass(frozen=True)
class _Triple:
    s: str
    p: str
    o: str

    def key(self) -> tuple[str, str, str]:
        return (self.s, self.p, self.o)


_rng = random.Random(20240917)
_NODES = [f"http://example.org/calibration/node/{_rng.randrange(10**9):09d}" for _ in range(300)]
_PREDICATES = [f"http://example.org/calibration/vocab#p{i}" for i in range(24)]
_TRIPLES = [_Triple(_rng.choice(_NODES), _rng.choice(_PREDICATES), _rng.choice(_NODES)) for _ in range(1500)]
del _rng


def _kernel() -> int:
    hits = 0
    for i in range(40):
        node, predicate = _NODES[i], _PREDICATES[i % len(_PREDICATES)]
        found = [t for t in _TRIPLES if t.s == node and t.p == predicate]
        found += [t for t in _TRIPLES if t.o == node]
        found.sort(key=_Triple.key)
        hits += len(found)
    return hits


def kernel_seconds() -> float:
    """The median time of a few kernel passes, run now."""
    times = []
    for _ in range(PASSES):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured at a speed where a kernel pass took ``kernel_s``,
    expressed at the reference speed."""
    return seconds * REFERENCE_S / kernel_s

