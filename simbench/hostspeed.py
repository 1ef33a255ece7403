"""A fixed reference kernel that measures how fast the host runs right now.

The shared 2-core container the benchmark's bounds were set on changes
speed by up to 2x over minutes (other tenants share its cores).  Code
running on the same core at the same time slows down alike, so timing
this kernel on either side of each run of the benchmark and dividing the
run's wall time by it cancels most of that factor.  The kernel is a
miniature discrete-event loop: heap pushes and pops, dict probes, method
calls on slotted objects and small allocations, the operations the
simulator spends its time on.  Its working set is as large as the
simulator's (tens of thousands of live objects).  A first version that
fitted a core's private cache slowed down less than the simulator when
neighbours competed for the shared cache: five same-seed
``consolidated3_dynshare`` runs spread by 8.3% of their median with it,
and by 1.3% with this one.  The kernel belongs to the benchmark, not to
the program under test, so a change to the simulator cannot move it;
changing it is a change to the benchmark.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

__all__ = ["NOMINAL_KERNEL_S", "kernel", "kernel_seconds"]

#: Kernel time on the nominal host that scaled times refer to: about the
#: kernel's median on the 2-core container the bounds were set on, in a
#: quiet period.  A scaled time is what the run would have taken on a
#: host that runs the kernel in exactly this long.
NOMINAL_KERNEL_S = 0.04

_STEPS = 23_000
#: Distinct keys the kernel's table holds (its working set).
_SPAN = 1 << 16


class _Request:
    __slots__ = ("lba", "arrival", "done")

    def __init__(self, lba: int, arrival: float) -> None:
        self.lba = lba
        self.arrival = arrival
        self.done = 0.0


class _Device:
    __slots__ = ("served", "recent")

    def __init__(self) -> None:
        self.served = 0
        self.recent: deque[_Request] = deque(maxlen=512)

    def serve(self, now: float, request: _Request) -> float:
        self.recent.append(request)
        self.served += 1
        request.done = now + 1.0 + (request.lba % 7) * 0.25
        return request.done


def kernel(steps: int = _STEPS) -> int:
    """Run the reference event loop for ``steps`` events; returns a checksum."""
    heap: list[tuple[float, int, int]] = [(float(i), i, i) for i in range(1024)]
    heapq.heapify(heap)
    seen: dict[int, float] = {}
    devices = (_Device(), _Device())
    seq = len(heap)
    state = 12345
    for _ in range(steps):
        now, _, _ = heapq.heappop(heap)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        lba = state % _SPAN
        last = seen.get(lba)
        seen[lba] = now if last is None else last + 1.0
        done = devices[lba & 1].serve(now, _Request(lba, now))
        heapq.heappush(heap, (done, seq, lba))
        seq += 1
    return devices[0].served + len(seen)


def kernel_seconds() -> float:
    """Host seconds one run of :func:`kernel` takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
