"""Scheduling through the Simulator API; own private heaps are fine (SL011)."""

from heapq import heappush


def complete_soon(sim, delay, fn, op):
    sim.schedule_call(delay, fn, op)


class Backlog:
    def __init__(self):
        self._heap = []
        self._seq = 0

    def add(self, item):
        self._seq += 1
        heappush(self._heap, (self._seq, item))
