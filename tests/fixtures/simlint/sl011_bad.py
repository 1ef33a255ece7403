"""A device reaching into the simulator's calendar (SL011)."""

from heapq import heappush


def complete_soon(sim, delay, fn, op):
    seq = sim._seq
    sim._seq = seq + 1
    heappush(sim._heap, (sim.now + delay, seq, fn, (op,)))
