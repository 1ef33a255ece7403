"""Discrete-event simulation engine.

This package provides the timing substrate every other subsystem runs on:

- :mod:`repro.sim.engine` — the :class:`~repro.sim.engine.Simulator` event
  loop: a binary-heap calendar of ``(time, seq, fn, args)`` entries that
  pop in ``(time, seq)`` order, so simultaneous events fire in scheduling
  order and whole simulations are bit-for-bit reproducible.
- :mod:`repro.sim.rng` — named, seeded random streams so that every
  stochastic component (device jitter, workload arrivals, address patterns)
  is independently reproducible from one root seed.
- :mod:`repro.sim.fastdraw` — bitwise replicas of numpy's scalar
  ``Generator`` draws for the per-arrival sampling path.

Time is measured in **microseconds** (floats) throughout the project.
"""

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["Simulator", "RngRegistry"]
