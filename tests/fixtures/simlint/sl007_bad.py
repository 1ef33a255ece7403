"""SL007 bad: allocations inside a hot-path body.

Linted as module ``repro.sim.engine`` so ``Simulator.step`` matches the
hot-path allowlist.
"""


class Simulator:
    def step(self):
        def tick():
            return None

        callback = lambda: tick()  # deliberately a lambda: the SL007 target
        self.schedule_call(0.0, callback)
