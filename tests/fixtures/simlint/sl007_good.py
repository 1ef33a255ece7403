"""SL007 good: hot-path body stays allocation-lean.

Linted as module ``repro.sim.engine``; helpers live at module level and
are scheduled as plain callables with positional arguments.
"""


def _tick():
    return None


class Simulator:
    def step(self):
        self.schedule_call(0.0, _tick)

    def cold_path(self):
        # not on the allowlist: closures are fine here
        return lambda: _tick()
