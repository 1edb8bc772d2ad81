"""SIM003 fixture: protocol-surface violations. Never imported."""


class HalfBackend:
    """Defines apply_event (the FabricBackend marker) but is missing
    restore(), has no name, and steps with the wrong arity."""

    def __init__(self, n):
        self.n = n

    def step(self, flows, extra_required):
        return flows

    def apply_event(self, event):
        return False

    def snapshot(self):
        return {"n": self.n}


class LonelySnapshot:
    """snapshot() without restore() — a checkpoint nobody can load."""

    def __init__(self):
        self._state = []

    def snapshot(self):
        return {"state": list(self._state)}
