"""SIM003 fixture: a conforming backend. Never imported."""

from typing import Protocol, runtime_checkable


@runtime_checkable
class SomeProtocol(Protocol):
    """Protocol definitions are exempt even with a partial surface."""

    def apply_event(self, event): ...

    def step(self, flows): ...


class GoodBackend:
    name = "good"

    def __init__(self):
        self._epoch = 0

    def step(self, flows, budget=None):
        self._epoch += 1
        return flows

    def apply_event(self, event):
        return False

    def snapshot(self):
        return {"epoch": self._epoch}

    def restore(self, state):
        self._epoch = int(state["epoch"])
