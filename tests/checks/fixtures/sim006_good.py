"""SIM006 fixture: every vectorized entry has its scalar oracle.
Never imported."""


class TwinnedFabric:
    """Batched entry point delegating to the scalar twin."""

    def __init__(self):
        self.epoch = 0

    def offer(self, flow):
        return flow

    def offer_batch(self, flows):
        self.epoch += 1
        return [self.offer(flow) for flow in flows]


class TwinnedRouter:
    def route_flow(self, src, dst, slots=1):
        return (0, 1, ())

    def route_tokens(self, src, dst, slots=1):
        return self.route_flow(src, dst, slots)
