"""SIM006 fixture: vectorized entries missing their scalar oracles.
Never imported."""


class BatchOnlyFabric:
    """Has the batched entry point but no scalar offer() twin."""

    def __init__(self):
        self.epoch = 0

    def offer_batch(self, flows):  # BAD: no offer() oracle anywhere
        self.epoch += 1
        return [self._admit(flow) for flow in flows]

    def _admit(self, flow):
        return flow


class BulkOnlyRouter:
    def route_tokens(self, src, dst, slots=1):  # BAD: no route_flow()
        return (0, 1, ())
