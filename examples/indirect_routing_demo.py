"""Indirect routing over parallel AWGRs under a hotspot.

Reproduces the §IV mechanism end-to-end: sources that exhaust their
direct wavelengths toward a hot destination borrow bandwidth through
Valiant-chosen intermediates, guided by piggybacked occupancy state.
The demo contrasts always-fresh state with a slow broadcast period to
show the second-intermediate fallback absorbing staleness.

Run:  python examples/indirect_routing_demo.py
"""

import numpy as np

from repro.analysis.report import render_table
from repro.network.simulator import AWGRNetworkSimulator
from repro.network.traffic import FlowBatch, uniform_batch


def run_one(update_period: int, seed: int = 3) -> dict:
    sim = AWGRNetworkSimulator(n_nodes=24, planes=5,
                               flows_per_wavelength=1,
                               state_update_period=update_period,
                               rng_seed=seed)
    # Four senders, three 25 Gbps flows each, converge on node 0.
    senders = np.repeat([1, 2, 3, 4], 3)
    hotspot = FlowBatch(src=senders, dst=np.zeros_like(senders),
                        gbps=np.full(len(senders), 25.0))
    batches = [FlowBatch.concat([uniform_batch(24, 12, gbps=25.0),
                                 hotspot]) for _ in range(8)]
    report = sim.run(batches, duration_slots=2)
    return {"update_period": update_period, **report.as_dict()}


def main() -> None:
    rows = [run_one(period) for period in (1, 10, 100)]
    print(render_table(rows, title="AWGR indirect routing vs staleness"))
    print("\nReading: most traffic rides direct wavelengths; hotspot "
          "overflow goes indirect; stale state adds mispredictions "
          "and double-indirect hops, but acceptance stays high — the "
          "§IV argument that per-source state plus a fallback beats a "
          "centralized scheduler.")


if __name__ == "__main__":
    main()
