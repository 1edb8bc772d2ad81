"""Graph views of the fabric plans (networkx).

These are convenience builders for analysis and visualization: the
AWGR plan becomes a weighted complete graph whose edge weights are the
number of direct wavelengths between MCM pairs; the WSS plan becomes a
bipartite MCM-switch graph. Connectivity invariants proved in §V-B
(every pair >= 5 wavelengths / >= 3 switch paths) become simple graph
assertions, which the Fig. 5 bench and the property tests exercise.
networkx is imported only when a graph is built, so the rest of the
package neither needs it nor pays for its import.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.rack.design import AWGRFabricPlan, WSSFabricPlan

if TYPE_CHECKING:
    import networkx as nx


def awgr_connectivity_graph(plan: AWGRFabricPlan,
                            sample: int | None = None) -> nx.Graph:
    """Complete MCM graph weighted by direct wavelength count.

    Parameters
    ----------
    plan:
        AWGR fabric plan.
    sample:
        When given, only the first ``sample`` MCMs are included (the
        full 350-node complete graph has ~61k edges; fine, but samples
        keep interactive use fast).
    """
    import networkx as nx

    n = plan.n_mcms if sample is None else min(sample, plan.n_mcms)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for src in range(n):
        for dst in range(src + 1, n):
            wavelengths = plan.direct_wavelengths(src, dst)
            graph.add_edge(src, dst,
                           wavelengths=wavelengths,
                           gbps=wavelengths * plan.awgr.gbps_per_wavelength)
    return graph


def wss_connectivity_graph(plan: WSSFabricPlan) -> nx.Graph:
    """Bipartite MCM <-> switch attachment graph.

    MCM nodes are integers; switch nodes are strings ``"sw<i>"``.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(plan.n_mcms), bipartite="mcm")
    graph.add_nodes_from((f"sw{s}" for s in range(plan.n_switches)),
                         bipartite="switch")
    for s in range(plan.n_switches):
        for port, mcm in enumerate(plan.attachment[s]):
            if mcm >= 0:
                graph.add_edge(int(mcm), f"sw{s}", port=port)
    return graph


def min_pair_weight(graph: nx.Graph, attribute: str = "wavelengths") -> int:
    """Minimum edge weight over all pairs present in the graph."""
    values = [data[attribute] for _, _, data in graph.edges(data=True)]
    if not values:
        raise ValueError("graph has no edges")
    return min(values)


def wss_pair_path_counts(plan: WSSFabricPlan,
                         sample: int | None = None) -> np.ndarray:
    """(n, n) matrix of common-switch counts between MCM pairs."""
    n = plan.n_mcms if sample is None else min(sample, plan.n_mcms)
    counts = np.zeros((n, n), dtype=int)
    for src in range(n):
        for dst in range(src + 1, n):
            c = plan.direct_paths(src, dst)
            counts[src, dst] = counts[dst, src] = c
    return counts
