"""The ``rack_mix`` scenario every rack-scale workload shares.

Defined once here as a ``Scenario.to_config()`` payload parameterised
by MCM count and horizon. No scenario of this size is registered in
``repro``, so the library workloads rebuild it with
``Scenario.from_config`` and the service workload sends the same
payload inline in ``POST /sessions``.

The rack is split by index: the lower half are CPU MCMs, then about
a quarter pooled memory, about a quarter GPUs, and the last MCM is the
I/O node.
"""

from __future__ import annotations

#: Per-wavelength parallel planes of the default AWGR backend; the I/O
#: node can take at most ``(N - 1) * AWGR_PLANES`` direct flows.
AWGR_PLANES = 5


def rack_mix(n_nodes: int, n_epochs: int) -> dict:
    """``Scenario.to_config()`` payload of the shared rack workload.

    The diurnal envelopes span the whole horizon, so every run covers
    one trough-peak-trough cycle, with the plane failure around the
    peak.
    """
    if n_nodes < 8:
        raise ValueError("rack_mix needs at least 8 MCMs")
    gpu_start = n_nodes - n_nodes // 4 - 1
    cpu = list(range(n_nodes // 2))
    memory = list(range(n_nodes // 2, gpu_start))
    gpus = list(range(gpu_start, n_nodes - 1))
    io_node = n_nodes - 1
    burst_mean = n_nodes / 2
    # Flows stay resident for two epochs, so a burst keeps at most
    # ~2x its mean in flight at the I/O node.
    if 2 * burst_mean >= (n_nodes - 1) * AWGR_PLANES:
        raise ValueError("checkpoint burst would saturate the I/O node")
    day = {"kind": "diurnal", "period": n_epochs}
    return {
        "name": "rack_mix",
        "n_nodes": n_nodes,
        "n_epochs": n_epochs,
        "description": "rack-scale mix: Cori memory replay, chatter, "
                       "checkpoint bursts, GPU ring, plane failure",
        "episodes": [
            # Big CPU -> pooled-memory flows (up to 1096 Gbps): they
            # overflow the direct wavelengths and exercise indirect
            # routing.
            {"kind": "cori-replay", "start": 0, "duration": None,
             "flows": 8, "gbps": 25.0,
             "envelope": {**day, "low": 0.15, "high": 1.0},
             "params": {"nodes": cpu, "memory_nodes": memory,
                        "resource": "memory_bandwidth",
                        "peak_gbps": 1096.0}},
            # Background all-to-all chatter that fills the admission
            # path with many small direct flows.
            {"kind": "uniform", "start": 0, "duration": None,
             "flows": {"dist": "poisson", "mean": 2 * n_nodes},
             "gbps": 25.0,
             "envelope": {**day, "low": 0.3, "high": 1.0},
             "params": {}},
            # Periodic checkpoint burst into the I/O node, kept below
            # its ingress capacity on purpose: saturation is measured
            # by the week replay, not here.
            {"kind": "hotspot", "start": 0, "duration": None,
             "flows": {"dist": "poisson", "mean": burst_mean},
             "gbps": 25.0,
             "envelope": {"kind": "burst", "period": 32,
                          "duty": 0.125, "low": 0.0, "high": 1.0},
             "params": {"hotspot": io_node}},
            # GPU ring collective: steady multi-wavelength pair flows.
            {"kind": "collective", "start": 0, "duration": None,
             "flows": 8, "gbps": 75.0, "envelope": None,
             "params": {"nodes": gpus}},
        ],
        # Plane 0 fails for the middle third: admission and routing
        # run on four planes around the diurnal peak.
        "events": [
            {"epoch": n_epochs // 3, "action": "fail_plane",
             "value": 0.0},
            {"epoch": 2 * n_epochs // 3, "action": "repair_plane",
             "value": 0.0},
        ],
    }
