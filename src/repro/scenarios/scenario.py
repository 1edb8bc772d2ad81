"""Scenario model: episodes + events over a discrete epoch clock.

A :class:`Scenario` composes :class:`~repro.scenarios.episodes.Episode`
phases into one time-varying workload over ``n_epochs`` discrete
epochs, plus a script of :class:`ScenarioEvent` interventions (plane
failures, repairs, reconfiguration-lag changes) that the fabric
backends apply mid-run. Scenarios are pure descriptions — all
randomness comes from the generator the caller supplies — and
round-trip losslessly through ``to_config``/``from_config`` so they
can ride inside :class:`~repro.experiments.spec.ExperimentSpec`
configs and hash stably into the result cache.

Epoch randomness is counter-based (:func:`derive_epoch_seed`,
:meth:`Scenario.flow_batch_at`): every epoch owns an independent RNG
derived from (scenario name, base seed, epoch counter), so epoch
``k``'s flows never depend on epochs ``0..k-1`` having been drawn.
This is what makes epoch ranges *shardable*: any worker can generate
any ``[start, stop)`` slice bit-identically to the full run. The one
epoch loop, :func:`~repro.scenarios.runner.play_epochs`, calls
:meth:`Scenario.flow_batch_at` once per epoch for every backend it
drives.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.network.traffic import FlowBatch
from repro.scenarios.episodes import Episode


def derive_epoch_seed(scenario: "Scenario | str", epoch: int,
                      base_seed: int = 0,
                      stream: str = "episodes") -> int:
    """Deterministic 63-bit seed for one epoch of one scenario.

    Counter-based (hash of scenario name, base seed, epoch, stream
    label): no draw depends on any other epoch's draws, so epoch
    ranges can be generated independently and still match the full
    run bit for bit. ``stream`` separates independent consumers —
    ``"episodes"`` for traffic generation, ``"backend"`` for the
    fabric RNG a chunk runner constructs.

    A sha256 of a plain counter string, separate from the cache-key
    hash (:func:`repro.scaleout.stable_hash`): this one seeds draws,
    that one names cached results.
    """
    name = scenario if isinstance(scenario, str) else scenario.name
    payload = (f"repro.scenarios.epoch:{stream}:{name}:"
               f"{int(base_seed)}:{int(epoch)}")
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return int(digest[:16], 16) & (2**63 - 1)

#: Event actions the backends understand. Unknown actions are carried
#: (for forward compatibility) but reported as ignored by the runner.
EVENT_ACTIONS = ("fail_plane", "repair_plane", "set_reconfig_period",
                 "set_reconfig_time")


@dataclass(frozen=True)
class ScenarioEvent:
    """One scripted intervention, applied before its epoch's traffic.

    Parameters
    ----------
    epoch:
        Epoch at whose start the event fires.
    action:
        What to do — "fail_plane" / "repair_plane" (AWGR plane index,
        or a WSS switch index on that backend), "set_reconfig_period"
        (slots between scheduler runs), "set_reconfig_time" (seconds
        one reconfiguration takes, i.e. reconfiguration lag).
    value:
        Action argument (plane index, period, or seconds).
    """

    epoch: int
    action: str
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError("event epoch must be >= 0")
        if not self.action:
            raise ValueError("event needs an action")


@dataclass(frozen=True)
class Scenario:
    """A named, composable, time-varying workload description."""

    name: str
    n_nodes: int
    n_epochs: int
    episodes: tuple[Episode, ...]
    events: tuple[ScenarioEvent, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.n_epochs < 1:
            raise ValueError("need at least one epoch")
        if not self.episodes:
            raise ValueError("scenario needs at least one episode")
        # Tolerate lists from JSON configs; store as tuples.
        if not isinstance(self.episodes, tuple):
            object.__setattr__(self, "episodes", tuple(self.episodes))
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for index, episode in enumerate(self.episodes):
            params = episode.params
            named = [*(params.get("nodes") or ()),
                     *(params.get("memory_nodes") or ())]
            if "hotspot" in params:
                named.append(params["hotspot"])
            for node in named:
                if not 0 <= int(node) < self.n_nodes:
                    raise ValueError(
                        f"episode {index} ({episode.kind}) names node "
                        f"{node}, outside the rack's [0, "
                        f"{self.n_nodes})")

    def with_epochs(self, n_epochs: int) -> "Scenario":
        """Same scenario on a shorter/longer clock (CLI override).

        Events scripted at or beyond the new horizon never fire.
        """
        return replace(self, n_epochs=n_epochs)

    def events_at(self, epoch: int) -> list[ScenarioEvent]:
        """Events scripted for the start of ``epoch``, in order."""
        return [e for e in self.events if e.epoch == epoch]

    def flow_batch(self, epoch: int,
                   rng: np.random.Generator) -> FlowBatch:
        """All active episodes' flows for one epoch, concatenated into
        one :class:`~repro.network.traffic.FlowBatch`.

        Draws from the caller's ``rng`` in place;
        :meth:`flow_batch_at` supplies the epoch's own counter-seeded
        generator.
        """
        return FlowBatch.concat([
            episode.generate_batch(epoch, self.n_epochs,
                                   self.n_nodes, rng)
            for episode in self.episodes])

    def epoch_rng(self, epoch: int,
                  base_seed: int = 0) -> np.random.Generator:
        """Fresh generator for one epoch's independent seed stream."""
        return np.random.default_rng(
            derive_epoch_seed(self, epoch, base_seed))

    def flow_batch_at(self, epoch: int,
                      base_seed: int = 0) -> FlowBatch:
        """One epoch's flows under counter-based per-epoch seeding.

        Independent of every other epoch: ``flow_batch_at(k)`` is
        bit-identical whether or not any other epoch was generated,
        in this process or another.
        """
        return self.flow_batch(epoch, self.epoch_rng(epoch, base_seed))

    # -- JSON-stable round trip ------------------------------------------------

    def to_config(self) -> dict:
        """Plain-dict form, safe for sweep-config hashing and JSON."""
        return asdict(self)

    @classmethod
    def from_config(cls, config: dict) -> "Scenario":
        """Inverse of :meth:`to_config` (accepts JSON-decoded dicts)."""
        episodes = tuple(
            ep if isinstance(ep, Episode) else Episode(**ep)
            for ep in config["episodes"])
        events = tuple(
            ev if isinstance(ev, ScenarioEvent) else ScenarioEvent(**ev)
            for ev in config.get("events", ()))
        return cls(name=config["name"], n_nodes=int(config["n_nodes"]),
                   n_epochs=int(config["n_epochs"]), episodes=episodes,
                   events=events,
                   description=config.get("description", ""))
