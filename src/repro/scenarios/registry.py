"""Backend plugin registry: one source of truth for fabric names.

Every fabric backend registers itself with the
:func:`register_backend` decorator; everything that used to
string-match backend names — CLI ``--backend`` choices, scenario
sweeps, service submit validation, the Hypothesis snapshot
round-trip property — derives its name list from
:func:`available_backends` instead. Adding a topology is therefore
one decorated class: it appears in the CLI, the arena, the sweeps,
and the conformance gates with no other wiring.

The registry records per-backend *capabilities* so callers can ask
what a contender supports instead of special-casing names: a
``fail_plane`` backend honours ``fail_plane`` / ``repair_plane``
scripted events (others return ``False`` from ``apply_event`` and the
runner counts the event as ignored).

A backend's default config is its constructor's defaults.
``seed_param`` names the constructor keyword (if any) that receives
the caller's ``seed`` — the registry's replacement for the old
if/elif chain that knew ``awgr`` wanted ``rng_seed``.

This module deliberately imports nothing from the backend modules:
``backends`` and ``topologies`` import *it* and self-register, and
the package ``__init__`` imports them in order so any entry path
(``import repro.scenarios.registry`` included — the package
``__init__`` always runs first) sees the full registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenarios.backends import FabricBackend

_ClassT = TypeVar("_ClassT", bound=type)

#: name -> BackendInfo, in registration order.
_REGISTRY: dict[str, "BackendInfo"] = {}


@dataclass(frozen=True)
class BackendInfo:
    """Everything the rest of the system knows about one backend."""

    name: str
    cls: type
    description: str
    #: Honours fail_plane / repair_plane scripted events.
    fail_plane: bool = True
    #: Constructor keyword that receives ``make_backend``'s seed, or
    #: None for backends that are deterministic given their inputs.
    seed_param: str | None = None

    def capabilities(self) -> dict:
        """JSON-stable capability flags (the ``repro arena --list``
        table)."""
        return {"fail_plane": self.fail_plane}


def register_backend(name: str, *, description: str = "",
                     fail_plane: bool = True,
                     seed_param: str | None = None,
                     ) -> Callable[[_ClassT], _ClassT]:
    """Class decorator adding a backend to the global registry.

    The decorated class must implement the full
    :class:`~repro.scenarios.backends.FabricBackend` surface
    (``step`` / ``apply_event`` / ``snapshot`` / ``restore`` and a
    ``name`` attribute), model its power with ``power_w()`` and take
    ``n_nodes`` as a keyword — that is
    the entire contract; registration is what wires it into the CLI,
    sweeps, the arena, and the conformance test gates. Those gates
    also want the class's per-flow ``Scalar<Class>`` oracle in
    ``tests/oracles/backends.py`` (SIM006).
    """

    def decorate(cls: _ClassT) -> _ClassT:
        if name in _REGISTRY:
            raise ValueError(
                f"backend {name!r} already registered "
                f"(by {_REGISTRY[name].cls.__name__})")
        _REGISTRY[name] = BackendInfo(
            name=name, cls=cls, description=description,
            fail_plane=fail_plane, seed_param=seed_param)
        return cls

    return decorate


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend (the live view —
    unlike the frozen ``BACKENDS`` re-export, this sees backends
    registered after :mod:`repro.scenarios` was imported)."""
    return tuple(sorted(_REGISTRY))


def backend_info(name: str) -> BackendInfo:
    """Registry record for ``name``; KeyError lists known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r} "
            f"(known: {sorted(available_backends())})") from None


def make_backend(name: str, n_nodes: int, seed: int = 0,
                 **params) -> "FabricBackend":
    """Construct a registered backend by name with keyword overrides.

    ``seed`` goes to the backend's declared ``seed_param``
    (deterministic backends ignore it) under the caller's ``params``,
    so an explicit RNG-seed override in ``params`` beats the
    positional ``seed``. Everything else takes the constructor's
    defaults.
    """
    info = backend_info(name)
    if info.seed_param is not None:
        params = {info.seed_param: seed, **params}
    return info.cls(n_nodes=n_nodes, **params)
