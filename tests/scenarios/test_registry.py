"""The backend plugin registry (one source of truth for names)."""

import pytest

from repro.scenarios import FabricBackend
from repro.scenarios.registry import (
    _REGISTRY,
    available_backends,
    backend_info,
    make_backend,
    register_backend,
)

#: Backends this PR sequence guarantees are always registered.
CORE_BACKENDS = ("awgr", "dragonfly", "electronic", "full_mesh", "wss")


class TestAvailableBackends:
    def test_sorted_and_complete(self):
        names = available_backends()
        assert list(names) == sorted(names)
        assert set(CORE_BACKENDS) <= set(names)

    def test_info_matches_name(self):
        for name in available_backends():
            info = backend_info(name)
            assert info.name == name
            assert isinstance(info.cls, type)

    def test_capability_flags(self):
        # The electronic comparator ignores plane events; everything
        # else honours them. Every core backend has a power model.
        for name in CORE_BACKENDS:
            caps = backend_info(name).capabilities()
            assert set(caps) == {"fail_plane"}
            assert caps["fail_plane"] is (name != "electronic")
            assert make_backend(name, n_nodes=8).power_w() > 0


class TestBackendInfoLookup:
    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError) as err:
            backend_info("quantum")
        message = str(err.value)
        assert "quantum" in message
        for name in CORE_BACKENDS:
            assert name in message


class TestRegisterBackend:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_backend("awgr")
            class Dupe:  # pragma: no cover - never constructed
                pass

    def test_plugin_registration_end_to_end(self):
        """A decorated class is immediately constructible by name —
        the add-a-backend contract the README documents."""

        @register_backend("_probe", description="test-only",
                          fail_plane=False)
        class ProbeBackend:
            def __init__(self, n_nodes, links_per_pair=9):
                self.n_nodes = n_nodes
                self.links_per_pair = links_per_pair
                self.name = "_probe"

            def step(self, flows):  # pragma: no cover - protocol stub
                raise NotImplementedError

            def apply_event(self, event):
                return False

            def snapshot(self):
                return {"backend": self.name}

            def restore(self, state):
                pass

        try:
            assert "_probe" in available_backends()
            built = make_backend("_probe", n_nodes=6, seed=3)
            assert built.n_nodes == 6
            # The constructor's default applies; an override wins.
            assert built.links_per_pair == 9
            assert make_backend("_probe", 6,
                                links_per_pair=7).links_per_pair == 7
        finally:
            _REGISTRY.pop("_probe")
        assert "_probe" not in available_backends()


class TestMakeBackendSeeding:
    @pytest.mark.parametrize("name", CORE_BACKENDS)
    def test_constructs_protocol_instances(self, name):
        backend = make_backend(name, n_nodes=8, seed=1)
        assert isinstance(backend, FabricBackend)
        assert backend.name == name

    def test_seed_routed_to_declared_param(self):
        assert make_backend("awgr", 8, seed=5).rng_seed == 5
        assert make_backend("dragonfly", 8, seed=5).rng_seed == 5

    def test_explicit_seed_override_wins(self):
        backend = make_backend("dragonfly", 8, seed=5, rng_seed=11)
        assert backend.rng_seed == 11

    def test_seed_ignored_by_deterministic_backends(self):
        # No seed_param declared: the seed must not leak into the
        # constructor as an unexpected keyword.
        assert make_backend("full_mesh", 8, seed=5).name == "full_mesh"
        assert make_backend("wss", 8, seed=5).name == "wss"
