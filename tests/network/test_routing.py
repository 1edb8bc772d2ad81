"""Indirect (Valiant) routing (paper §IV).

Most cases read a route through ``route_flow``'s decision objects,
which ``ScalarIndirectRouter`` (``tests/oracles/routing.py``) layers
over the production router's path choice and reservations."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import IndirectRouter, RouteKind
from repro.network.state import PiggybackState
from repro.network.wavelength import WavelengthAllocator
from tests.oracles import routing as oracle
from tests.oracles.routing import ScalarIndirectRouter


def make_router(n_nodes=6, planes=2, flows_per_wavelength=1,
                update_period=None, seed=0, cls=ScalarIndirectRouter):
    alloc = WavelengthAllocator(n_nodes=n_nodes, planes=planes,
                                flows_per_wavelength=flows_per_wavelength)
    state = None
    if update_period is not None:
        state = PiggybackState(alloc, update_period=update_period)
    return cls(alloc, state=state, rng_seed=seed), alloc, state


class TestDirectFirst:
    def test_direct_when_available(self):
        router, _, _ = make_router()
        decision = router.route_flow(0, 1)
        assert decision.kind is RouteKind.DIRECT
        assert decision.path == (0, 1)
        assert decision.hops == 1

    def test_direct_until_exhausted(self):
        router, alloc, _ = make_router(planes=2)
        router.route_flow(0, 1)
        router.route_flow(0, 1)
        # Third flow cannot go direct (2 planes x 1 slot used).
        decision = router.route_flow(0, 1)
        assert decision.kind is RouteKind.INDIRECT
        assert len(decision.path) == 3

    def test_self_flow_rejected(self):
        router, _, _ = make_router()
        with pytest.raises(ValueError):
            router.route_flow(2, 2)


class TestIndirect:
    def test_indirect_uses_free_intermediate(self):
        router, alloc, _ = make_router(n_nodes=4, planes=1)
        alloc.allocate(0, 1)  # direct path busy
        decision = router.route_flow(0, 1)
        assert decision.kind is RouteKind.INDIRECT
        src, mid, dst = decision.path
        assert (src, dst) == (0, 1)
        assert mid in (2, 3)

    def test_indirect_reserves_both_hops(self):
        router, alloc, _ = make_router(n_nodes=4, planes=1)
        alloc.allocate(0, 1)
        decision = router.route_flow(0, 1)
        mid = decision.path[1]
        assert alloc.used_slots(0, mid) == 1
        assert alloc.used_slots(mid, 1) == 1

    def test_release_frees_everything(self):
        router, alloc, _ = make_router(n_nodes=4, planes=1)
        alloc.allocate(0, 1)
        decision = router.route_flow(0, 1)
        router.release(decision)
        mid = decision.path[1]
        assert alloc.used_slots(0, mid) == 0
        assert alloc.used_slots(mid, 1) == 0

    def test_blocked_when_saturated(self):
        router, alloc, _ = make_router(n_nodes=3, planes=1)
        # Saturate every wavelength out of 0 and into 1.
        alloc.allocate(0, 1)
        alloc.allocate(0, 2)
        decision = router.route_flow(0, 1)
        assert decision.kind is RouteKind.BLOCKED
        assert decision.hops == 0

    def test_candidates_respect_both_hops(self):
        router, alloc, _ = make_router(n_nodes=4, planes=1)
        alloc.allocate(0, 2)        # first hop busy to 2
        alloc.allocate(3, 1)        # second hop busy from 3
        candidates = router.candidate_intermediates(0, 1)
        assert list(candidates) == []


class TestStaleFallback:
    def test_stale_state_triggers_double_indirect(self):
        router, alloc, state = make_router(
            n_nodes=5, planes=1, update_period=1000)
        # Freeze views fresh, then occupy 0->1 and all mid->1 links so
        # every intermediate's onward hop is secretly busy.
        alloc.allocate(0, 1)
        for mid in (2, 3, 4):
            alloc.allocate(mid, 1)
        decision = router.route_flow(0, 1)
        # Stale views still claim mid->1 free; the intermediate falls
        # back to a second intermediate, or blocks if none exists.
        assert decision.kind in (RouteKind.DOUBLE_INDIRECT,
                                 RouteKind.BLOCKED)
        if decision.kind is RouteKind.DOUBLE_INDIRECT:
            assert decision.used_stale_fallback
            assert router.stale_mispredictions >= 1

    def test_fresh_state_avoids_mispredictions(self):
        router, alloc, state = make_router(
            n_nodes=5, planes=1, update_period=1)
        alloc.allocate(0, 1)
        state.broadcast_all()
        router.route_flow(0, 1)
        assert router.stale_mispredictions == 0

    def test_stats_accumulate(self):
        router, alloc, _ = make_router()
        router.route_flow(0, 1)
        router.route_flow(1, 2)
        assert router.stats[RouteKind.DIRECT] == 2


class TestFallbackAllocatorCalls:
    """The stale walk allocates only the hops of the path it returns:
    a mispredicted candidate costs no allocate/release pair."""

    def stale_column(self, monkeypatch, free_src=None, seed=0):
        """n=8, one plane, one flow per wavelength, boards frozen at the
        empty fabric, every (x, 7) pair busy except ``free_src``'s."""
        router, alloc, _ = make_router(n_nodes=8, planes=1,
                                       update_period=1000, seed=seed)
        for src in range(7):
            if src != free_src:
                alloc.allocate(src, 7)
        calls = Counter()
        for name in ("allocate", "release"):
            def counted(*args, _method=getattr(alloc, name), _name=name):
                calls[_name] += 1
                return _method(*args)
            monkeypatch.setattr(alloc, name, counted)
        return router, alloc, calls

    def test_blocked_fallback_makes_no_allocator_call(self, monkeypatch):
        router, _, calls = self.stale_column(monkeypatch)
        decision = router.route_flow(0, 7)
        assert decision.kind is RouteKind.BLOCKED
        # Six stale intermediates, each of whose fallbacks walks six
        # stale second intermediates.
        assert router.stale_mispredictions == 6 + 6 * 6
        assert calls == Counter()

    def test_successful_fallback_allocates_each_hop_once(self, monkeypatch):
        router, alloc, calls = self.stale_column(monkeypatch, free_src=5,
                                                 seed=4)
        # 0 cannot reach 5 itself, so only a fallback can use (5, 7).
        alloc.allocate(0, 5)
        calls.clear()
        decision = router.route_flow(0, 7)
        assert decision.kind is RouteKind.DOUBLE_INDIRECT
        assert decision.path[0] == 0 and decision.path[2:] == (5, 7)
        # One stale intermediate, whose fallback passes five stale
        # second intermediates before it reaches 5.
        assert router.stale_mispredictions == 6
        assert calls == Counter(allocate=len(decision.reservations))


class TestConservation:
    def test_no_leaked_reservations_after_release(self):
        router, alloc, _ = make_router(n_nodes=6, planes=2)
        decisions = []
        for dst in range(1, 6):
            decisions.append(router.route_flow(0, dst))
        for d in decisions:
            if d.kind is not RouteKind.BLOCKED:
                router.release(d)
        assert alloc.utilization() == 0.0


class TestRouteTokensTwin:
    """route_tokens is the object-free twin of route_flow (SIM006)."""

    KIND_CODE = {RouteKind.DIRECT: 0, RouteKind.INDIRECT: 1,
                 RouteKind.DOUBLE_INDIRECT: 2, RouteKind.BLOCKED: 3}

    def drive(self, route, cls=ScalarIndirectRouter):
        """Push one router through direct, indirect and blocked
        regimes, returning (outcomes, router, allocator)."""
        router, alloc, _ = make_router(n_nodes=5, planes=1, seed=7,
                                       cls=cls)
        outcomes = []
        for src, dst in [(0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
                         (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]:
            outcomes.append(route(router, src, dst))
        return outcomes, router, alloc

    def test_bit_identical_outcomes(self):
        scalar, r_a, alloc_a = self.drive(
            lambda r, s, d: r.route_flow(s, d))
        batch, r_b, alloc_b = self.drive(
            lambda r, s, d: r.route_tokens(s, d), cls=IndirectRouter)
        for decision, (code, hops, reservations) in zip(scalar, batch):
            assert self.KIND_CODE[decision.kind] == code
            assert decision.hops == hops
            assert decision.reservations == reservations

    def test_identical_rng_stats_and_occupancy(self):
        _, r_a, alloc_a = self.drive(lambda r, s, d: r.route_flow(s, d))
        _, r_b, alloc_b = self.drive(
            lambda r, s, d: r.route_tokens(s, d), cls=IndirectRouter)
        # Same RNG stream consumed, same stats, same mispredictions.
        assert r_a.snapshot() == r_b.snapshot()
        # Same allocator mutations, plane for plane.
        for node in range(5):
            assert (alloc_a.free_slots_from(node)
                    == alloc_b.free_slots_from(node)).all()
            assert (alloc_a.free_slots_to(node)
                    == alloc_b.free_slots_to(node)).all()

    def test_twin_stays_identical_with_stale_state(self):
        def drive_stale(route, cls=ScalarIndirectRouter):
            router, alloc, state = make_router(
                n_nodes=5, planes=1, update_period=1000, seed=3,
                cls=cls)
            alloc.allocate(0, 1)
            for mid in (2, 3, 4):
                alloc.allocate(mid, 1)
            return route(router, 0, 1), router

        decision, r_a = drive_stale(lambda r, s, d: r.route_flow(s, d))
        tokens, r_b = drive_stale(lambda r, s, d: r.route_tokens(s, d),
                                  cls=IndirectRouter)
        assert self.KIND_CODE[decision.kind] == tokens[0]
        assert decision.reservations == tokens[2]
        assert r_a.snapshot() == r_b.snapshot()


@st.composite
def fabrics(draw) -> dict:
    """Router construction: size, failed planes, a random pre-fill, a
    (mostly) saturated destination column and stale boards."""
    n = draw(st.integers(3, 20))
    planes = draw(st.integers(1, 5))
    return {
        "n": n,
        "planes": planes,
        "fpw": draw(st.integers(1, 8)),
        "failed": draw(st.sets(st.integers(0, planes - 1),
                               max_size=planes - 1)),
        # None routes on perfect information (no boards).
        "period": draw(st.one_of(st.none(), st.integers(1, 10**6))),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "fill": draw(st.floats(0.0, 1.0)),
        "hot": draw(st.integers(0, n - 1)),
        "saturate": draw(st.floats(0.5, 1.0)),
        # Broadcast the pre-fill before the hot column fills, or leave
        # the boards at the empty fabric they were built with.
        "broadcast": draw(st.booleans()),
    }


def build_fabric(fabric: dict):
    """(router, allocator, state) for one :func:`fabrics` draw."""
    n = fabric["n"]
    alloc = WavelengthAllocator(n_nodes=n, planes=fabric["planes"],
                                flows_per_wavelength=fabric["fpw"])
    for plane in sorted(fabric["failed"]):
        alloc.fail_plane(plane)
    state = None
    if fabric["period"] is not None:
        state = PiggybackState(alloc, update_period=fabric["period"],
                               rng_seed=fabric["seed"])
    rng = np.random.default_rng(fabric["seed"])
    filled = np.nonzero(rng.random((n, n)) < fabric["fill"])
    for src, dst in zip(*(axis.tolist() for axis in filled)):
        free = alloc.free_slots(src, dst)
        if src != dst and free > 0:
            alloc.allocate(src, dst, int(rng.integers(1, free + 1)))
    if state is not None and fabric["broadcast"]:
        state.broadcast_all()
    hot = fabric["hot"]
    for src in np.flatnonzero(rng.random(n) < fabric["saturate"]).tolist():
        free = alloc.free_slots(src, hot)
        if src != hot and free > 0:
            alloc.allocate(src, hot, free)
    router = ScalarIndirectRouter(alloc, state=state,
                                  rng_seed=fabric["seed"])
    return router, alloc, state


def route_calls(n: int):
    """One call: (src, dst offset, slots, via route_flow, state steps,
    release an earlier flow)."""
    return st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                     st.integers(1, 4), st.booleans(), st.integers(0, 3),
                     st.booleans())


class TestStaleWalkOracleTwin:
    """The router picks a flow's whole path before it allocates a hop;
    ``tests.oracles.routing`` keeps the walk that allocated each
    mispredicted candidate's first hop, recursed into the fallback and
    released it. Two routers built alike route the same flows, one
    through production and one through the oracle: outcomes, RNG
    state, stats, stale mispredictions and occupancy must match after
    every call."""

    @given(data=st.data(), fabric=fabrics())
    @settings(max_examples=200, deadline=None)
    def test_router_matches_oracle_call_by_call(self, data, fabric):
        router, alloc, state = build_fabric(fabric)
        twin, twin_alloc, twin_state = build_fabric(fabric)
        n, hot = fabric["n"], fabric["hot"]
        kind_code = TestRouteTokensTwin.KIND_CODE
        carried = []
        plan = data.draw(st.lists(route_calls(n), min_size=1, max_size=40))
        for src, offset, slots, as_flow, steps, release in plan:
            # Flows with an odd offset head for the saturated column.
            dst = hot if offset % 2 and src != hot else (src + offset) % n
            expected = oracle.route(twin, src, dst, slots)
            if as_flow:
                decision = router.route_flow(src, dst, slots)
                assert (kind_code[decision.kind], decision.path,
                        decision.reservations,
                        decision.used_stale_fallback) == expected
            else:
                code, hops, reservations = router.route_tokens(
                    src, dst, slots)
                assert (code, hops, reservations) == (
                    expected[0], len(expected[1]) - 1, expected[2])
            assert router.snapshot() == twin.snapshot()
            assert alloc.snapshot() == twin_alloc.snapshot()
            carried.append(expected[2])
            if release and len(carried) > 1:
                for (a, b, planes) in carried.pop(0):
                    alloc.release(a, b, list(planes))
                    twin_alloc.release(a, b, list(planes))
            for _ in range(steps if state is not None else 0):
                state.step()
                twin_state.step()
