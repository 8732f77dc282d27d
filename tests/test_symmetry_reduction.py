"""Differential suite for the symmetry-reduced compilation path.

Three layers, matching the exactness argument of
:mod:`repro.core.symmetry`:

1. the batched multi-source engine, on the dense and the compiled tier,
   is trace-for-trace identical to the serial engine (including forced
   transmissions and droppable forced) — hypothesis-randomised across
   all four paper topologies;
2. every symmetry-derived sweep member equals direct
   ``compile_broadcast`` output event for event, exhaustively over all
   source positions of small grids (odd shapes included: 1xN, Mx1, 2x2,
   non-square 3D);
3. ``sweep_sources(symmetry=True)`` equals ``symmetry=False`` as whole
   :class:`~repro.analysis.sweep.SweepResult` objects, serial and
   parallel.

Plus the exact-translation guards (:mod:`repro.sim.translate`), the
generic-vs-vectorised ``shift_index_map`` agreement, and the class-profile
cache tier round-trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import sweep_sources
from repro.core import (CompilationError, ScheduleCache, compile_broadcast,
                        protocol_for)
from repro.core.base import RelayPlan
from repro.core.compiler import compile_call_count
from repro.core.symmetry import (ClassMemberResult,
                                 _compile_fixpoint_batch, compile_class,
                                 compile_classes, group_sources)
from repro.sim import (TranslationError, compute_metrics,
                       native_available, run_reactive, run_reactive_multi,
                       translate_compiled)
from repro.topology import Mesh2D3, Mesh2D4, Mesh2D8, Mesh3D6
from repro.topology.base import Topology

from .class_sweep import sweep_compile


def assert_traces_equal(a, b):
    assert sorted(a.tx_events) == sorted(b.tx_events)
    assert sorted(a.rx_events) == sorted(b.rx_events)
    assert sorted(a.collision_events) == sorted(b.collision_events)
    assert sorted(a.dropped_forced) == sorted(b.dropped_forced)
    assert (a.first_rx == b.first_rx).all()
    assert a.source == b.source


def assert_compiled_equal(a, b):
    assert_traces_equal(a.trace, b.trace)
    assert sorted(a.completions) == sorted(b.completions)
    assert sorted(a.repairs) == sorted(b.repairs)
    assert a.rounds == b.rounds
    assert a.schedule.active_slots() == b.schedule.active_slots()
    for slot in a.schedule.active_slots():
        assert a.schedule.transmitters(slot) == b.schedule.transmitters(slot)


TOPOLOGIES = [Mesh2D4(5, 4), Mesh2D8(5, 4), Mesh2D3(6, 4), Mesh3D6(3, 3, 2)]


# ---------------------------------------------------------------------------
# Layer 1: batched multi-source engine == serial engine
# ---------------------------------------------------------------------------

#: The multi-source engine's tiers: the dense Python scheduler and the
#: compiled kernel's C scheduler.
MULTI_ENGINES = [
    "batch",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not native_available(), reason="native kernel unavailable")),
]


@pytest.mark.parametrize("engine", MULTI_ENGINES)
class TestMultiEngineDifferential:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_multi_matches_serial(self, engine, data):
        topo = data.draw(st.sampled_from(TOPOLOGIES))
        n = topo.num_nodes
        trials = data.draw(st.integers(1, 4))
        sources, masks, delays, repeats, forceds = [], [], [], [], []
        for _ in range(trials):
            sources.append(data.draw(st.integers(0, n - 1)))
            masks.append(np.array(
                data.draw(st.lists(st.booleans(), min_size=n, max_size=n))))
            delays.append(np.array(
                data.draw(st.lists(st.integers(0, 2), min_size=n,
                                   max_size=n)), dtype=np.int64))
            repeats.append({
                data.draw(st.integers(0, n - 1)): (1, 3)
                for _ in range(data.draw(st.integers(0, 2)))})
            forceds.append({
                data.draw(st.integers(1, 10)):
                {data.draw(st.integers(0, n - 1))}
                for _ in range(data.draw(st.integers(0, 3)))})
        traces = run_reactive_multi(
            topo, np.asarray(sources), np.stack(masks),
            extra_delays=np.stack(delays),
            repeat_offsets_list=repeats, forced_tx_list=forceds,
            engine=engine)
        for b in range(trials):
            serial = run_reactive(
                topo, sources[b], masks[b], extra_delay=delays[b],
                repeat_offsets=repeats[b], forced_tx=forceds[b])
            assert_traces_equal(traces[b], serial)

    def test_summary_mode_matches_trace_mode(self, engine):
        topo = Mesh2D4(6, 5)
        proto = protocol_for(topo)
        srcs = [topo.index((2, 2)), topo.index((5, 4)), topo.index((1, 1))]
        plans = [proto.relay_plan(topo, topo.coord(s)) for s in srcs]
        kw = dict(
            extra_delays=np.stack([p.extra_delay for p in plans]),
            repeat_offsets_list=[p.repeat_offsets for p in plans])
        masks = np.stack([p.relay_mask for p in plans])
        traces = run_reactive_multi(topo, np.asarray(srcs), masks,
                                    engine=engine, **kw)
        summary = run_reactive_multi(topo, np.asarray(srcs), masks,
                                     summary=True, engine=engine, **kw)
        for b, tr in enumerate(traces):
            assert (summary.first_rx[b] == tr.first_rx).all()
            assert summary.tx_count[b].sum() == tr.num_tx
            assert summary.rx_count[b].sum() == tr.num_rx
            assert summary.collisions[b] == tr.num_collisions


# ---------------------------------------------------------------------------
# Layer 2: symmetry-derived members == direct compilation, exhaustively
# ---------------------------------------------------------------------------

SMALL_GRIDS = [
    Mesh2D4(6, 5), Mesh2D4(1, 7), Mesh2D4(7, 1), Mesh2D4(2, 2),
    Mesh2D8(6, 5), Mesh2D8(2, 2),
    Mesh2D3(6, 5), Mesh2D3(2, 2),
    Mesh3D6(3, 3, 2), Mesh3D6(4, 2, 3),
]


class TestSymmetryExactness:
    @pytest.mark.parametrize(
        "topo", SMALL_GRIDS, ids=lambda t: f"{t.name}-{t.shape}")
    def test_all_sources_equal_direct_compile(self, topo):
        proto = protocol_for(topo)
        sources = [topo.coord(i) for i in range(topo.num_nodes)]
        results = sweep_compile(topo, proto, sources)
        assert results is not None and len(results) == len(sources)
        for src, res in zip(sources, results):
            direct = proto.compile(topo, src)
            assert res.source_index == topo.index(src)
            assert res.metrics(topo) == compute_metrics(direct.trace, topo)
            if res.compiled is not None:
                assert_compiled_equal(res.compiled, direct)

    @pytest.mark.parametrize("completion,repair",
                             [(True, True), (True, False), (False, True),
                              (False, False)])
    @pytest.mark.parametrize(
        "topo", [Mesh2D4(6, 5), Mesh2D8(6, 5), Mesh2D3(6, 5),
                 Mesh3D6(3, 3, 2)], ids=lambda t: f"{t.name}-{t.shape}")
    def test_all_sources_equal_direct_compile_per_option_family(
            self, topo, completion, repair):
        proto = protocol_for(topo)
        sources = [topo.coord(i) for i in range(topo.num_nodes)]
        results = sweep_compile(topo, proto, sources,
                                completion=completion, repair=repair)
        assert results is not None and len(results) == len(sources)
        for src, res in zip(sources, results):
            direct = proto.compile(topo, src, completion=completion,
                                   repair=repair)
            assert res.source_index == topo.index(src)
            assert res.metrics(topo) == compute_metrics(direct.trace, topo)
            if res.compiled is not None:
                assert_compiled_equal(res.compiled, direct)

    def test_batched_fixpoint_raises_the_serial_compile_error(self):
        topo = Mesh2D8(6, 5)
        proto = protocol_for(topo)
        plans = {i: proto.relay_plan(topo, topo.coord(i))
                 for i in range(topo.num_nodes)}
        rounds = {i: compile_broadcast(topo, i, plans[i]).rounds
                  for i in plans}
        needs_fixes = next(i for i in plans if rounds[i] > 1)
        zero_fix = next(i for i in plans if rounds[i] == 1)
        with pytest.raises(CompilationError) as serial:
            compile_broadcast(topo, needs_fixes, plans[needs_fixes],
                              max_rounds=1)
        for batch in ([needs_fixes], [zero_fix, needs_fixes]):
            with pytest.raises(CompilationError) as batched:
                _compile_fixpoint_batch(topo, batch,
                                        [plans[i] for i in batch],
                                        max_rounds=1)
            assert str(batched.value) == str(serial.value)

    @pytest.mark.parametrize("chunk", [None, 3], ids=["default", "chunk3"])
    @pytest.mark.parametrize(
        "topo", [Mesh2D4(9, 7), Mesh2D8(8, 8), Mesh2D3(10, 8),
                 Mesh3D6(4, 4, 4)], ids=lambda t: f"{t.name}-{t.shape}")
    def test_compile_classes_equals_compile_class_per_class(
            self, topo, chunk, monkeypatch):
        """One pass over a shape (representatives batched, members of
        all classes batched) gives each member exactly what the
        single-class entry point gives it; with three members per chunk
        the chunks cut across classes."""
        import repro.core.symmetry as symmetry
        if chunk is not None:
            monkeypatch.setattr(symmetry, "MAX_BATCH_CELLS",
                                chunk * topo.num_nodes)
        proto = protocol_for(topo)
        groups, _ = group_sources(topo, proto, list(topo.iter_coords()))
        classes = [(key, [topo.coord(p) for p in positions])
                   for key, positions in groups.items()]
        got = {}
        for c, i, res in compile_classes(topo, proto, classes):
            assert (c, i) not in got
            got[c, i] = res
        assert len(got) == topo.num_nodes
        vias = set()
        for c, (key, coords) in enumerate(classes):
            for i, want in enumerate(compile_class(topo, proto, key, coords)):
                res = got[c, i]
                vias.add(res.via)
                assert (res.source_index, res.via, res.counts) == (
                    want.source_index, want.via, want.counts)
                assert (res.compiled is None) == (want.compiled is None)
                if want.compiled is not None:
                    assert_compiled_equal(res.compiled, want.compiled)
        assert "representative" in vias and len(vias) > 1

    def test_class_keys_group_only_identical_problems(self):
        # Grouping sanity: members of one class share residue and clamped
        # border distances, and the key is None off-topology.
        topo = Mesh2D4(6, 5)
        proto = protocol_for(topo)
        key_a = proto.source_class_key(topo, (3, 3))
        key_b = proto.source_class_key(topo, (3, 3))
        assert key_a == key_b and key_a is not None
        assert proto.source_class_key(Mesh2D8(6, 5), (3, 3)) is None
        assert proto.source_class_key(topo, (99, 99)) is None

    def test_ungroupable_protocol_returns_none(self):
        from repro.core.baselines.flooding import FloodingProtocol
        topo = Mesh2D4(4, 4)
        proto = FloodingProtocol()
        sources = [topo.coord(i) for i in range(topo.num_nodes)]
        assert sweep_compile(topo, proto, sources) is None


# ---------------------------------------------------------------------------
# Layer 3: whole sweeps, both modes, serial and parallel
# ---------------------------------------------------------------------------

class TestSweepEquivalence:
    @pytest.mark.parametrize("topo", [Mesh2D4(6, 5), Mesh2D8(5, 4),
                                      Mesh2D3(6, 4), Mesh3D6(3, 3, 2)],
                             ids=lambda t: t.name)
    def test_symmetry_sweep_equals_direct(self, topo):
        on = sweep_sources(topo, symmetry=True)
        off = sweep_sources(topo, symmetry=False)
        assert on.metrics == off.metrics
        assert on.topology == off.topology

    def test_symmetry_sweep_parallel_identical(self):
        topo = Mesh2D4(6, 5)
        serial = sweep_sources(topo, symmetry=True)
        par = sweep_sources(topo, symmetry=True, workers=2)
        assert par.metrics == serial.metrics

    def test_in_process_sweep_is_one_class_pass(self, monkeypatch):
        """An in-process sweep batches every class of the shape through
        one ``compile_classes`` call (the cross-class member batch)."""
        import repro.analysis.sweep as sweep_mod
        calls = []

        def spy(topology, protocol, classes, **kw):
            calls.append(len(classes))
            return compile_classes(topology, protocol, classes, **kw)

        monkeypatch.setattr(sweep_mod, "compile_classes", spy)
        topo = Mesh2D4(9, 7)
        groups, _ = group_sources(
            topo, protocol_for(topo),
            [topo.coord(i) for i in range(topo.num_nodes)])
        sweep_sources(topo, workers=1)
        assert calls == [len(groups)]

    def test_symmetry_reduces_compile_calls(self):
        topo = Mesh2D4(9, 7)
        before = compile_call_count()
        sweep_sources(topo, symmetry=True)
        sym_calls = compile_call_count() - before
        before = compile_call_count()
        sweep_sources(topo, symmetry=False)
        direct_calls = compile_call_count() - before
        assert direct_calls == topo.num_nodes
        assert sym_calls < direct_calls / 2

    def test_warm_class_profiles_skip_all_compiles(self, tmp_path):
        topo = Mesh2D4(6, 5)
        cache = ScheduleCache(tmp_path / "sched")
        first = sweep_sources(topo, symmetry=True, cache=cache)
        before = compile_call_count()
        warm_cache = ScheduleCache(tmp_path / "sched")
        second = sweep_sources(topo, symmetry=True, cache=warm_cache)
        assert second.metrics == first.metrics
        # Profiles predict zero-fix for every 2D-4 class, so the warm
        # sweep derives everything with the batched engine: the only
        # compile_broadcast calls allowed are all-reached fallbacks
        # (none on this grid).
        assert compile_call_count() - before == 0


# ---------------------------------------------------------------------------
# Exact translation: guards and applicability
# ---------------------------------------------------------------------------

class TestTranslateCompiled:
    def _sub_spanning(self, topo, src_coord):
        """A broadcast that informs only the source's neighbourhood."""
        plan = RelayPlan.empty(topo.num_nodes)
        return compile_broadcast(
            topo, topo.index(src_coord), plan,
            completion=False, repair=False)

    def test_exact_on_sub_spanning_broadcast(self):
        topo = Mesh2D4(8, 8)
        compiled = self._sub_spanning(topo, (4, 4))
        assert not compiled.trace.all_reached
        moved = translate_compiled(topo, compiled, (2, 1))
        # Re-simulating the translated plan from the translated source
        # must reproduce the translated trace event for event.
        redone = compile_broadcast(
            topo, moved.source, moved.plan,
            completion=False, repair=False)
        assert_traces_equal(moved.trace, redone.trace)
        assert moved.source == topo.index((6, 5))

    def test_zero_delta_is_identity(self):
        topo = Mesh2D8(5, 4)
        compiled = protocol_for(topo).compile(topo, (3, 2))
        same = translate_compiled(topo, compiled, (0, 0))
        assert_compiled_equal(same, compiled)

    def test_raises_on_spanning_broadcast(self):
        topo = Mesh2D4(6, 5)
        compiled = protocol_for(topo).compile(topo, (3, 3))
        assert compiled.trace.all_reached
        with pytest.raises(TranslationError):
            translate_compiled(topo, compiled, (1, 0))

    def test_raises_when_footprint_leaves_grid(self):
        topo = Mesh2D4(8, 8)
        compiled = self._sub_spanning(topo, (4, 4))
        with pytest.raises(TranslationError):
            translate_compiled(topo, compiled, (5, 0))


class TestShiftIndexMap:
    @pytest.mark.parametrize(
        "topo,delta", [(Mesh2D4(5, 4), (1, -2)), (Mesh2D8(4, 5), (-1, 0)),
                       (Mesh2D3(5, 4), (2, 1)), (Mesh3D6(3, 3, 2),
                                                 (1, -1, 1))],
        ids=lambda v: str(v))
    def test_vectorized_matches_generic(self, topo, delta):
        mapped, valid = topo.shift_index_map(delta)
        ref_mapped, ref_valid = Topology.shift_index_map(topo, delta)
        assert (mapped == ref_mapped).all()
        assert (valid == ref_valid).all()


class TestClassProfileCache:
    def test_round_trip_memory_and_disk(self, tmp_path):
        topo = Mesh2D4(4, 4)
        cache = ScheduleCache(tmp_path / "sched")
        key = ("2D-4", 1, 0, 2, 1, 1)
        profile = {"zero_fix": True, "rounds": 1}
        assert cache.class_profile(topo, "2D-4", key) is None
        cache.store_class_profile(topo, "2D-4", key, profile)
        assert cache.class_profile(topo, "2D-4", key) == profile
        cache.clear_memory()
        assert cache.class_profile(topo, "2D-4", key) == profile
        # A memory-only cache forgets on clear.
        mem = ScheduleCache()
        mem.store_class_profile(topo, "2D-4", key, profile)
        mem.clear_memory()
        assert mem.class_profile(topo, "2D-4", key) is None

    def test_distinct_keys_distinct_entries(self, tmp_path):
        topo = Mesh2D4(4, 4)
        cache = ScheduleCache(tmp_path / "sched")
        cache.store_class_profile(topo, "2D-4", ("a",), {"zero_fix": True})
        assert cache.class_profile(topo, "2D-4", ("b",)) is None
        assert cache.class_profile(topo, "2D-8", ("a",)) is None
