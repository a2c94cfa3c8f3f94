"""Tests for the multi-process sharded serving tier.

The bars this suite enforces:

* **Byte-identity.** Point and bulk answers from
  :class:`~repro.serving.ShardedDistanceService` equal the
  single-process oracle exactly — including ``inf`` for disconnected
  pairs — and ``query_many`` reassembles sub-batches in submission
  order.
* **Snapshot re-map after dynamic updates.** After ``insert_edge`` /
  ``delete_edge`` returns, every worker answers on the updated graph
  (byte-identical to a fresh build), and stale cache entries are gone.
* **Cache correctness.** The LRU bound, version invalidation, and the
  stale-put rejection that keeps pre-update distances from resurfacing
  — including under concurrent mixed read/write load.
* **Integration.** The sharded service slots behind the factories
  (``shards=N``) and the thread-coalescing ``DistanceService``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import build_oracle, capabilities_of, make_oracle, open_oracle
from repro.api.protocol import Capability
from repro.errors import (
    ReproError,
    ServiceClosedError,
    VertexError,
)
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.graph import Graph
from repro.graphs.sampling import sample_vertex_pairs
from repro.serving import DistanceService, QueryCache, ShardedDistanceService
from repro.serving.sharded import route_of


@pytest.fixture(scope="module")
def sharded_graph() -> Graph:
    return barabasi_albert_graph(500, 3, seed=23)


@pytest.fixture(scope="module")
def reference_oracle(sharded_graph):
    return build_oracle(sharded_graph, "hl", num_landmarks=8)


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory, reference_oracle):
    path = tmp_path_factory.mktemp("sharded") / "index.hl"
    reference_oracle.save(path)
    return path


@pytest.fixture()
def sharded(sharded_graph, snapshot_path):
    service = ShardedDistanceService.from_snapshot(
        sharded_graph, snapshot_path, shards=2
    )
    yield service
    service.close()


class TestQueryCache:
    def test_put_get_and_symmetry(self):
        cache = QueryCache(capacity=4)
        assert cache.put(3, 5, 2.0, cache.version)
        assert cache.get(3, 5) == 2.0
        assert cache.get(5, 3) == 2.0  # normalized (undirected) key

    def test_miss_returns_none_and_counts(self):
        cache = QueryCache(capacity=4)
        assert cache.get(1, 2) is None
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = QueryCache(capacity=2)
        cache.put(0, 1, 1.0, 0)
        cache.put(2, 3, 2.0, 0)
        cache.get(0, 1)  # refresh (0,1); (2,3) is now LRU
        cache.put(4, 5, 3.0, 0)
        assert cache.get(2, 3) is None
        assert cache.get(0, 1) == 1.0
        assert cache.get(4, 5) == 3.0
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_invalidate_drops_entries_and_bumps_version(self):
        cache = QueryCache(capacity=4)
        cache.put(0, 1, 1.0, 0)
        cache.invalidate()
        assert cache.get(0, 1) is None
        assert cache.version == 1

    def test_stale_put_rejected(self):
        cache = QueryCache(capacity=4)
        stamp = cache.version
        cache.invalidate()  # an update completed while "in flight"
        assert not cache.put(0, 1, 1.0, stamp)
        assert cache.get(0, 1) is None
        assert cache.stats()["stale_rejects"] == 1

    def test_zero_capacity_disables(self):
        cache = QueryCache(capacity=0)
        assert not cache.put(0, 1, 1.0, 0)
        assert cache.get(0, 1) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=-1)


class TestRouting:
    def test_route_is_deterministic_and_symmetric(self):
        for s, t in [(0, 1), (7, 3), (100, 100), (5, 999)]:
            assert route_of(s, t, 4) == route_of(t, s, 4)
            assert 0 <= route_of(s, t, 4) < 4

    def test_routes_spread_over_workers(self):
        routes = {route_of(s, t, 4) for s in range(20) for t in range(20)}
        assert routes == {0, 1, 2, 3}


class TestShardedExactness:
    def test_bulk_byte_identical_and_ordered(
        self, sharded, sharded_graph, reference_oracle
    ):
        pairs = sample_vertex_pairs(sharded_graph, 400, seed=5)
        expected = reference_oracle.query_many(pairs)
        got = sharded.query_many(pairs)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_point_queries_byte_identical(
        self, sharded, sharded_graph, reference_oracle
    ):
        pairs = sample_vertex_pairs(sharded_graph, 64, seed=6)
        for s, t in pairs:
            assert sharded.query(int(s), int(t)) == reference_oracle.query(
                int(s), int(t)
            )

    def test_cache_serves_repeats(self, sharded):
        first = sharded.query(3, 400)
        hits_before = sharded.stats()["cache"]["hits"]
        assert sharded.query(3, 400) == first
        assert sharded.query(400, 3) == first  # symmetric key
        assert sharded.stats()["cache"]["hits"] == hits_before + 2

    def test_disconnected_pairs_serve_inf(self, tmp_path):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4)], name="split")
        oracle = build_oracle(graph, "hl", num_landmarks=2)
        path = tmp_path / "split.hl"
        oracle.save(path)
        with ShardedDistanceService.from_snapshot(graph, path, shards=2) as svc:
            assert svc.query(0, 3) == float("inf")
            assert svc.query(0, 2) == 2.0
            assert np.array_equal(
                svc.query_many([(0, 3), (3, 4), (5, 0)]),
                np.array([np.inf, 1.0, np.inf]),
            )

    def test_empty_batch(self, sharded):
        assert len(sharded.query_many(np.empty((0, 2), dtype=np.int64))) == 0

    def test_pipelined_futures(self, sharded, reference_oracle, sharded_graph):
        pairs = sample_vertex_pairs(sharded_graph, 128, seed=9)
        futures = [sharded.query_async(int(s), int(t)) for s, t in pairs]
        got = [f.result() for f in futures]
        expected = [reference_oracle.query(int(s), int(t)) for s, t in pairs]
        assert got == expected
        stats = sharded.stats()
        # Pipelined submission must coalesce: fewer worker round trips
        # than queries.
        assert stats["batches"] < len(pairs)
        assert stats["batch_occupancy"] > 1.0


class TestThreadedWorkers:
    """N processes × M threads compose: every worker runs its own
    :class:`~repro.serving.QueryExecutor` over the no-GIL kernels."""

    def test_two_by_two_compose_byte_identical(
        self, sharded_graph, snapshot_path, reference_oracle
    ):
        pairs = sample_vertex_pairs(sharded_graph, 600, seed=61)
        expected = reference_oracle.query_many(pairs)
        with ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2, threads=2
        ) as svc:
            got = svc.query_many(pairs)
            for s, t in pairs[:16]:
                assert svc.query(int(s), int(t)) == reference_oracle.query(
                    int(s), int(t)
                )
            stats = svc.stats()
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert stats["threads"] == 2

    def test_stats_report_per_shard_executors(
        self, sharded_graph, snapshot_path
    ):
        pairs = sample_vertex_pairs(sharded_graph, 512, seed=67)
        with ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2, threads=2
        ) as svc:
            svc.query_many(pairs)
            per_shard = svc.stats()["executor_per_shard"]
        assert len(per_shard) == 2
        for executor_stats in per_shard:
            assert executor_stats is not None
            assert executor_stats["threads"] == 2
            assert len(executor_stats["per_thread"]) <= 2
            assert (
                executor_stats["parallel_batches"]
                + executor_stats["sequential_batches"]
            ) >= 1

    def test_invalid_threads_rejected(self, sharded_graph, snapshot_path):
        with pytest.raises(ValueError, match="at least 1"):
            ShardedDistanceService.from_snapshot(
                sharded_graph, snapshot_path, shards=2, threads=0
            )

    def test_closed_service_stats_degrade_gracefully(
        self, sharded_graph, snapshot_path
    ):
        svc = ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2, threads=2
        )
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.query(0, 1)


class TestDynamicUpdatePropagation:
    def test_workers_see_post_update_distances(
        self, sharded_graph, snapshot_path
    ):
        u, v = 0, 499
        assert not sharded_graph.has_edge(u, v)
        with ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2
        ) as svc:
            before = svc.query(u, v)
            assert before > 1.0
            affected = svc.insert_edge(u, v)
            assert affected  # endpoints at different levels somewhere
            assert svc.version() == 1
            # The cached pre-update distance must be gone.
            assert svc.query(u, v) == 1.0
            # Every worker answers on the updated graph, byte-identical
            # to a fresh build (bulk batches touch both workers).
            fresh = build_oracle(
                sharded_graph.with_edges_added([(u, v)]), "hl", num_landmarks=8
            )
            pairs = sample_vertex_pairs(sharded_graph, 300, seed=11)
            assert np.array_equal(svc.query_many(pairs), fresh.query_many(pairs))
            # And each point route (both shards) agrees too.
            for s, t in pairs[:32]:
                assert svc.query(int(s), int(t)) == fresh.query(int(s), int(t))

    def test_delete_edge_round_trip(
        self, sharded_graph, snapshot_path, reference_oracle
    ):
        u, v = 0, 499
        with ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2
        ) as svc:
            svc.insert_edge(u, v)
            svc.delete_edge(u, v)
            assert svc.version() == 2
            pairs = sample_vertex_pairs(sharded_graph, 200, seed=12)
            assert np.array_equal(
                svc.query_many(pairs), reference_oracle.query_many(pairs)
            )

    def test_stale_cache_entries_evicted(
        self, sharded_graph, snapshot_path
    ):
        u, v = 1, 498
        with ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2
        ) as svc:
            primed = [(int(s), int(t)) for s, t in
                      sample_vertex_pairs(sharded_graph, 50, seed=13)]
            for s, t in primed:
                svc.query(s, t)
            assert len(svc.cache) > 0
            svc.insert_edge(u, v)
            assert len(svc.cache) == 0
            assert svc.cache.stats()["invalidations"] == 1


class TestCacheUnderConcurrentLoad:
    def test_mixed_read_write_never_leaves_stale_entries(
        self, sharded_graph, snapshot_path
    ):
        """Readers hammer the cache while a writer inserts and deletes
        edges; afterwards every surviving cache entry must equal the
        final graph's exact distance (no pre-update value survives)."""
        rng = np.random.default_rng(7)
        pairs = sample_vertex_pairs(sharded_graph, 600, seed=17)
        with ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2, cache_size=512
        ) as svc:
            errors: list = []
            stop = threading.Event()

            def reader() -> None:
                try:
                    while not stop.is_set():
                        i = int(rng.integers(len(pairs)))
                        svc.query(int(pairs[i, 0]), int(pairs[i, 1]))
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            readers = [threading.Thread(target=reader) for _ in range(4)]
            for r in readers:
                r.start()
            updates = [
                (u, v)
                for u, v in [(2, 497), (3, 496), (4, 495), (5, 494), (6, 493)]
                if not sharded_graph.has_edge(u, v)
            ][:3]
            assert len(updates) == 3
            for u, v in updates:
                svc.insert_edge(u, v)
            svc.delete_edge(*updates[0])
            stop.set()
            for r in readers:
                r.join()
            assert not errors
            final_graph = sharded_graph.with_edges_added(updates[1:])
            fresh = build_oracle(final_graph, "hl", num_landmarks=8)
            for (s, t), value in svc.cache.items().items():
                assert value == fresh.query(s, t)
            # And the serving path agrees with the fresh build everywhere.
            check = sample_vertex_pairs(sharded_graph, 200, seed=18)
            assert np.array_equal(
                svc.query_many(check), fresh.query_many(check)
            )


class TestFactoryAndFacadeIntegration:
    def test_make_oracle_shards_returns_unbuilt_service(self):
        svc = make_oracle("hl", shards=2, num_landmarks=6)
        assert isinstance(svc, ShardedDistanceService)
        with pytest.raises(ReproError):
            svc.query(0, 1)  # not built yet

    def test_make_oracle_shards_one_is_plain(self):
        oracle = make_oracle("hl", shards=1, num_landmarks=6)
        assert not isinstance(oracle, ShardedDistanceService)

    def test_open_oracle_with_shards_and_index(
        self, sharded_graph, snapshot_path, reference_oracle
    ):
        svc = open_oracle(sharded_graph, index=snapshot_path, shards=2)
        try:
            assert isinstance(svc, ShardedDistanceService)
            assert svc.query(5, 250) == reference_oracle.query(5, 250)
            assert capabilities_of(svc) == frozenset(
                {
                    Capability.BATCH,
                    Capability.DYNAMIC,
                    Capability.SNAPSHOT,
                    Capability.PATHS,
                }
            )
        finally:
            svc.close()

    def test_open_oracle_forwards_explicit_mmap_false(
        self, sharded_graph, snapshot_path, reference_oracle
    ):
        # Workers read the snapshot into RAM instead of mapping it;
        # answers are unchanged.
        svc = open_oracle(
            sharded_graph, index=snapshot_path, shards=2, mmap=False
        )
        try:
            assert svc.mmap is False
            assert svc.query(5, 250) == reference_oracle.query(5, 250)
        finally:
            svc.close()

    def test_non_snapshot_method_rejected(self):
        with pytest.raises(ValueError, match="snapshot"):
            make_oracle("pll", shards=2)

    def test_nonpositive_shards_rejected_at_the_factories(
        self, sharded_graph
    ):
        # Only None/1 mean single-process; 0 or negative (e.g. a
        # computed worker count that bottomed out) must raise, exactly
        # as direct ShardedDistanceService construction does.
        for bad in (0, -2):
            with pytest.raises(ValueError, match="at least 1"):
                make_oracle("hl", shards=bad)
            with pytest.raises(ValueError, match="at least 1"):
                open_oracle(sharded_graph, shards=bad)

    def test_distance_service_hosts_sharded_backend(
        self, sharded_graph, snapshot_path, reference_oracle
    ):
        pairs = sample_vertex_pairs(sharded_graph, 100, seed=21)
        expected = reference_oracle.query_many(pairs)
        with ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2
        ) as backend:
            with DistanceService(max_wait_ms=0.5) as service:
                service.register("g", backend)
                got = np.array(
                    [service.query("g", int(s), int(t)) for s, t in pairs]
                )
                service.insert_edge("g", 6, 490)
                after = service.query("g", 6, 490)
        assert np.array_equal(got, expected)
        assert after == 1.0

    def test_facade_close_shuts_down_owned_sharded_backend(
        self, sharded_graph, snapshot_path
    ):
        with DistanceService(max_wait_ms=0.5) as service:
            service.open(
                "g", sharded_graph, index=snapshot_path, shards=2
            )
            backend = service.oracle("g")
            assert isinstance(backend, ShardedDistanceService)
            assert service.query("g", 3, 250) == backend.query(3, 250)
            processes = [shard.process for shard in backend._workers]
        # Exiting the facade must also close the service-owned sharded
        # backend: workers reaped, further use refused.
        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive()
        with pytest.raises(ServiceClosedError):
            backend.query(3, 250)

    def test_open_register_failure_closes_the_opened_oracle(
        self, sharded_graph, snapshot_path, monkeypatch
    ):
        """If register rejects (duplicate name), the oracle that open
        just built must be closed, not leaked with live workers."""
        import repro.api.factory as factory

        opened = []
        real_open = factory.open_oracle

        def spy(source, **kw):
            oracle = real_open(source, **kw)
            opened.append(oracle)
            return oracle

        monkeypatch.setattr(factory, "open_oracle", spy)
        with DistanceService(max_wait_ms=0.5) as service:
            service.open("g", sharded_graph, index=snapshot_path, shards=2)
            with pytest.raises(ReproError, match="already registered"):
                service.open(
                    "g", sharded_graph, index=snapshot_path, shards=2
                )
            assert len(opened) == 2
            doomed = opened[1]
            for shard in doomed._workers:
                shard.process.join(timeout=10)
                assert not shard.process.is_alive()
            with pytest.raises(ServiceClosedError):
                doomed.query(0, 1)
            # The survivor keeps serving.
            assert service.query("g", 3, 250) == opened[0].query(3, 250)

    def test_snapshot_and_paths_capabilities(
        self, sharded, reference_oracle, tmp_path
    ):
        out = tmp_path / "resaved.hl"
        assert sharded.save(out) > 0
        assert sharded.size_bytes() == reference_oracle.size_bytes()
        assert sharded.average_label_size() == pytest.approx(
            reference_oracle.average_label_size()
        )
        path = sharded.shortest_path(3, 250)
        assert path is not None
        assert len(path) - 1 == sharded.query(3, 250)


class TestCLI:
    def test_shard_bench_command(self, capsys):
        from repro.cli import main

        assert main(
            [
                "shard-bench",
                "--n", "400",
                "--pairs", "120",
                "--shards", "2",
                "--batches", "2",
                "-k", "6",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded x2" in out
        assert "match single-process query_many" in out

    def test_serve_bench_with_shards(self, capsys):
        from repro.cli import main

        assert main(
            [
                "serve-bench",
                "--n", "400",
                "--queries", "120",
                "--threads", "4",
                "--shards", "2",
                "-k", "6",
            ]
        ) == 0
        assert "match looped oracle.query" in capsys.readouterr().out


class TestErrorPaths:
    def test_bad_vertex_raises_in_caller(self, sharded):
        with pytest.raises(VertexError):
            sharded.query(0, 10_000)

    def test_closed_service_raises(self, sharded_graph, snapshot_path):
        svc = ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2
        )
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.query(0, 1)
        svc.close()  # idempotent

    def test_unbuilt_rejects_queries(self):
        svc = ShardedDistanceService(2, num_landmarks=4)
        with pytest.raises(ReproError):
            svc.query_many([(0, 1)])

    def test_double_build_rejected(self, sharded, sharded_graph):
        with pytest.raises(ReproError):
            sharded.build(sharded_graph)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ShardedDistanceService(0)

    def test_failed_update_broadcast_poisons_shard(
        self, sharded_graph, snapshot_path
    ):
        """A shard that misses an update must fail loudly afterwards,
        never silently serve (and re-cache) pre-update distances."""
        from repro.errors import ShardError

        svc = ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2
        )
        try:
            victim = svc._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=10)
            with pytest.raises(ShardError):
                svc.insert_edge(10, 480)
            # The dead shard is poisoned: work routed to it raises
            # instead of returning stale answers...
            with pytest.raises(ShardError):
                svc.query_many(
                    sample_vertex_pairs(sharded_graph, 50, seed=30)
                )
            # ...and the cache was still flushed (version bumped), so no
            # pre-update entry survives either.
            assert len(svc.cache) == 0
            assert svc.version() == 1
        finally:
            svc.close()

    def test_broadcast_reaches_shards_past_a_poisoned_one(
        self, sharded_graph, snapshot_path
    ):
        """A submit failure on an early shard must not abort the update
        broadcast: every later shard still receives and applies the
        update, so no live shard is left silently serving pre-update
        distances."""
        from repro.errors import ShardError

        svc = ShardedDistanceService.from_snapshot(
            sharded_graph, snapshot_path, shards=2
        )
        try:
            # An absent edge whose point route is shard 1, so shard 1's
            # post-update answer is directly observable.
            u, v = next(
                (s, t)
                for s in range(50)
                for t in range(450, 500)
                if not sharded_graph.has_edge(s, t)
                and route_of(s, t, 2) == 1
            )
            assert svc.query(u, v) > 1.0
            svc._workers[0].poison()  # shard 0 rejects the broadcast
            with pytest.raises(ShardError):
                svc.insert_edge(u, v)
            assert svc.version() == 1
            # Shard 1 was still told: the hash-routed point query (the
            # cache was flushed) answers on the post-insert graph.
            assert svc.query(u, v) == 1.0
            # And the snapshot bookkeeping followed the partial
            # failure: the acked shards re-mapped to the published
            # generation, so stats() must name it, not the old file.
            assert svc.stats()["snapshot"].split("/")[-1].startswith("gen-")
            # While anything routed to the poisoned shard fails loudly.
            s0, t0 = next(
                (s, t)
                for s in range(50)
                for t in range(450, 500)
                if route_of(s, t, 2) == 0
            )
            with pytest.raises(ShardError):
                svc.query(s0, t0)
        finally:
            svc.close()

    def test_failed_build_releases_spool_and_workers(
        self, sharded_graph, tmp_path
    ):
        """A build that dies (here: unreadable index) must close what it
        already opened — no lingering spool directory or workers."""
        svc = ShardedDistanceService(2, index=tmp_path / "missing.hl")
        with pytest.raises((OSError, ReproError)):
            svc.build(sharded_graph)
        assert svc._workers == []
        assert not svc._spool.directory.exists()
        with pytest.raises(ReproError):
            svc.build(sharded_graph)  # closed, not half-started

    def test_constructor_options_with_index_rejected(
        self, sharded_graph, snapshot_path
    ):
        """Serving an existing snapshot never consults the method
        constructor — passing its options is an error, exactly as on
        the single-process open_oracle path."""
        with pytest.raises(ValueError, match="ignored"):
            ShardedDistanceService(2, index=snapshot_path, num_landmarks=4)
        with pytest.raises(ValueError, match="ignored"):
            open_oracle(
                sharded_graph, index=snapshot_path, shards=2, num_landmarks=4
            )

    def test_insert_existing_edge_fails_cleanly(self, sharded, sharded_graph):
        u, v = next(iter(sharded_graph.edges()))
        with pytest.raises(ValueError, match="already exists"):
            sharded.insert_edge(u, v)
        # The failed update must not have bumped the version or
        # poisoned the workers.
        assert sharded.version() == 0
        assert sharded.query(u, v) == 1.0


class TestStatsTimeout:
    """Satellite: the stats IPC verb is timeout-bounded (one hung shard
    degrades the report to partial, naming the stale shard — it can
    never block ``stats()`` indefinitely)."""

    @staticmethod
    def _delay_stats(shard, delay_s: float):
        """Wrap ``shard._roundtrip`` so its ``stats`` round trip hangs."""
        import time as _time

        original = shard._roundtrip

        def slow(payload):
            if payload and payload[0] == "stats":
                _time.sleep(delay_s)
            return original(payload)

        shard._roundtrip = slow
        return original

    def test_hung_shard_degrades_to_partial_report(self, sharded):
        import time as _time

        baseline = sharded.stats()
        assert baseline["stale_shards"] == []
        assert all(e is not None for e in baseline["executor_per_shard"])

        original = self._delay_stats(sharded._workers[0], delay_s=1.5)
        try:
            t0 = _time.perf_counter()
            report = sharded.stats(timeout_s=0.2)
            elapsed = _time.perf_counter() - t0
            # Bounded: the hung shard cost at most ~timeout_s, not 1.5s.
            assert elapsed < 1.0
            # Partial, and the stale shard is named.
            assert report["stale_shards"] == [0]
            assert report["executor_per_shard"][0] is None
            assert report["executor_per_shard"][1] is not None
            # Locally held counters are still served in full.
            assert report["shards"] == 2
            assert "cache" in report and "per_shard" in report
        finally:
            sharded._workers[0]._roundtrip = original

        # The shard was slow, not dead: once it drains, a later stats()
        # call is complete again and queries still work.
        _time.sleep(1.6)
        recovered = sharded.stats()
        assert recovered["stale_shards"] == []
        assert all(e is not None for e in recovered["executor_per_shard"])

    def test_shared_deadline_across_multiple_hung_shards(self, sharded):
        import time as _time

        originals = [
            self._delay_stats(shard, delay_s=1.5)
            for shard in sharded._workers
        ]
        try:
            t0 = _time.perf_counter()
            report = sharded.stats(timeout_s=0.2)
            elapsed = _time.perf_counter() - t0
            # One shared deadline: two hung shards still cost ~timeout_s
            # total, not timeout_s each.
            assert elapsed < 1.0
            assert report["stale_shards"] == [0, 1]
            assert report["executor_per_shard"] == [None, None]
        finally:
            for shard, original in zip(sharded._workers, originals):
                shard._roundtrip = original
        _time.sleep(1.7)
        assert sharded.stats()["stale_shards"] == []
