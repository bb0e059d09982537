"""Post-filter masks from cached attribute columns: parity, SQL count,
memory accounting.

The contract: a post-filtered search masks each scanned partition with
the predicate evaluated over that partition's attribute columns, and
returns exactly — ids and distances, bit for bit — what the SQL
qualifying-set fallback returns, on every scan path and every storage
backend, while a warm query issues no SQL against ``attributes``.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest

from repro import (
    And,
    Between,
    DeviceProfile,
    Eq,
    Ge,
    In,
    IsNull,
    Lt,
    Match,
    MicroNN,
    MicroNNConfig,
    Ne,
    Not,
    Or,
    PlanKind,
    ShardedMicroNN,
)
from repro.storage.cache import CACHE_CATEGORY
from tests.conftest import requires_file_backend

DIM = 16
COUNT = 600
K = 10
BACKENDS = ["sqlite-row", "sqlite-packed", "blobfile", "memory"]
COLORS = ["red", "green", "blue", None]

PREDICATES = [
    Lt("bucket", 30),
    And(Ge("bucket", 10), Ne("color", "red")),
    Or(IsNull("score"), Between("score", 0.2, 0.6)),
    Not(In("color", ["red", "blue"])),
    In("bucket", [1, 2.0, 50, True]),
]


def attributes_of(i: int) -> dict:
    return {
        "bucket": i % 100,
        "score": None if i % 7 == 0 else (i % 40) / 40,
        "color": COLORS[i % 4],
    }


def records(vectors, rows, prefix="a"):
    return [(f"{prefix}{i:04d}", vectors[i], attributes_of(i)) for i in rows]


def make_config(backend="sqlite-row", cache_bytes=None, **overrides):
    device = {}
    if cache_bytes is not None:
        device = {
            "device": DeviceProfile(
                name="columnar-test",
                worker_threads=4,
                partition_cache_bytes=cache_bytes,
                sqlite_cache_bytes=1 << 20,
                scratch_buffer_bytes=1 << 22,
            )
        }
    return MicroNNConfig(
        dim=DIM,
        target_cluster_size=25,
        default_nprobe=6,
        kmeans_iterations=10,
        pq_num_subvectors=4,
        storage_backend=backend,
        attributes={"bucket": "INTEGER", "score": "REAL", "color": "TEXT"},
        **device,
        **overrides,
    )


def populate(db, vectors) -> None:
    """Indexed rows, then a delta: fresh ids and overwrites of indexed
    assets whose attributes change with the move."""
    db.upsert_batch(records(vectors, range(COUNT)))
    db.build_index()
    db.upsert_batch(records(vectors, range(COUNT, COUNT + 40)))
    db.upsert_batch(
        (f"a{i:04d}", vectors[i], attributes_of(i + 31))
        for i in range(0, 60, 3)
    )


@pytest.fixture
def vectors(rng):
    centers = rng.normal(size=(8, DIM)) * 6
    picks = rng.integers(0, 8, COUNT + 40)
    noise = rng.normal(size=(COUNT + 40, DIM))
    return (centers[picks] + noise).astype(np.float32)


@pytest.fixture
def sql_fallback(monkeypatch):
    """Context manager under which every row filter takes the SQL
    qualifying-set path — the parent commit's evaluation."""

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.query.executor.columnar_fallback_reason",
                lambda predicate, compile_ctx: "forced",
            )
            yield

    return forced


def answers(search, queries, predicate):
    out = []
    for query in queries:
        result = search(query, predicate)
        stats = result.stats
        assert stats.plan is PlanKind.POST_FILTER
        out.append(
            (
                [(n.asset_id, n.distance) for n in result.neighbors],
                stats.vectors_scanned,
                stats.rows_filtered,
            )
        )
    return out


def assert_parity(search, queries, sql_fallback):
    """Columnar and SQL-fallback runs agree on neighbors (bitwise) and
    on the scanned/filtered counters, predicate by predicate."""
    for predicate in PREDICATES:
        columnar = answers(search, queries, predicate)
        with sql_fallback():
            fallback = answers(search, queries, predicate)
        assert columnar == fallback
        assert any(filtered for _, _, filtered in columnar)
        assert any(neighbors for neighbors, _, _ in columnar)


def post_filter(db):
    return lambda query, predicate: db.search(
        query, k=K, filters=predicate, plan=PlanKind.POST_FILTER
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestParityWithSqlFallback:
    def test_warm_fan_out(self, backend, vectors, sql_fallback):
        with MicroNN.open(config=make_config(backend)) as db:
            populate(db, vectors)
            for query in vectors[:6]:
                db.search(query, k=K)
            assert_parity(post_filter(db), vectors[:6], sql_fallback)
            cached = db.engine.cache.get(-1)
            assert cached is not None and "bucket" in cached.columns

    def test_ordered_scan_with_adaptive_nprobe(
        self, backend, vectors, sql_fallback
    ):
        config = make_config(backend, adaptive_nprobe_margin=0.3)
        with MicroNN.open(config=config) as db:
            populate(db, vectors)
            assert_parity(post_filter(db), vectors[:6], sql_fallback)

    def test_cold_ordered_scan(self, backend, vectors, sql_fallback):
        """Nothing is ever cached: every entry is transient and reads
        its columns inside the scan's own snapshot."""
        with MicroNN.open(config=make_config(backend, cache_bytes=0)) as db:
            populate(db, vectors)
            search = post_filter(db)
            assert_parity(search, vectors[:4], sql_fallback)
            stats = search(vectors[0], PREDICATES[0]).stats
            assert stats.cache_misses and not stats.scan_pipelined
            assert len(db.engine.cache) == 0

    def test_pipelined_cold_scan(
        self, backend, vectors, sql_fallback, force_pipeline
    ):
        config = make_config(backend, cache_bytes=0, pipeline_depth=2)
        with MicroNN.open(config=config) as db:
            populate(db, vectors)
            search = post_filter(db)
            search(vectors[0], PREDICATES[0])  # first cold load observed
            assert_parity(search, vectors[:4], sql_fallback)
            assert search(vectors[0], PREDICATES[0]).stats.scan_pipelined

    @pytest.mark.parametrize("quantization", ["sq8", "pq"])
    def test_quantized_scan_with_rerank(
        self, backend, vectors, sql_fallback, quantization
    ):
        """Code entries carry their own columns (row order differs
        from the float entry's), the over-threshold delta is masked as
        codes, and reranked candidates stay qualifying."""
        config = make_config(
            backend, quantization=quantization, delta_quantize_threshold=20
        )
        with MicroNN.open(config=config) as db:
            populate(db, vectors)
            search = post_filter(db)
            assert_parity(search, vectors[:6], sql_fallback)
            stats = search(vectors[0], PREDICATES[0]).stats
            assert stats.scan_mode == quantization
            assert stats.candidates_reranked
            delta_codes = db.engine.delta_codes.get()
            assert delta_codes is not None
            assert "bucket" in delta_codes.columns

    @pytest.mark.parametrize("cache_bytes", [None, 0], ids=["warm", "cold"])
    def test_search_async(self, backend, vectors, sql_fallback, cache_bytes):
        config = make_config(backend, cache_bytes=cache_bytes)
        with MicroNN.open(config=config) as db:
            populate(db, vectors)

            def served(query, predicate):
                return db.search_async(
                    query, k=K, filters=predicate, plan=PlanKind.POST_FILTER
                ).result(timeout=60)

            assert_parity(served, vectors[:4], sql_fallback)
            for predicate in PREDICATES:
                assert answers(served, vectors[:4], predicate) == answers(
                    post_filter(db), vectors[:4], predicate
                )

    def test_sharded_search(self, backend, tmp_path, vectors, sql_fallback):
        config = make_config(backend)
        path = None if backend == "memory" else tmp_path / "fleet"
        with ShardedMicroNN.open(path, config, shards=3) as db:
            populate(db, vectors)
            assert_parity(post_filter(db), vectors[:6], sql_fallback)


class TestFallbacks:
    def test_mixed_storage_class_column_falls_back_per_entry(
        self, vectors, sql_fallback
    ):
        """A word in an INTEGER column: the entry holding it (here the
        delta) is masked through SQL, the others stay columnar, and
        the answer is the all-SQL one."""
        with MicroNN.open(config=make_config()) as db:
            populate(db, vectors)
            db.upsert_batch(
                (f"a{i:04d}", vectors[i], {"bucket": "word", "color": "red"})
                for i in (100, 200)
            )
            search = post_filter(db)
            assert "columnar(bucket)" in db.explain(Lt("bucket", 30))
            assert_parity(search, vectors[:6], sql_fallback)
            cache = db.engine.cache
            assert cache.get(-1).columns["bucket"] is None
            typed = [
                entry.columns["bucket"]
                for pid in db.engine.partition_sizes()
                if (entry := cache.get(pid)) is not None
                and "bucket" in entry.columns
            ]
            assert typed and None not in typed

    def test_match_and_text_ordering_use_sql(self, vectors):
        config = MicroNNConfig(
            dim=DIM,
            target_cluster_size=25,
            default_nprobe=6,
            attributes={"tags": "TEXT", "bucket": "INTEGER"},
            fts_attributes=("tags",),
        )
        with MicroNN.open(config=config) as db:
            db.upsert_batch(
                (
                    f"a{i:04d}",
                    vectors[i],
                    {"tags": ["cat dog", "elk"][i % 2], "bucket": i % 10},
                )
                for i in range(300)
            )
            db.build_index()
            for predicate, how in [
                (Match("tags", "cat"), "sql (Match)"),
                (Lt("tags", "d"), "sql (TEXT ordering)"),
                (And(Match("tags", "cat"), Lt("bucket", 5)), "sql (Match)"),
            ]:
                assert how in db.explain(predicate)
                result = db.search(
                    vectors[0],
                    k=K,
                    nprobe=99,
                    filters=predicate,
                    plan=PlanKind.POST_FILTER,
                )
                exact = db.search(
                    vectors[0], k=K, filters=predicate, exact=True
                )
                assert result.asset_ids == exact.asset_ids

    def test_explain_names_the_evaluation(self, vectors):
        with MicroNN.open(config=make_config()) as db:
            populate(db, vectors)
            text = db.explain(And(Ge("bucket", 10), Ne("color", "red")))
            assert "filter:           columnar(bucket, color)" in text
            selective = db.explain(Eq("bucket", 1))
            assert "sql (pre-filter plan; post-filter: columnar" in selective


def attribute_statements(db, run) -> list[str]:
    """SQL this thread's reader executed against ``attributes``."""
    statements: list[str] = []
    reader = db.engine._reader()
    reader.set_trace_callback(statements.append)
    try:
        run()
    finally:
        reader.set_trace_callback(None)
    return [s for s in statements if "attributes" in s]


class TestNoPerQuerySql:
    @pytest.mark.parametrize("quantization", ["none", "sq8"])
    def test_warm_filtered_search_issues_no_attribute_sql(
        self, vectors, quantization
    ):
        with MicroNN.open(
            config=make_config(quantization=quantization)
        ) as db:
            populate(db, vectors)
            search = post_filter(db)
            predicate = And(Lt("bucket", 30), Ne("color", "red"))
            first = attribute_statements(
                db, lambda: search(vectors[0], predicate)
            )
            # One read per scanned entry, none for the whole table.
            assert first and all("asset_id IN" in s for s in first)
            warm = attribute_statements(
                db, lambda: search(vectors[0], predicate)
            )
            assert warm == []
            # Another predicate over the same attributes reuses them.
            other = Or(Ge("bucket", 90), Eq("color", "blue"))
            assert not attribute_statements(
                db, lambda: search(vectors[0], other)
            )

    def test_sql_fallback_still_issues_one_statement(
        self, vectors, sql_fallback
    ):
        with MicroNN.open(config=make_config()) as db:
            populate(db, vectors)
            with sql_fallback():
                issued = attribute_statements(
                    db, lambda: post_filter(db)(vectors[0], PREDICATES[0])
                )
            assert len(issued) == 1 and "asset_id IN" not in issued[0]

    def test_unfiltered_search_never_loads_columns(self, vectors):
        with MicroNN.open(config=make_config()) as db:
            populate(db, vectors)
            assert not attribute_statements(
                db, lambda: db.search(vectors[0], k=K)
            )
            for pid in (*db.engine.partition_sizes(), -1):
                entry = db.engine.cache.get(pid)
                assert entry is None or not entry.columns


class TestColumnAccounting:
    def test_column_bytes_are_charged_and_released_with_the_entry(
        self, vectors
    ):
        with MicroNN.open(config=make_config()) as db:
            populate(db, vectors)
            engine = db.engine
            db.search(vectors[0], k=K, nprobe=99)  # every partition cached
            before = engine.cache.used_bytes
            post_filter(db)(vectors[0], Lt("bucket", 30))
            entries = [
                engine.cache.get(pid)
                for pid in (*engine.partition_sizes(), -1)
            ]
            with_columns = [e for e in entries if e and e.columns]
            assert with_columns
            column_bytes = sum(
                e.columns["bucket"].nbytes for e in with_columns
            )
            # int64 values, no NULLs: 8 bytes per masked row.
            assert column_bytes == 8 * sum(len(e) for e in with_columns)
            assert engine.cache.used_bytes == before + column_bytes
            assert engine.cache.used_bytes == sum(
                e.nbytes for e in entries if e is not None
            )
            tracked = db.memory().by_category[CACHE_CATEGORY]
            assert tracked == engine.cache.used_bytes
            victim = with_columns[0]
            engine.cache.invalidate(victim.partition_id)
            assert engine.cache.used_bytes == sum(
                e.nbytes for e in entries if e is not None and e is not victim
            )

    def test_columns_evict_lru_entries_to_stay_in_budget(self, vectors):
        with MicroNN.open(config=make_config()) as db:
            populate(db, vectors)
            db.search(vectors[0], k=K, nprobe=99)
            used = db.engine.cache.used_bytes
        # A budget the vectors just fit: the columns must push LRU
        # entries out rather than overrun it.
        config = make_config(cache_bytes=used + 64)
        with MicroNN.open(config=config) as db:
            populate(db, vectors)
            db.search(vectors[0], k=K, nprobe=99)
            cache = db.engine.cache
            resident = len(cache)
            result = db.search(
                vectors[0],
                k=K,
                nprobe=99,
                filters=Lt("bucket", 30),
                plan=PlanKind.POST_FILTER,
            )
            assert len(result) == K
            assert cache.used_bytes <= cache.budget_bytes
            assert len(cache) < resident

    @requires_file_backend
    def test_columns_read_before_a_write_are_not_attached_after_it(
        self, tmp_path, vectors
    ):
        """The put() guard, for columns: a scan whose snapshot predates
        a write may meet the partition's *post-write* reload in the
        cache. The attributes it reads for it are the old ones — good
        for that scan, never parked on the live entry."""
        db = MicroNN.open(tmp_path / "c.db", make_config())
        try:
            populate(db, vectors)
            engine = db.engine
            flipped = "a0599"
            assert attributes_of(599)["bucket"] == 99
            with engine.read_snapshot():
                engine.load_partition(-1)  # pins the snapshot

                def write_and_reload():
                    db.upsert(flipped, vectors[599], {"bucket": 5})
                    engine.load_partition(-1)

                t = threading.Thread(target=write_and_reload)
                t.start()
                t.join(timeout=30)
                assert not t.is_alive()
                live = engine.cache.get(-1)
                assert flipped in live.asset_ids
                stale = engine.attribute_columns(live, ("bucket",))
                row = live.asset_ids.index(flipped)
                assert stale["bucket"].values[row] == 99
                assert "bucket" not in live.columns
            found = db.search(
                vectors[599],
                k=3,
                filters=Lt("bucket", 10),
                plan=PlanKind.POST_FILTER,
            )
            assert flipped in found.asset_ids
            assert engine.cache.get(-1).columns["bucket"].values[row] == 5
        finally:
            db.close()
