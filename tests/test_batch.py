"""Batch engine tests: equivalence, caching, isolation, CLI wiring."""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sys
import threading
import time

import pytest

import repro.core.persist as persist
import repro.service.batch as batch_module
import repro.service.cache as cache_module
from repro.cli import main
from repro.core.persist import (
    SECTION_RESULT_META,
    decode_summary_payload,
    read_container_trailer,
    summary_to_bytes,
    summary_to_dict,
)
from repro.core.pipeline import analyze_side_effects, result_meta
from repro.service.batch import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    discover_files,
    run_batch,
)
from repro.service.cache import SummaryCache, _meta_crc, content_key, encode_record
from repro.service.stats import STATS_SCHEMA_VERSION, aggregate_stats, write_stats_json
from repro.workloads import patterns
from repro.workloads.files import write_generated_corpus, write_handwritten_corpus
from repro.workloads.generator import GeneratorConfig

N_FILES = 8


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_generated_corpus(
        str(root), N_FILES, base_seed=300,
        config=GeneratorConfig(num_procs=10, num_globals=5),
    )
    return str(root)


def _summaries(report):
    return {
        os.path.basename(r.path): json.dumps(
            decode_summary_payload(r.container), sort_keys=True
        )
        for r in report.results
        if r.ok
    }


def assert_records_match_scratch(report):
    """Every file's record decodes to a scratch analysis of its source."""
    for record in report.results:
        with open(record.path) as handle:
            source = handle.read()
        direct = summary_to_dict(analyze_side_effects(source))
        assert decode_summary_payload(record.container) == direct, record.path


class TestEquivalence:
    def test_batch_equals_per_file_analysis(self, corpus_dir):
        report = run_batch(corpus_dir, jobs=1, cache_dir=None)
        assert report.ok_count == N_FILES
        assert_records_match_scratch(report)

    def test_parallel_equals_sequential(self, corpus_dir):
        sequential = run_batch(corpus_dir, jobs=1, cache_dir=None)
        parallel = run_batch(corpus_dir, jobs=4, cache_dir=None)
        assert parallel.jobs > 1
        assert _summaries(sequential) == _summaries(parallel)

    def test_results_in_sorted_path_order(self, corpus_dir):
        report = run_batch(corpus_dir, jobs=2, cache_dir=None)
        paths = [r.path for r in report.results]
        assert paths == sorted(paths)


class TestCache:
    def test_warm_run_is_all_hits_and_byte_identical(self, corpus_dir, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(corpus_dir, jobs=1, cache_dir=cache_dir)
        assert cold.cache_stats.hits == 0
        assert cold.cache_stats.misses == N_FILES
        assert cold.cache_stats.stores == N_FILES

        warm = run_batch(corpus_dir, jobs=1, cache_dir=cache_dir)
        assert warm.cache_stats.hits == N_FILES
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hit_rate() == 1.0
        assert warm.analyzed_count == 0
        assert all(r.cached for r in warm.results)
        assert _summaries(cold) == _summaries(warm)

    def test_warm_run_does_zero_solver_work(self, corpus_dir, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_batch(corpus_dir, jobs=1, cache_dir=cache_dir)
        warm_stats = aggregate_stats(run_batch(corpus_dir, jobs=1, cache_dir=cache_dir))
        assert warm_stats["ops"]["bit_vector_steps"] == 0
        assert warm_stats["corpus"]["analyzed"] == 0

    def test_edited_file_misses_only_itself(self, tmp_path):
        root = tmp_path / "corpus"
        paths = write_generated_corpus(
            str(root), 4, base_seed=40,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        cache_dir = str(tmp_path / "cache")
        run_batch(str(root), jobs=1, cache_dir=cache_dir)
        with open(paths[0], "a") as handle:
            handle.write("\n")
        rerun = run_batch(str(root), jobs=1, cache_dir=cache_dir)
        assert rerun.cache_stats.hits == 3
        assert rerun.cache_stats.misses == 1
        assert rerun.analyzed_count == 1

    def test_no_cache_dir_means_no_cache(self, corpus_dir):
        report = run_batch(corpus_dir, jobs=1, cache_dir=None)
        assert report.cache_stats is None
        assert report.cached_count == 0


class TestCacheBound:
    """The ``max_entries`` LRU bound on the disk summary cache."""

    def _record(self, tag):
        return encode_record(analyze_side_effects(patterns.chain(1 + tag)))

    def test_eviction_caps_entry_count(self, tmp_path):
        from repro.service.cache import SummaryCache

        cache = SummaryCache(str(tmp_path), max_entries=2)
        for index in range(5):
            cache.put("k%d" % index, self._record(index))
        entries = [n for n in os.listdir(str(tmp_path)) if n.endswith(".ckb")]
        assert len(entries) == 2
        assert cache.stats.evictions == 3
        assert cache.stats.to_dict()["evictions"] == 3

    def test_eviction_is_mtime_lru_and_get_refreshes(self, tmp_path):
        from repro.service.cache import SummaryCache

        cache = SummaryCache(str(tmp_path), max_entries=2)
        cache.put("old", self._record(0))
        cache.put("hot", self._record(1))
        # Make recency unambiguous regardless of filesystem timestamp
        # granularity, then touch "old" through a hit.
        os.utime(cache.path_for("old"), (1000, 1000))
        os.utime(cache.path_for("hot"), (2000, 2000))
        assert cache.get("old") is not None  # Refreshes "old" to now.
        cache.put("new", self._record(2))  # Evicts "hot".
        assert cache.get("hot") is None
        assert cache.get("old") is not None
        assert cache.get("new") is not None
        assert cache.stats.evictions == 1

    def test_unbounded_by_default(self, tmp_path):
        from repro.service.cache import SummaryCache

        cache = SummaryCache(str(tmp_path))
        for index in range(5):
            cache.put("k%d" % index, self._record(index))
        entries = [n for n in os.listdir(str(tmp_path)) if n.endswith(".ckb")]
        assert len(entries) == 5
        assert cache.stats.evictions == 0

    def test_bound_flows_through_run_batch(self, corpus_dir, tmp_path):
        cache_dir = str(tmp_path / "bounded")
        report = run_batch(
            corpus_dir, jobs=1, cache_dir=cache_dir, cache_max_entries=3
        )
        assert report.ok_count == N_FILES
        entries = [n for n in os.listdir(cache_dir) if n.endswith(".ckb")]
        assert len(entries) == 3
        assert report.cache_stats.evictions == N_FILES - 3


class TestRecords:
    """A file's result is its cache record: the v5 container
    ``summary_to_bytes`` writes, with the analysis's metadata as one
    trailer section.  A cold run writes each record once and renders no
    payload; a warm run decodes no summary."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = {"summary_to_bytes": 0, "_summary_head": 0}

        def counting(module, name):
            real = getattr(module, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, count)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a batch run must not build the payload dict")

        counting(cache_module, "summary_to_bytes")
        counting(persist, "_summary_head")
        monkeypatch.setattr(persist, "summary_to_dict", refuse)
        return calls

    def test_cold_run_writes_each_record_once(self, corpus_dir, tmp_path, counted):
        """One write per file: the CRC the metadata carries reuses the
        string table and body the container holds."""
        cold = run_batch(corpus_dir, jobs=1, cache_dir=str(tmp_path / "cache"))
        assert cold.analyzed_count == N_FILES
        assert counted == {"summary_to_bytes": N_FILES, "_summary_head": N_FILES}
        assert not hasattr(persist, "encode_summary_payload")
        cache = SummaryCache(str(tmp_path / "cache"))
        for record in cold.results:
            with open(cache.path_for(record.key), "rb") as handle:
                assert handle.read() == record.container

    def test_warm_run_decodes_no_summary(self, corpus_dir, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(corpus_dir, jobs=1, cache_dir=cache_dir)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a cache hit must not decode the summary")

        monkeypatch.setattr(persist, "_decode_summary_body", refuse)
        monkeypatch.setattr(persist, "_decode_value", refuse)
        warm = run_batch(corpus_dir, jobs=1, cache_dir=cache_dir)
        monkeypatch.undo()
        assert warm.cached_count == N_FILES
        assert [r.meta for r in warm.results] == [r.meta for r in cold.results]
        assert [r.container for r in warm.results] == [
            r.container for r in cold.results
        ]
        assert_records_match_scratch(warm)

    @pytest.fixture(scope="class")
    def summary(self):
        return analyze_side_effects(
            patterns.call_tree(3), lanes=("sections", "refalias")
        )

    def _rejected(self, tmp_path, blob) -> bool:
        """Is ``blob``, stored as a record, an ``invalid`` miss?"""
        cache = SummaryCache(str(tmp_path))
        with open(cache.path_for("k"), "wb") as handle:
            handle.write(blob)
        found = cache.get("k")
        assert (cache.stats.invalid, cache.stats.misses) == (
            (1, 1) if found is None else (0, 0)
        )
        return found is None

    def test_metadata_of_the_wrong_shape_is_an_invalid_miss(self, tmp_path, summary):
        meta = result_meta(summary)
        meta.update(cache_schema=cache_module.CACHE_SCHEMA_VERSION,
                    format_version=persist.FORMAT_VERSION)
        head_crc = read_container_trailer(summary_to_bytes(summary))[1]

        def record(blob):
            return summary_to_bytes(summary, sections={SECTION_RESULT_META: blob})

        def sealed(fields):
            fields = dict(fields, crc32=0)
            fields["crc32"] = _meta_crc(fields, head_crc)
            return json.dumps(fields).encode("utf-8")

        assert not self._rejected(tmp_path, record(sealed(meta)))
        lacking = {name: value for name, value in meta.items() if name != "ops"}
        for blob in (
            None,  # No metadata section: a plain container.
            b"{not json",
            b"\xff\xfe",
            b"[1, 2, 3]",
            b"[" * 100_000 + b"]" * 100_000,
            sealed(lacking),
            sealed(dict(meta, cache_schema=meta["cache_schema"] + 1)),
            sealed(meta).replace(b'"num_procs": ', b'"num_procs": 1'),
        ):
            blob = summary_to_bytes(summary) if blob is None else record(blob)
            assert self._rejected(tmp_path, blob), blob[-80:]

    def test_damaged_records(self, tmp_path, summary):
        """Every cut of a record, and 200 seeded bit flips anywhere in
        it, end in an ``invalid`` miss or in a hit whose container
        decodes to the stored summary; ``get`` never raises."""
        blob = encode_record(summary)
        stored = summary_to_dict(summary)
        cache = SummaryCache(str(tmp_path))
        path = cache.path_for("k")

        def outcome(damaged):
            with open(path, "wb") as handle:
                handle.write(damaged)
            before = cache.stats.invalid
            found = cache.get("k")
            if found is None:
                assert cache.stats.invalid == before + 1
                return "invalid"
            assert decode_summary_payload(found[0]) == stored
            return "hit"

        assert outcome(blob) == "hit"
        for cut in range(len(blob)):
            assert outcome(blob[:cut]) == "invalid", cut
        rng = random.Random(2121)
        seen = set()
        for _ in range(200):
            damaged = bytearray(blob)
            damaged[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            seen.add(outcome(bytes(damaged)))
        assert "invalid" in seen


    def test_stats_survive_concurrent_threads(self, tmp_path, summary):
        """The analysis server reads and stores from several solver
        threads at once; no count may be lost."""
        cache = SummaryCache(str(tmp_path))
        record = encode_record(summary)
        rounds, workers = 40, 6

        def work(which):
            for step in range(rounds):
                cache.put("k%d" % (step % 4), record)
                cache.get("k%d" % ((step + which) % 6))  # k4, k5: misses.

        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats
        assert stats.stores == rounds * workers
        assert stats.hits + stats.misses == rounds * workers
        assert stats.misses >= 2 * workers * (rounds // 6)


class TestTimeout:
    def test_timed_out_file_is_reported_and_not_cached(
        self, forked_workers, corpus_dir, tmp_path
    ):
        # The first file never finishes (``hang.ck`` under the
        # ``forked_workers`` body below), so its wait always expires.
        hang = tmp_path / "hang.ck"
        hang.write_text(patterns.chain(4))
        paths = [str(hang)] + discover_files(corpus_dir)
        cache_dir = str(tmp_path / "cache")
        report = run_batch(paths, jobs=2, timeout=1e-6, cache_dir=cache_dir)
        first = report.results[0]
        assert first.status == STATUS_TIMEOUT
        assert first.container is None and first.meta is None
        assert "exceeded" in first.error
        assert report.exit_code == 1
        stats_path = str(tmp_path / "stats.json")
        write_stats_json(report, stats_path)
        with open(stats_path) as handle:
            stats = json.load(handle)
        timed_out = [r for r in report.results if r.status == STATUS_TIMEOUT]
        assert stats["corpus"]["timeouts"] == len(timed_out) >= 1
        assert stats["files"][0]["status"] == STATUS_TIMEOUT
        for record in timed_out:
            assert not os.path.exists(SummaryCache(cache_dir).path_for(record.key))


_ANALYZE_TASK = batch_module._analyze_task


def _hang_or_die(task):
    """A worker body for the pool tests (the fork start method carries
    the patch into the workers): ``hang.ck`` never finishes, ``die.ck``
    kills its worker, every other file is analyzed."""
    name = os.path.basename(task[0])
    if name == "hang.ck":
        time.sleep(600)
    if name == "die.ck":
        os._exit(3)
    return _ANALYZE_TASK(task)


@pytest.fixture()
def forked_workers(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker body reaches the pool only by fork")
    monkeypatch.setattr(batch_module, "_analyze_task", _hang_or_die)


def _pool_corpus(tmp_path, special: str) -> str:
    root = tmp_path / "pool"
    root.mkdir()
    (root / "a.ck").write_text(patterns.chain(3))
    (root / special).write_text(patterns.chain(4))
    return str(root)


class TestPoolWorkers:
    def test_a_file_that_never_finishes_does_not_hold_the_run(
        self, forked_workers, tmp_path
    ):
        """The timed-out file's worker is terminated, not joined: the
        run returns soon after the timeout and leaves no child behind.
        Repeated, because a worker reaped by two threads at once could
        stay listed as running in a few runs out of twenty."""
        root = _pool_corpus(tmp_path, "hang.ck")
        for attempt in range(20):
            started = time.perf_counter()
            report = run_batch(root, jobs=2, timeout=0.1)
            elapsed = time.perf_counter() - started
            statuses = {
                os.path.basename(r.path): r.status for r in report.results
            }
            assert statuses == {
                "a.ck": STATUS_OK, "hang.ck": STATUS_TIMEOUT
            }, attempt
            assert report.exit_code == 1
            assert elapsed < 0.1 + 5, attempt
            assert multiprocessing.active_children() == [], attempt

    def test_a_worker_that_dies_is_an_error_record(self, forked_workers, tmp_path):
        root = _pool_corpus(tmp_path, "die.ck")
        report = run_batch(root, jobs=2, timeout=30)
        (died,) = [r for r in report.results if r.path.endswith("die.ck")]
        assert died.status == STATUS_ERROR
        assert "BrokenProcessPool" in died.error
        assert report.exit_code == 1
        assert multiprocessing.active_children() == []


class TestIsolation:
    @pytest.fixture()
    def mixed_dir(self, tmp_path):
        root = tmp_path / "mixed"
        write_generated_corpus(
            str(root), 3, base_seed=77,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        (root / "broken.ck").write_text("program broken\nbegin call nosuch( end\n")
        return str(root)

    def test_bad_file_yields_error_record_not_crash(self, mixed_dir):
        report = run_batch(mixed_dir, jobs=1)
        assert report.ok_count == 3
        assert report.error_count == 1
        (failure,) = report.errors()
        assert failure.path.endswith("broken.ck")
        assert "ParseError" in failure.error or "SemanticError" in failure.error
        assert report.exit_code == 1

    def test_bad_file_isolated_under_pool(self, mixed_dir):
        report = run_batch(mixed_dir, jobs=3)
        assert report.ok_count == 3
        assert report.error_count == 1

    def test_unreadable_file_is_isolated(self, tmp_path):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 2, base_seed=55,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        missing = str(root / "gone.ck")
        report = run_batch([str(p) for p in sorted(root.iterdir())] + [missing])
        assert report.ok_count == 2
        assert report.error_count == 1


class TestDiscovery:
    def test_skips_dot_directories(self, tmp_path):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 2, base_seed=11,
            config=GeneratorConfig(num_procs=6, num_globals=4),
        )
        hidden = root / ".ck-cache"
        hidden.mkdir()
        (hidden / "sneaky.ck").write_text("program x begin end\n")
        assert len(discover_files(str(root))) == 2

    def test_single_file_root(self, tmp_path):
        path = tmp_path / "one.ck"
        write_handwritten_corpus(str(tmp_path))
        found = discover_files(str(tmp_path / "stats.ck"))
        assert found == [str(tmp_path / "stats.ck")]

    def test_handwritten_corpus_analyzes_clean(self, tmp_path):
        write_handwritten_corpus(str(tmp_path))
        report = run_batch(str(tmp_path), jobs=1)
        assert report.exit_code == 0
        assert report.ok_count == 8


class TestAcceptanceCorpus:
    """The PR's acceptance scenario: a 50-program generated corpus."""

    @pytest.fixture(scope="class")
    def big_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpus50")
        write_generated_corpus(
            str(root), 50, base_seed=700,
            config=GeneratorConfig(num_procs=10, num_globals=5),
        )
        return str(root)

    def test_cold_jobs4_matches_single_file_analysis(self, big_corpus, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(big_corpus, jobs=4, cache_dir=cache_dir)
        assert cold.ok_count == 50
        assert cold.exit_code == 0
        assert_records_match_scratch(cold)

        warm = run_batch(big_corpus, jobs=4, cache_dir=cache_dir)
        assert warm.analyzed_count == 0
        assert warm.cache_stats.hits == 50
        assert warm.cache_stats.hit_rate() == 1.0
        assert_records_match_scratch(warm)


class TestCli:
    def test_batch_command_end_to_end(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 3, base_seed=66,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        stats_path = str(tmp_path / "stats.json")
        assert main(["batch", str(root), "--jobs", "1",
                     "--stats-json", stats_path]) == 0
        out = capsys.readouterr().out
        assert out.count("ok    ") == 3
        assert "cache:" in out
        with open(stats_path) as handle:
            stats = json.load(handle)
        assert stats["schema"] == STATS_SCHEMA_VERSION
        assert stats["corpus"]["files"] == 3
        assert set(stats["ops"]) == {
            "bit_vector_steps", "single_bit_steps", "meet_operations"
        }

        # Default cache dir sits inside the corpus; a second run is warm.
        assert main(["batch", str(root), "--jobs", "1"]) == 0
        assert "3 ok (3 cached, 0 analyzed)" in capsys.readouterr().out

    def test_batch_partial_failure_exit_code(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 2, base_seed=88,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        (root / "broken.ck").write_text("program broken\nbegin call nosuch( end\n")
        assert main(["batch", str(root), "--jobs", "1", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("ok    ") == 2
        assert "broken.ck" in captured.err

    def test_batch_process_exit_code_nonzero_on_failure(self, tmp_path):
        """The real process (not just main()) must report failure —
        build systems branch on the exit status, not on stderr."""
        import subprocess
        import sys

        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 1, base_seed=101,
            config=GeneratorConfig(num_procs=6, num_globals=4),
        )
        (root / "broken.ck").write_text("program broken\nbegin call nosuch( end\n")
        repo_src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "batch", str(root), "--no-cache"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "broken.ck" in proc.stderr

    def test_batch_empty_corpus_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty), "--no-cache"]) == 1
        assert "no files matching" in capsys.readouterr().err

    def test_batch_cache_max_entries_flag(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 4, base_seed=111,
            config=GeneratorConfig(num_procs=6, num_globals=4),
        )
        assert main(["batch", str(root), "--jobs", "1",
                     "--cache-max-entries", "2"]) == 0
        capsys.readouterr()
        cache_dir = root / ".ck-cache"
        entries = [n for n in os.listdir(str(cache_dir)) if n.endswith(".ckb")]
        assert len(entries) == 2

    def test_batch_no_cache_flag(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 2, base_seed=99,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        assert main(["batch", str(root), "--jobs", "1", "--no-cache"]) == 0
        assert main(["batch", str(root), "--jobs", "1", "--no-cache"]) == 0
        assert "0 cached" in capsys.readouterr().out
        assert not (root / ".ck-cache").exists()

    def test_batch_rejects_bad_method(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", str(tmp_path), "--gmod-method", "nope"])

    def test_batch_missing_dir_fails_without_side_effects(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-corpus")
        assert main(["batch", missing]) == 1
        assert "no such file or directory" in capsys.readouterr().err
        # In particular the default cache dir must not be created there.
        assert not os.path.exists(missing)
