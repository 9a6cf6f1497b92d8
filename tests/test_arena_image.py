"""Zero-copy warm starts: the ``.cka`` arena image and the mmap
container loader.

* the **``.cka`` arena image** — write → mmap → rebuild must reproduce
  the arena field for field and analysis for analysis, refuse stale
  digests, foreign bytes, version drift and the wrong program, refuse
  every cut and bit flip when opened (its CRC-32 and length check),
  and stay out of pickles;
* the **container loader** — v4 payloads and legacy JSON files load
  through the same mmap path, and torn or missing files fail with the
  documented exception classes;
* the **dependency floor** — analysis, persistence and image round
  trips run on the standard library alone: NumPy is never imported.

The warm-start speed claim (mmap vs unpickling) lives in
``benchmarks/test_bench_core.py``; this module pins *correctness* at
sizes the tier-1 suite can afford.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
import zlib

import pytest

from repro.core.arena import (
    ARENA_IMAGE_MAGIC,
    arena_from_image,
    arena_image_nbytes,
    clear_arena_cache,
    get_arena,
    load_arena_image,
    write_arena_image,
)
from repro.core.persist import (
    encode_summary_payload,
    load_summary_container_file,
    load_summary_payload_file,
    summary_to_bytes,
)
from repro.core.pipeline import analyze_side_effects
from repro.workloads.generator import GeneratorConfig, generate_resolved

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _small_resolved(seed=5, procs=12, depth=1):
    return generate_resolved(
        GeneratorConfig(seed=seed, num_procs=procs, num_globals=6, max_depth=depth)
    )


def _nested_resolved():
    return generate_resolved(
        GeneratorConfig(
            seed=9, num_procs=14, num_globals=5, max_depth=3, nesting_prob=0.7
        )
    )


# ---------------------------------------------------------------------------
# The .cka arena image.
# ---------------------------------------------------------------------------


def _image_path(tmp_path):
    return str(tmp_path / "arena.cka")


class TestArenaImage:
    def _round_trip(self, resolved, tmp_path, digest=b"rev-1"):
        clear_arena_cache()
        arena = get_arena(resolved)
        path = _image_path(tmp_path)
        write_arena_image(arena, path, digest=digest)
        image = load_arena_image(path)
        rebuilt = arena_from_image(resolved, image, expect_digest=digest)
        return arena, rebuilt, path

    @pytest.mark.parametrize("maker", [_small_resolved, _nested_resolved])
    def test_round_trip_fields_and_analysis(self, maker, tmp_path):
        resolved = maker()
        arena, rebuilt, path = self._round_trip(resolved, tmp_path)
        assert rebuilt.width == arena.width
        assert rebuilt.call_csr.heads == arena.call_csr.heads
        assert rebuilt.call_csr.succ == arena.call_csr.succ
        assert rebuilt.beta_csr.heads == arena.beta_csr.heads
        assert rebuilt.beta_csr.succ == arena.beta_csr.succ
        assert rebuilt.site_caller == arena.site_caller
        assert rebuilt.site_callee == arena.site_callee
        assert rebuilt.site_ref_heads == arena.site_ref_heads
        assert rebuilt.ref_base_uid == arena.ref_base_uid
        assert rebuilt.site_lmod == arena.site_lmod
        assert rebuilt.site_luse == arena.site_luse
        assert rebuilt._strip == arena._strip
        assert rebuilt.universe.global_mask == arena.universe.global_mask
        assert rebuilt.universe.local_mask == arena.universe.local_mask
        assert rebuilt.universe.formal_mask == arena.universe.formal_mask
        assert rebuilt.local.imod == arena.local.imod
        assert rebuilt.local.iuse == arena.local.iuse
        # The rebuilt arena answers identically to the built one.
        base = summary_to_bytes(analyze_side_effects(resolved, arena=arena))
        redo = summary_to_bytes(analyze_side_effects(resolved, arena=rebuilt))
        assert redo == base
        rebuilt._arena_image.close()

    def test_size_estimate_tracks_file(self, tmp_path):
        resolved = _small_resolved()
        arena, _rebuilt, path = self._round_trip(resolved, tmp_path)
        estimate = arena_image_nbytes(arena)
        actual = os.path.getsize(path)
        # The estimator ignores the (small, bounded) header + padding.
        assert estimate <= actual <= estimate + 4096

    def test_digest_mismatch_refused(self, tmp_path):
        resolved = _small_resolved()
        clear_arena_cache()
        arena = get_arena(resolved)
        path = _image_path(tmp_path)
        write_arena_image(arena, path, digest=b"rev-1")
        with load_arena_image(path) as image:
            with pytest.raises(ValueError, match="digest"):
                arena_from_image(resolved, image, expect_digest=b"rev-2")

    def test_foreign_bytes_refused(self, tmp_path):
        path = _image_path(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"definitely not an arena image")
        with pytest.raises(ValueError):
            load_arena_image(path)

    def test_version_drift_refused(self, tmp_path):
        resolved = _small_resolved()
        clear_arena_cache()
        write_arena_image(get_arena(resolved), _image_path(tmp_path))
        with open(_image_path(tmp_path), "r+b") as handle:
            handle.seek(len(ARENA_IMAGE_MAGIC))
            handle.write(b"\xff\xff")  # Future version.
        with pytest.raises(ValueError, match="version"):
            load_arena_image(_image_path(tmp_path))

    def test_wrong_program_refused(self, tmp_path):
        """An image for one program cannot dress up another: the
        shape check fires even without a digest."""
        clear_arena_cache()
        write_arena_image(
            get_arena(_small_resolved(procs=12)), _image_path(tmp_path)
        )
        other = _small_resolved(procs=13)
        with load_arena_image(_image_path(tmp_path)) as image:
            with pytest.raises(ValueError):
                arena_from_image(other, image)

    def test_image_excluded_from_pickle(self, tmp_path):
        import pickle

        resolved = _small_resolved()
        _arena, rebuilt, _path = self._round_trip(resolved, tmp_path)
        clone = pickle.loads(pickle.dumps(rebuilt))
        assert getattr(clone, "_arena_image", None) is None
        assert clone.call_csr.heads == rebuilt.call_csr.heads
        rebuilt._arena_image.close()


class TestDamagedImage:
    """A cut or bit-flipped image ends in ValueError, never in an arena
    that analyzes to a wrong summary: the loader checks a CRC-32 over
    every byte after the checksum field and the file length against
    the header's layout."""

    @pytest.fixture(scope="class")
    def image(self, tmp_path_factory):
        resolved = generate_resolved(
            GeneratorConfig(seed=3, num_procs=30, max_depth=3, nesting_prob=0.4)
        )
        clear_arena_cache()
        path = str(tmp_path_factory.mktemp("image") / "arena.cka")
        write_arena_image(get_arena(resolved), path, digest=b"rev")
        with open(path, "rb") as handle:
            data = handle.read()
        with load_arena_image(path) as image:
            arena = arena_from_image(resolved, image, expect_digest=b"rev")
            assert summary_to_bytes(
                analyze_side_effects(resolved, arena=arena)
            ) == summary_to_bytes(analyze_side_effects(resolved))
        return resolved, data

    @staticmethod
    def _assert_refused(resolved, blob, path):
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(ValueError):
            with load_arena_image(path) as image:
                arena_from_image(resolved, image, expect_digest=b"rev")

    def test_every_cut(self, image, tmp_path):
        resolved, data = image
        path = _image_path(tmp_path)
        for length in range(len(data)):
            self._assert_refused(resolved, data[:length], path)

    def test_bit_flips(self, image, tmp_path):
        resolved, data = image
        path = _image_path(tmp_path)
        rng = random.Random(1)
        for _ in range(300):
            blob = bytearray(data)
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            self._assert_refused(resolved, bytes(blob), path)

    @staticmethod
    def _sealed(blob: bytes) -> bytes:
        """``blob`` with its CRC-32 field recomputed, as a writer that
        laid it out wrong would have sealed it."""
        start = len(ARENA_IMAGE_MAGIC) + 2
        crc = zlib.crc32(blob[start + 4:]).to_bytes(4, "little")
        return blob[:start] + crc + blob[start + 4:]

    def test_length_must_match_the_layout(self, image, tmp_path):
        _resolved, data = image
        path = _image_path(tmp_path)
        assert self._sealed(data) == data
        for blob in (data + bytes(8), data[:-8]):
            with open(path, "wb") as handle:
                handle.write(self._sealed(blob))
            with pytest.raises(ValueError, match="lays out"):
                load_arena_image(path)

    def test_header_cut_short_under_a_matching_checksum(self, image, tmp_path):
        _resolved, data = image
        path = _image_path(tmp_path)
        for length in (10, 12):
            with open(path, "wb") as handle:
                handle.write(self._sealed(data[:length]))
            with pytest.raises(ValueError, match="corrupt arena image|truncated"):
                load_arena_image(path)


# ---------------------------------------------------------------------------
# The mmap container loader.
# ---------------------------------------------------------------------------


class TestContainerLoader:
    def test_payload_round_trip(self, tmp_path):
        payload = {"answer": 42, "sets": [1, 2, 3], "name": "x"}
        path = str(tmp_path / "payload.ckb")
        with open(path, "wb") as handle:
            handle.write(encode_summary_payload(payload))
        assert load_summary_payload_file(path) == payload
        loaded, sections = load_summary_container_file(path)
        assert loaded == payload
        assert sections == {}

    def test_legacy_json_round_trip(self, tmp_path):
        path = str(tmp_path / "legacy.json")
        with open(path, "w") as handle:
            handle.write('{"answer": 42}')
        assert load_summary_payload_file(path) == {"answer": 42}
        loaded, sections = load_summary_container_file(path)
        assert loaded == {"answer": 42}
        assert sections == {}

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_summary_payload_file(str(tmp_path / "absent.ckb"))

    def test_garbage_is_valueerror(self, tmp_path):
        path = str(tmp_path / "torn.ckb")
        with open(path, "wb") as handle:
            handle.write(b"\x00\x01garbage")
        with pytest.raises(ValueError):
            load_summary_payload_file(path)


# ---------------------------------------------------------------------------
# The dependency floor.
# ---------------------------------------------------------------------------


def test_analysis_and_warm_start_never_import_numpy(tmp_path):
    """A 1000-procedure flat program, analyzed from source, written as
    a container and round-tripped through a ``.cka`` image, runs on the
    standard library alone.  A fresh interpreter keeps modules other
    tests imported out of the check."""
    script = textwrap.dedent(
        """
        import sys

        from repro.core.arena import (
            arena_from_image, clear_arena_cache, get_arena,
            load_arena_image, write_arena_image,
        )
        from repro.core.persist import load_summary_container_file, summary_to_bytes
        from repro.core.pipeline import analyze_side_effects
        from repro.lang.pretty import pretty
        from repro.workloads.generator import GeneratorConfig, generate_program

        out_dir = sys.argv[1]
        source = pretty(generate_program(
            GeneratorConfig(seed=0, num_procs=1000, num_globals=200)))
        summary = analyze_side_effects(source)
        blob = summary_to_bytes(summary)
        with open(out_dir + "/summary.ckb", "wb") as handle:
            handle.write(blob)
        load_summary_container_file(out_dir + "/summary.ckb")
        write_arena_image(get_arena(summary.resolved), out_dir + "/arena.cka",
                          digest=b"rev")
        clear_arena_cache()
        with load_arena_image(out_dir + "/arena.cka") as image:
            rebuilt = arena_from_image(summary.resolved, image, expect_digest=b"rev")
            again = analyze_side_effects(summary.resolved, arena=rebuilt)
            assert summary_to_bytes(again) == blob
        assert "numpy" not in sys.modules, "numpy was imported"
        print("ok")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC_DIR, env.get("PYTHONPATH")) if path
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
