"""BenchResult records, checksums, and trajectory round-trips."""

import json

import numpy as np
import pytest

from repro.bench.results import (
    SCHEMA_VERSION,
    BenchResult,
    array_checksum,
    load_trajectory,
    merge_trajectory,
    save_trajectory,
)
from repro.cli import main


class TestArrayChecksum:
    def test_deterministic(self):
        data = np.linspace(-1.0, 1.0, 101)
        assert array_checksum(data) == array_checksum(data.copy())

    def test_tolerates_last_ulp_jitter(self):
        data = np.linspace(-1.0, 1.0, 101)
        jittered = data * (1.0 + 1e-15)
        assert array_checksum(data) == array_checksum(jittered)

    def test_detects_real_changes(self):
        data = np.linspace(-1.0, 1.0, 101)
        changed = data.copy()
        changed[3] *= 1.001
        assert array_checksum(data) != array_checksum(changed)

    def test_shape_independent_but_size_sensitive(self):
        data = np.arange(12, dtype=float)
        assert array_checksum(data) == array_checksum(data.reshape(3, 4))
        assert array_checksum(data) != array_checksum(data[:-1])

    def test_multiple_arrays_and_empty(self):
        a = np.ones(3)
        b = np.zeros(0)
        assert array_checksum(a, b) != array_checksum(a)
        assert array_checksum(b) == array_checksum(np.zeros(0))


class TestTrajectoryIO:
    def _result(self, **overrides):
        base = dict(
            kernel="extraction_bus1024",
            variant="vectorized",
            size=1024,
            seconds=0.01,
            checksum="abc123",
        )
        base.update(overrides)
        return BenchResult(**base)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        results = [self._result(), self._result(variant="seed", seconds=0.2)]
        save_trajectory(path, results)
        assert load_trajectory(path) == results

    def test_missing_file_is_empty(self, tmp_path):
        assert load_trajectory(tmp_path / "nope.json") == []

    def test_schema_is_versioned(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        save_trajectory(path, [self._result()])
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_VERSION

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps({"schema": 99, "entries": []}))
        with pytest.raises(ValueError, match="schema"):
            load_trajectory(path)

    def test_key_excludes_timing(self):
        fast = self._result(seconds=0.001)
        slow = self._result(seconds=9.0)
        assert fast.key == slow.key


class TestUpdateMerge:
    """``repro bench --update`` refreshes its own rungs, keeps the rest."""

    @staticmethod
    def _result(kernel, size, seconds=1.0, checksum="c0ffee"):
        return BenchResult(
            kernel=kernel,
            variant="hierarchical",
            size=size,
            seconds=seconds,
            checksum=checksum,
        )

    def test_fresh_replaces_same_key_in_place(self):
        committed = [
            self._result("extract_scale", 4096),
            self._result("extract_scale", 16384),
            self._result("window_solve_scale", 4096),
        ]
        fresh = [
            self._result("window_solve_scale", 4096, seconds=0.3),
            self._result("window_solve_scale", 128, seconds=0.1),
            self._result("extract_scale", 4096, seconds=2.0),
        ]
        merged = merge_trajectory(committed, fresh)
        assert [r.key for r in merged] == [
            ("extract_scale", "hierarchical", 4096),
            ("extract_scale", "hierarchical", 16384),
            ("window_solve_scale", "hierarchical", 4096),
            ("window_solve_scale", "hierarchical", 128),
        ]
        assert [r.seconds for r in merged] == [2.0, 1.0, 0.3, 0.1]

    def test_cli_update_keeps_other_entries(self, tmp_path, capsys):
        path = tmp_path / "BENCH_noise.json"
        kept_before = self._result("noise_screen_bus256", 4096)
        stale = BenchResult(
            kernel="noise_screen_bus256",
            variant="vectorized",
            size=16,
            seconds=99.0,
            checksum="stale",
        )
        kept_after = self._result("noise_engine_bus64", 64)
        save_trajectory(path, [kept_before, stale, kept_after])
        code = main(
            [
                "bench",
                "--suite",
                "noise",
                "--kernel",
                "noise_screen_bus256",
                "--size",
                "16",
                "--repeats",
                "1",
                "--trajectory",
                str(path),
                "--update",
            ]
        )
        assert code == 0
        entries = load_trajectory(path)
        assert entries[0] == kept_before
        assert entries[2] == kept_after
        assert entries[1].key == stale.key
        assert entries[1].checksum != "stale"
        assert len(entries) == 3
