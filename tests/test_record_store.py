"""The generic content-addressed record store and its three views.

:class:`repro.ioutil.RecordStore` owns the storage rules the tuning
database, the fix bank and the persistent phase cache share: sharded
paths, atomic puts, corruption quarantine, the positive-only hot layer,
the size bound and the counters.  These tests pin the rules once, the
on-disk layouts the views must keep reading, and the thread safety and
size accounting the views inherit.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading

import pytest

from repro.cegis.fixbank import FixBank, FixRecord
from repro.ioutil import RecordStore
from repro.pipeline.cache import PersistentPhaseStore
from repro.tuning.db import TuningDB, TuningRecord


def _tuning_record(key: str) -> TuningRecord:
    return TuningRecord(
        key=key, program_name="potrf_4", label="potrf:4",
        strategy="hill-climb", backend="interpreter", unit="ops", budget=4,
        seed=0, evaluations=2, best_label="0:blocked", best_score=1.0,
        baseline_score=2.0, options={"vectorize": True},
        stage1_variants={0: "blocked"})


def _fix_record(key: str) -> FixRecord:
    return FixRecord(key=key, program_name="potrf", label="potrf:4", seed=0,
                     budget=2, backends=["interpreter"], tol=1e-9,
                     ref_tol=1e-6, accepted=["fuse-scalar"])


def _bytes_store(root, **kwargs) -> RecordStore:
    return RecordStore(str(root), ".bin", bytes, bytes, **kwargs)


class TestRecordStore:
    def test_namespaces_shard_under_the_root(self, tmp_path):
        store = _bytes_store(tmp_path)
        store.put("ab" * 32, b"one")
        store.put("ab" * 32, b"two", "lower")
        assert os.path.isfile(tmp_path / "ab" / f"{'ab' * 32}.bin")
        assert os.path.isfile(tmp_path / "lower" / "ab" / f"{'ab' * 32}.bin")
        assert store.get("ab" * 32) == b"one"
        assert store.get("ab" * 32, "lower") == b"two"
        assert store.keys() == ["ab" * 32]

    def test_hot_layer_caches_positive_results_only(self, tmp_path):
        store = _bytes_store(tmp_path, hot_capacity=4)
        assert store.get("ef" * 32) is None
        # Written by "another process": the earlier miss was not cached.
        _bytes_store(tmp_path).put("ef" * 32, b"late")
        assert store.get("ef" * 32) == b"late"
        assert store.get("ef" * 32) == b"late"
        stats = store.stats()
        assert (stats["disk_hits"], stats["hot_hits"], stats["misses"]) \
            == (1, 1, 1)

    def test_purge_empties_hot_layer_and_disk(self, tmp_path):
        store = _bytes_store(tmp_path, hot_capacity=4)
        for index in range(3):
            store.put(f"{index:02d}" * 32, b"x", "stage1")
        assert store.purge() == 3
        assert store.get("00" * 32, "stage1") is None
        assert store.total_bytes() == 0


class TestOnDiskCompatibility:
    """Records written in the established layouts are found by the views."""

    @pytest.mark.parametrize("view, make", [(TuningDB, _tuning_record),
                                            (FixBank, _fix_record)])
    def test_hand_written_json_record_is_found(self, tmp_path, view, make):
        key = "a1" * 32
        os.makedirs(tmp_path / key[:2])
        with open(tmp_path / key[:2] / f"{key}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(make(key).to_json(), handle)
        store = view(root=str(tmp_path))
        assert store.get(key) == make(key)
        assert store.keys() == [key] and key in store

    def test_hand_written_phase_pickle_is_found(self, tmp_path):
        key = "b2" * 32
        shard = tmp_path / "lower" / key[:2]
        os.makedirs(shard)
        with open(shard / f"{key}.pkl", "wb") as handle:
            pickle.dump({"artifact": 7}, handle)
        store = PersistentPhaseStore(str(tmp_path))
        assert store.get("lower", key) == {"artifact": 7}
        assert store.get("stage1", key) is None
        assert store.disk_hits == 1


@pytest.mark.parametrize("view, make", [(TuningDB, _tuning_record),
                                        (FixBank, _fix_record)])
def test_concurrent_lookups_lose_nothing(tmp_path, view, make):
    """Handler threads consult the databases on every request: with a
    hot layer smaller than the working set, concurrent gets evict each
    other's entries, and every lookup must still count exactly once.
    A tiny thread switch interval makes an unguarded hot layer fail
    reliably (``KeyError`` from a key evicted between lookup and
    refresh)."""
    store = view(root=str(tmp_path), hot_capacity=4)
    keys = [f"{index:02x}" * 32 for index in range(16)]
    for key in keys:
        store.put(key, make(key))
    missing = [f"f{index:x}" * 32 for index in range(4)]
    threads, per_thread = 8, 1500
    errors = []
    start = threading.Barrier(threads)

    def lookups(offset: int) -> None:
        try:
            start.wait()
            probes = keys + missing
            for step in range(per_thread):
                store.get(probes[(offset + step) % len(probes)])
        except Exception as exc:           # reported by the assert below
            errors.append(exc)

    workers = [threading.Thread(target=lookups, args=(offset,))
               for offset in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    stats = store.stats()
    assert stats["hits"] + stats["misses"] == threads * per_thread
    assert stats["corrupt_dropped"] == 0


@pytest.mark.parametrize("max_bytes", [None, 1 << 20])
def test_size_accounting_matches_a_fresh_scan(tmp_path, max_bytes):
    """Puts into an empty store are counted once, bounded or not."""
    store = PersistentPhaseStore(str(tmp_path), max_bytes=max_bytes)
    for index in range(3):
        store.put("stage1", f"{index:02d}" * 32, b"x" * 1000)
    store.put("stage1", "00" * 32, b"y" * 500)          # replaces one
    assert store.total_bytes() == \
        PersistentPhaseStore(str(tmp_path)).total_bytes()
