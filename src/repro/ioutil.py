"""Small filesystem helpers shared by the caches, and the one generic
content-addressed :class:`RecordStore` behind the tuning database, the
fix bank and the persistent phase cache.

Kept in a leaf module so the stores, :mod:`repro.service.store` and
:mod:`repro.backend.compile` can use one implementation of the atomic-write
protocol and the cache-directory convention without layering inversions.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import (Callable, Dict, Generic, Iterator, List, Optional,
                    Tuple, TypeVar)

_V = TypeVar("_V")


class LruMap(Generic[_V]):
    """A small bounded mapping with least-recently-used eviction.

    The in-memory hot layer shared by the persistent caches
    (:class:`repro.service.store.DiskKernelStore`, :class:`RecordStore`):
    capacity 0 disables it entirely.  Not thread-safe on its own; owners
    guard it with their lock.
    """

    def __init__(self, capacity: int):
        self.capacity = max(0, capacity)
        self._entries: "OrderedDict[str, _V]" = OrderedDict()

    def get(self, key: str) -> Optional[_V]:
        """The cached value (refreshing its recency), or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def insert(self, key: str, value: _V) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def pop(self, key: str) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers never observe a torn file.

    Stages to a private temp file (unique per process *and* thread, so
    concurrent writers of the same path each stage separately) and commits
    with ``os.replace``, which is atomic on POSIX within one filesystem.
    """
    staged = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
    with open(staged, "wb") as handle:
        handle.write(data)
    os.replace(staged, path)


def atomic_publish(source_path: str, path: str) -> None:
    """Atomically publish an existing file (e.g. a compiled ``.so``) at
    ``path`` by staging a copy next to it and ``os.replace``-ing."""
    import shutil
    staged = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
    shutil.copyfile(source_path, staged)
    os.replace(staged, path)


def cache_root(env_var: str, subdir: str) -> str:
    """Resolve a cache directory: ``$<env_var>`` when set, otherwise
    ``~/.cache/repro-slingen/<subdir>`` (all repro caches share a parent)."""
    env = os.environ.get(env_var, "").strip()
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-slingen",
                        subdir)


#: GC evicts below this fraction of the bound so back-to-back puts near
#: the limit do not each pay a collection.
GC_LOW_WATER = 0.9


class RecordStore(Generic[_V]):
    """One encoded file per record at
    ``<root>/[<namespace>/]<key[:2]>/<key><suffix>``, put atomically.

    A record that cannot be read or decoded is quarantined: unlinked,
    counted in ``corrupt_dropped`` and reported as a miss.  The hot layer
    caches positive results only, so a miss re-probes the disk and sees
    records other processes wrote.  With ``max_bytes`` set, a put over
    the bound runs :meth:`gc`.  One lock guards the counters, the
    (lazily scanned) size and the hot layer; disk I/O runs outside it.
    """

    def __init__(self, root: str, suffix: str,
                 encode: Callable[[_V], bytes], decode: Callable[[bytes], _V],
                 max_bytes: Optional[int] = None, hot_capacity: int = 0):
        self.root = root
        self.suffix = suffix
        self.max_bytes = max_bytes
        self._encode = encode
        self._decode = decode
        self._lock = threading.Lock()
        self._hot: LruMap[_V] = LruMap(hot_capacity)
        self._total_bytes: Optional[int] = None
        self.reads = 0
        self.hot_hits = 0
        self.disk_hits = 0
        self.writes = 0
        self.corrupt_dropped = 0
        self.evictions = 0

    def ensure_root(self) -> None:
        """Create the root directory (raises ``OSError`` if unusable)."""
        os.makedirs(self.root, exist_ok=True)

    def path(self, key: str, namespace: str = "") -> str:
        return os.path.join(self.root, namespace, key[:2],
                            f"{key}{self.suffix}")

    def get(self, key: str, namespace: str = "") -> Optional[_V]:
        """The stored record, or None (missing or quarantined)."""
        with self._lock:
            self.reads += 1
            value = self._hot.get(f"{namespace}/{key}")
            if value is not None:
                self.hot_hits += 1
                return value
        path = self.path(key, namespace)
        try:
            with open(path, "rb") as handle:
                value = self._decode(handle.read())
        except FileNotFoundError:
            return None
        except Exception:
            # Torn write, schema drift, hand-edited garbage.
            size = self._unlink(path)
            with self._lock:
                self.corrupt_dropped += 1
                self._account_locked(-(size or 0))
            return None
        with self._lock:
            self._hot.insert(f"{namespace}/{key}", value)
            self.disk_hits += 1
        return value

    def put(self, key: str, value: _V, namespace: str = "") -> None:
        path = self.path(key, namespace)
        blob = self._encode(value)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if self.max_bytes is not None:
            self.total_bytes()      # scan before writing: count it once
        try:
            replaced = os.path.getsize(path)
        except OSError:
            replaced = 0
        atomic_write_bytes(path, blob)
        with self._lock:
            self._hot.insert(f"{namespace}/{key}", value)
            self.writes += 1
            self._account_locked(len(blob) - replaced)
            over = (self.max_bytes is not None
                    and (self._total_bytes or 0) > self.max_bytes)
        if over:
            self.gc()

    def delete(self, key: str) -> bool:
        with self._lock:
            self._hot.pop(f"/{key}")
        size = self._unlink(self.path(key))
        with self._lock:
            self._account_locked(-(size or 0))
        return size is not None

    def keys(self) -> List[str]:
        """Every stored key outside the namespaces, sorted."""
        found: List[str] = []
        root = self.root
        for shard in sorted(os.listdir(root)) if os.path.isdir(root) else []:
            shard_dir = os.path.join(root, shard)
            if os.path.isdir(shard_dir):
                found.extend(name[:-len(self.suffix)]
                             for name in sorted(os.listdir(shard_dir))
                             if name.endswith(self.suffix))
        return found

    def records(self) -> Iterator[_V]:
        """Every decodable record (corrupt ones are quarantined)."""
        for key in self.keys():
            value = self.get(key)
            if value is not None:
                yield value

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path(key))

    def __len__(self) -> int:
        return len(self.keys())

    def _entries(self) -> List[Tuple[float, int, str]]:
        """Every record in the tree as ``(mtime, size, path)``."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(self.suffix):
                    path = os.path.join(dirpath, name)
                    try:
                        info = os.stat(path)
                    except OSError:
                        continue
                    found.append((info.st_mtime, info.st_size, path))
        return found

    @staticmethod
    def _unlink(path: str) -> Optional[int]:
        """Remove ``path``; the bytes freed, or None if it could not be."""
        try:
            size = os.path.getsize(path)
            os.unlink(path)
        except OSError:
            return None
        return size

    def _account_locked(self, delta: int) -> None:
        if self._total_bytes is not None:
            self._total_bytes = max(0, self._total_bytes + delta)

    def total_bytes(self) -> int:
        """On-disk size of the tree (scanned once, then tracked)."""
        with self._lock:
            if self._total_bytes is None:
                self._total_bytes = sum(size for _, size, _ in self._entries())
            return self._total_bytes

    def gc(self, target_bytes: Optional[int] = None) -> int:
        """Evict oldest-modified records until the tree is at most
        ``target_bytes`` (default :data:`GC_LOW_WATER` of ``max_bytes``;
        no-op when unbounded); returns how many were removed.  A file
        that disappears mid-collection is skipped."""
        if target_bytes is None:
            if self.max_bytes is None:
                return 0
            target_bytes = int(self.max_bytes * GC_LOW_WATER)
        with self._lock:
            entries = sorted(self._entries())
            total = sum(size for _, size, _ in entries)
            removed = 0
            for _mtime, size, path in entries:
                if total <= target_bytes:
                    break
                if self._unlink(path) is not None:
                    total -= size
                    removed += 1
            self._hot.clear()
            self._total_bytes = total
            self.evictions += removed
        return removed

    def purge(self) -> int:
        """Remove every record; returns how many were removed."""
        return self.gc(target_bytes=-1)     # below any size: everything

    @property
    def hits(self) -> int:
        return self.hot_hits + self.disk_hits

    def stats(self) -> Dict[str, object]:
        """Every counter; the views publish the subset they document."""
        with self._lock:
            return {"root": self.root, "reads": self.reads,
                    "hits": self.hits, "hot_hits": self.hot_hits,
                    "disk_hits": self.disk_hits,
                    "misses": self.reads - self.hits, "writes": self.writes,
                    "corrupt_dropped": self.corrupt_dropped,
                    "evictions": self.evictions}
