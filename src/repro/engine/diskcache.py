"""Persistent, content-addressed backing store for the stage cache.

:class:`DiskCache` keeps memoized stage outputs on disk, keyed by the
same cache keys the in-memory :class:`~repro.engine.store.StageCache`
uses (``H(stage signature, input fingerprints)``), so a pipeline
re-run in a *fresh process* still skips every stage whose key it has
seen before.  Layout::

    <root>/
      format                 # the payload format version this cache holds
      ab/abcdef....npz       # one entry per key, sharded by key prefix

Each entry is a self-describing versioned ``.npz`` blob written by
:func:`repro.serialization.payload_to_bytes` — JSON structure plus
native numpy members — created atomically (temp file + ``os.replace``)
so readers never observe a half-written entry.

Failure policy: the cache **never raises on a bad entry**.  Corrupted,
truncated or stale-format files log a warning, count as a miss (and a
corruption), are deleted, and the stage simply recomputes.  A write
that fails (full disk, I/O error) logs a warning and is dropped; the
run keeps its in-memory result.  Artifacts with no payload encoding
are not persisted (debug-logged) and stay memory-cache-only.

Capacity: the cache is size-capped LRU.  Hits bump the entry's mtime;
when the total size exceeds ``max_bytes`` after a store, the
oldest-mtime entries are evicted until it fits.

Every operation feeds the ambient :mod:`repro.obs` metrics registry:
``repro_engine_disk_hits_total`` / ``_misses_total`` /
``_stores_total`` / ``_evictions_total`` / ``_corruptions_total``.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.exceptions import EngineError, ReproError
from repro.obs.log import fmt_kv, get_logger
from repro.obs.metrics import current_metrics

__all__ = ["DiskCache", "DiskCacheInfo", "DEFAULT_MAX_BYTES"]

_log = get_logger("engine.diskcache")

DEFAULT_MAX_BYTES = 256 * 1024 * 1024
"""Default size cap (256 MiB) — hundreds of full pipeline runs."""

_ENTRY_SUFFIX = ".npz"


def _write_atomically(path: Path, data: bytes, prefix: str) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over.

    Readers never observe a half-written file.  On failure the temp
    file is removed and the ``OSError`` propagates.
    """
    fd, tmp_name = tempfile.mkstemp(prefix=prefix, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_failed(key: str, stage: str, error: OSError) -> None:
    _log.warning(
        fmt_kv("diskcache.write_failed", key=key, stage=stage, error=repr(error))
    )


@dataclass(frozen=True)
class DiskCacheInfo:
    """Cumulative counters and current footprint of a :class:`DiskCache`."""

    hits: int
    misses: int
    stores: int
    evictions: int
    corruptions: int
    entries: int
    total_bytes: int


class DiskCache:
    """On-disk LRU cache of stage outputs, keyed by stage cache key.

    Parameters
    ----------
    root:
        Directory holding the cache (created if missing).  Safe to
        share between runs; that sharing is the whole point.
    max_bytes:
        Total size cap.  Exceeding it after a store evicts the
        least-recently-used entries (by mtime) until back under.
    """

    def __init__(
        self, root: str | Path, *, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        if max_bytes < 1:
            raise EngineError("DiskCache: max_bytes must be >= 1")
        self._root = Path(root)
        self._max_bytes = int(max_bytes)
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._corruptions = 0
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise EngineError(
                f"DiskCache: cannot create cache directory {str(root)!r} "
                f"({error.strerror or error})"
            ) from None
        self._check_format_stamp()

    # -- layout ------------------------------------------------------------

    @property
    def root(self) -> Path:
        """The cache directory."""
        return self._root

    @property
    def max_bytes(self) -> int:
        """The configured size cap."""
        return self._max_bytes

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        if not key or any(c in key for c in "/\\."):
            raise EngineError(f"DiskCache: malformed cache key {key!r}")
        return self._root / key[:2] / f"{key}{_ENTRY_SUFFIX}"

    def _entries_on_disk(self) -> Iterator[Path]:
        for shard in sorted(self._root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob(f"*{_ENTRY_SUFFIX}")):
                yield path

    def _check_format_stamp(self) -> None:
        """Stamp the payload format version; warn-and-clear on mismatch.

        A cache written by a different payload format would fail entry
        by entry anyway; detecting it up front turns that into one
        warning and a clean slate.  The stamp is written atomically
        (temp file + rename) and only when absent or wrong, so
        concurrent workers opening the same cache never observe a
        half-written stamp.
        """
        from repro.serialization import PAYLOAD_FORMAT_VERSION

        stamp = self._root / "format"
        wanted = str(PAYLOAD_FORMAT_VERSION)
        try:
            found = stamp.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            found = None
        except OSError as error:
            raise EngineError(
                f"DiskCache: cannot read format stamp {str(stamp)!r} "
                f"({error.strerror or error})"
            ) from None
        if found == wanted:
            return
        if found is not None:
            _log.warning(
                fmt_kv(
                    "diskcache.format_mismatch",
                    root=str(self._root),
                    found=found,
                    expected=wanted,
                )
            )
            self.clear()
        try:
            _write_atomically(stamp, f"{wanted}\n".encode("utf-8"), ".format-")
        except OSError as error:
            # Unstamped entries are stamped by the next open that can write.
            _write_failed("format", "", error)

    # -- core protocol -----------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether an entry for ``key`` is on disk, without reading it.

        A pure index probe (one ``stat``): it does not deserialize the
        payload, bump the LRU clock, or touch the hit/miss counters —
        planners call this per variant per stage, and a probe is a
        prediction, not a cache access.  A ``True`` here can still turn
        into a miss at execution time (corrupt entry, concurrent
        eviction); callers must treat it as a hint.
        """
        return self.path_for(key).is_file()

    def get(self, key: str, *, stage: str = "") -> dict[str, Any] | None:
        """Cached outputs for ``key``, or ``None``; never raises on bad data.

        A hit refreshes the entry's mtime (the LRU clock).  Any
        unreadable entry — truncation, corruption, stale payload
        format — logs a warning, counts a corruption *and* a miss,
        deletes the file and returns ``None`` so the caller recomputes.
        """
        from repro.serialization import payload_from_bytes

        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self._miss(stage)
            return None
        except OSError as error:
            self._corrupt(path, stage, f"unreadable file ({error!r})")
            return None
        try:
            outputs, meta = payload_from_bytes(raw)
        except ReproError as error:
            self._corrupt(path, stage, str(error))
            return None
        if meta.get("key") not in (None, key):
            self._corrupt(path, stage, f"key mismatch (stored {meta.get('key')!r})")
            return None
        try:
            os.utime(path, None)
        except OSError:
            pass  # LRU freshness is best-effort
        self._hits += 1
        current_metrics().counter("repro_engine_disk_hits_total").inc()
        if _log.isEnabledFor(10):  # DEBUG
            _log.debug(fmt_kv("diskcache.hit", key=key[:12], stage=stage))
        return outputs

    def put(self, key: str, outputs: Mapping[str, Any], *, stage: str = "") -> bool:
        """Persist one stage's outputs; returns False when not persisted.

        Unsupported artifact types degrade gracefully: the entry is
        skipped (memory cache still holds it for this process) and a
        debug line records why.  Writes are atomic — a temp file in
        the destination directory renamed over the final path.  A
        failed write (full disk, I/O error, unwritable directory) logs
        one warning, removes the temp file and is not counted as a
        store; the caller keeps its in-memory result.
        """
        from repro.serialization import payload_to_bytes

        path = self.path_for(key)
        try:
            raw = payload_to_bytes(
                outputs, meta={"key": key, "stage": stage, "written_unix": time.time()}
            )
        except ReproError as error:
            if _log.isEnabledFor(10):  # DEBUG
                _log.debug(
                    fmt_kv(
                        "diskcache.skip",
                        key=key[:12],
                        stage=stage,
                        reason=str(error),
                    )
                )
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_atomically(path, raw, f".{key[:12]}-")
        except OSError as error:
            _write_failed(key[:12], stage, error)
            return False
        self._stores += 1
        current_metrics().counter("repro_engine_disk_stores_total").inc()
        if _log.isEnabledFor(10):  # DEBUG
            _log.debug(
                fmt_kv(
                    "diskcache.store", key=key[:12], stage=stage, bytes=len(raw)
                )
            )
        self._evict_to_cap()
        return True

    # -- maintenance -------------------------------------------------------

    def _evict_to_cap(self) -> None:
        """Drop oldest-mtime entries until the cache fits ``max_bytes``."""
        entries = []
        total = 0
        for path in self._entries_on_disk():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self._max_bytes:
            return
        entries.sort()  # oldest mtime first
        for __, size, path in entries:
            if total <= self._max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self._evictions += 1
            current_metrics().counter("repro_engine_disk_evictions_total").inc()
            if _log.isEnabledFor(20):  # INFO
                _log.info(
                    fmt_kv("diskcache.evict", entry=path.name, bytes=size)
                )

    def clear(self) -> None:
        """Delete every entry (counters keep accumulating)."""
        for path in self._entries_on_disk():
            try:
                path.unlink()
            except OSError:
                pass

    def info(self) -> DiskCacheInfo:
        """Counters plus the current entry count and byte footprint."""
        entries = 0
        total = 0
        for path in self._entries_on_disk():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return DiskCacheInfo(
            hits=self._hits,
            misses=self._misses,
            stores=self._stores,
            evictions=self._evictions,
            corruptions=self._corruptions,
            entries=entries,
            total_bytes=total,
        )

    # -- accounting --------------------------------------------------------

    def _miss(self, stage: str) -> None:
        self._misses += 1
        current_metrics().counter("repro_engine_disk_misses_total").inc()
        if _log.isEnabledFor(10):  # DEBUG
            _log.debug(fmt_kv("diskcache.miss", stage=stage))

    def _corrupt(self, path: Path, stage: str, reason: str) -> None:
        """One bad entry: warn, count, delete, fall through to a miss."""
        self._corruptions += 1
        current_metrics().counter("repro_engine_disk_corruptions_total").inc()
        _log.warning(
            fmt_kv(
                "diskcache.corrupt_entry",
                entry=path.name,
                stage=stage,
                reason=reason,
            )
        )
        try:
            path.unlink()
        except OSError:
            pass
        self._miss(stage)

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"DiskCache(root={str(self._root)!r}, entries={info.entries}, "
            f"bytes={info.total_bytes}, hits={info.hits}, misses={info.misses})"
        )
