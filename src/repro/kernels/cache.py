"""The cross-query count cache — re-mining without touching the data.

Section 4.2 of the paper points out that the max-subpattern tree built for
one ``min_conf`` already answers any *higher* threshold: the hit counts do
not depend on the threshold at all, only the F1 filter does.
:class:`CountCache` turns that observation into a query cache keyed by

* the **series fingerprint** (content digest — edits invalidate),
* the **period**, and
* the **letter-order hash** of each memoized hit table (vocabulary remaps
  invalidate).

Two tables are cached per ``(fingerprint, period)``:

* the full scan-1 **letter counts** (unfiltered, so *any* ``min_conf``
  re-derives its F1 without a scan), and
* one scan-2 **hit table** per distinct ``C_max`` letter order — the
  ``{hit mask: count}`` multiset that rebuilds the tree.

A re-query at a higher ``min_conf`` shrinks F1, so its letter order is a
*subset* of a cached one; the cached table then **projects** onto the new
order (drop absent letters via the vocabulary remap, merge colliding
projections, drop sub-2-letter rows exactly as scan-2 insertion would) —
still no scan.  A lower ``min_conf`` can grow F1 beyond any cached order
and is a legitimate miss.

With ``cache_dir`` set, entries persist as one JSON file per key and
survive the process, giving ``ppm mine --cache-dir`` warm starts.

The cache is safe to share across threads (``repro.serve`` mines on a
thread pool): every public method holds one reentrant lock, persisted
writes go through a per-writer temporary file renamed into place, and a
writer that loses a rename race simply leaves the winner's file — both
wrote equivalent content for the same key.  ``max_entries`` bounds the
cache in LRU order; eviction drops the entry from memory *and* disk and
reports it through ``on_evict``, which is how the serving layer keeps
its per-tenant ledgers in sync.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from collections import Counter, OrderedDict
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import MiningError
from repro.core.pattern import Letter
from repro.encoding.vocabulary import LetterVocabulary, remap_mask
from repro.timeseries.feature_series import FeatureSeries

#: Format tag written into every persisted cache entry.
FORMAT_TAG = "repro.countcache/1"


def letters_hash(letters: Iterable[Letter]) -> str:
    """A stable short digest of a letter order (the vocab hash of the key).

    Order-sensitive on purpose: the letter order *is* the bit order of
    every mask in a hit table, so two orders over the same letters are
    different vocabularies.
    """
    digest = hashlib.sha256()
    for offset, feature in letters:
        digest.update(f"{offset}\x1f{feature}\x1e".encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class CacheKey:
    """Identity of one cacheable query target: a series at a period."""

    fingerprint: str
    period: int

    @property
    def file_name(self) -> str:
        """The persisted entry's file name under ``cache_dir``."""
        return f"{self.fingerprint}-p{self.period}.json"


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/store tallies across every lookup kind."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Hits that were answered by projecting a superset-order table.
    projected: int = 0
    #: Entries dropped by the ``max_entries`` LRU bound or ``evict()``.
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups answered (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when none)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"cache: hits={self.hits} misses={self.misses} "
            f"stores={self.stores} projected={self.projected} "
            f"evictions={self.evictions} hit_rate={self.hit_rate:.2f}"
        )


@dataclass(slots=True)
class _CacheEntry:
    """In-memory state for one ``(fingerprint, period)``."""

    letter_counts: Counter | None = None
    #: letter-order hash -> (letter order, {hit mask: count}).
    hit_tables: dict[str, tuple[tuple[Letter, ...], dict[int, int]]] = field(
        default_factory=dict
    )


class CountCache:
    """Memoized scan results, optionally persisted to ``cache_dir``.

    Examples
    --------
    >>> from repro.timeseries.feature_series import FeatureSeries
    >>> cache = CountCache()
    >>> series = FeatureSeries.from_symbols("abdabcabd")
    >>> key = cache.key_for(series, 3)
    >>> cache.get_letter_counts(key) is None
    True
    """

    def __init__(
        self,
        cache_dir: "str | Path | None" = None,
        max_entries: int | None = None,
        on_evict: Callable[[CacheKey], None] | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise MiningError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        #: LRU order: oldest-touched entry first.
        self._entries: OrderedDict[CacheKey, _CacheEntry] = OrderedDict()
        self._dir = None if cache_dir is None else Path(cache_dir)
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.on_evict = on_evict
        self._lock = threading.RLock()
        #: Distinguishes concurrent writers' temporary files (with the pid).
        self._tmp_seq = itertools.count()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def key_for(self, series: object, period: int) -> CacheKey:
        """The cache key of a series at a period.

        Fingerprinting reads the series content once; scan-counting
        wrappers are unwrapped first so the identity check is not billed
        as a mining scan (it is the same digest either way).
        """
        if period < 1:
            raise MiningError(f"period must be >= 1, got {period}")
        if not isinstance(series, FeatureSeries):
            inner = getattr(series, "series", None)
            if isinstance(inner, FeatureSeries):
                series = inner
        if not isinstance(series, FeatureSeries):
            raise MiningError(
                f"cannot fingerprint a {type(series).__name__}; "
                "pass a FeatureSeries"
            )
        return CacheKey(series.content_digest(), period)

    # ------------------------------------------------------------------
    # Letter counts (scan-1 state)
    # ------------------------------------------------------------------

    def get_letter_counts(self, key: CacheKey) -> Counter | None:
        """The full (unfiltered) letter counts of a key, or ``None``."""
        with self._lock:
            entry = self._load(key)
            if entry is None or entry.letter_counts is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return Counter(entry.letter_counts)

    def put_letter_counts(
        self, key: CacheKey, counts: Mapping[Letter, int]
    ) -> None:
        """Store the full letter counts of a key (and persist if enabled)."""
        with self._lock:
            entry = self._entry(key)
            entry.letter_counts = Counter(counts)
            self.stats.stores += 1
            self._persist(key, entry)
            self._enforce_bound()

    # ------------------------------------------------------------------
    # Hit tables (scan-2 state)
    # ------------------------------------------------------------------

    def get_hit_table(
        self, key: CacheKey, letter_order: Sequence[Letter]
    ) -> dict[int, int] | None:
        """The hit table of a key for one letter order, or ``None``.

        Answers exactly-matching orders directly and subset orders by
        projecting the narrowest cached superset table (see the module
        docstring for why the projection is exact).
        """
        with self._lock:
            entry = self._load(key)
            order = tuple(letter_order)
            if entry is not None:
                table_hash = letters_hash(order)
                cached = entry.hit_tables.get(table_hash)
                if cached is not None:
                    self.stats.hits += 1
                    return dict(cached[1])
                projected = self._project_from_superset(entry, order)
                if projected is not None:
                    # Memoize the projection so the next identical re-query
                    # is a direct hit, and persist it alongside the source
                    # table.
                    entry.hit_tables[table_hash] = (order, projected)
                    self._persist(key, entry)
                    self.stats.hits += 1
                    self.stats.projected += 1
                    return dict(projected)
            self.stats.misses += 1
            return None

    def put_hit_table(
        self,
        key: CacheKey,
        letter_order: Sequence[Letter],
        table: Mapping[int, int],
    ) -> None:
        """Store a hit table for one letter order (and persist if enabled)."""
        with self._lock:
            entry = self._entry(key)
            order = tuple(letter_order)
            entry.hit_tables[letters_hash(order)] = (order, dict(table))
            self.stats.stores += 1
            self._persist(key, entry)
            self._enforce_bound()

    @staticmethod
    def _project_from_superset(
        entry: _CacheEntry, order: tuple[Letter, ...]
    ) -> dict[int, int] | None:
        """Project the narrowest cached superset-order table onto ``order``.

        Remapping drops letters absent from ``order``, sums colliding
        projections, and discards rows that fall below two letters — the
        exact transformation scan 2 itself applies, so the projected table
        equals the table a fresh scan would have produced.
        """
        wanted = set(order)
        best: tuple[tuple[Letter, ...], dict[int, int]] | None = None
        for stored_order, table in entry.hit_tables.values():
            if wanted <= set(stored_order) and (
                best is None or len(stored_order) < len(best[0])
            ):
                best = (stored_order, table)
        if best is None:
            return None
        stored_order, table = best
        # Period-less vocabularies: only the bit orders matter for remapping.
        source = LetterVocabulary(stored_order)
        target = LetterVocabulary(order)
        remap = source.remap_table(target)
        projected: dict[int, int] = {}
        for mask, count in table.items():
            out = remap_mask(mask, remap)
            if out.bit_count() >= 2:
                projected[out] = projected.get(out, 0) + count
        return projected

    # ------------------------------------------------------------------
    # Bookkeeping and persistence
    # ------------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Entries currently held in memory."""
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[CacheKey]:
        """The in-memory keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry, in memory and (when persisting) on disk.

        Unlike :meth:`evict`, clearing does not fire ``on_evict`` — it is
        a whole-cache reset, not a policy decision about one entry.
        """
        with self._lock:
            self._entries.clear()
            if self._dir is not None:
                for path in self._dir.glob("*-p*.json"):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def evict(self, key: CacheKey) -> bool:
        """Drop one entry from memory and disk; ``True`` if it existed.

        Fires ``on_evict`` and counts toward ``stats.evictions`` — this is
        the hook the serving layer's quota policy calls to reclaim a
        specific tenant's entry.
        """
        with self._lock:
            existed = self._entries.pop(key, None) is not None
            if self._dir is not None:
                try:
                    (self._dir / key.file_name).unlink()
                    existed = True
                except OSError:
                    pass
            if existed:
                self.stats.evictions += 1
                if self.on_evict is not None:
                    self.on_evict(key)
            return existed

    def _enforce_bound(self) -> None:
        """Evict least-recently-used entries down to ``max_entries``."""
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            key, _ = self._entries.popitem(last=False)
            if self._dir is not None:
                try:
                    (self._dir / key.file_name).unlink()
                except OSError:
                    pass
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(key)

    def _entry(self, key: CacheKey) -> _CacheEntry:
        loaded = self._load(key)
        if loaded is not None:
            return loaded
        entry = _CacheEntry()
        self._entries[key] = entry
        return entry

    def _load(self, key: CacheKey) -> _CacheEntry | None:
        """The entry of a key, reading it from disk on first touch.

        Every successful lookup refreshes the key's LRU position.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        if self._dir is None:
            return None
        path = self._dir / key.file_name
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("format") != FORMAT_TAG:
            return None
        entry = _CacheEntry()
        raw_letters = payload.get("letter_counts")
        if raw_letters is not None:
            entry.letter_counts = Counter(
                {
                    (int(offset), str(feature)): int(count)
                    for offset, feature, count in raw_letters
                }
            )
        for item in payload.get("hit_tables", []):
            order = tuple(
                (int(offset), str(feature)) for offset, feature in item["letters"]
            )
            table = {int(mask): int(count) for mask, count in item["rows"]}
            entry.hit_tables[letters_hash(order)] = (order, table)
        self._entries[key] = entry
        self._enforce_bound()
        return entry

    def _persist(self, key: CacheKey, entry: _CacheEntry) -> None:
        """Write one entry atomically (write-to-temp, rename into place).

        The temporary name carries the pid and a per-cache sequence
        number, so concurrent writers — other threads of this process or
        other processes sharing ``cache_dir`` — never collide on the same
        temporary file.  ``os.replace`` then makes the final rename
        atomic; a writer that loses the race simply replaces the winner's
        file with equivalent content for the same key, and any OS-level
        failure (a full or vanished cache directory, a permission flip)
        degrades to an in-memory-only entry rather than failing the mine.
        """
        if self._dir is None:
            return
        payload: dict = {
            "format": FORMAT_TAG,
            "fingerprint": key.fingerprint,
            "period": key.period,
        }
        if entry.letter_counts is not None:
            payload["letter_counts"] = [
                [offset, feature, count]
                for (offset, feature), count in sorted(
                    entry.letter_counts.items()
                )
            ]
        payload["hit_tables"] = [
            {
                "letters": [[offset, feature] for offset, feature in order],
                "rows": [[mask, count] for mask, count in sorted(table.items())],
            }
            for order, table in entry.hit_tables.values()
        ]
        path = self._dir / key.file_name
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(self._tmp_seq)}.tmp"
        )
        try:
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def __repr__(self) -> str:
        return f"CountCache(entries={self.entry_count}, {self.stats.summary()})"
