"""The contiguous segment store — one flat buffer of encoded segments.

Scan 1, scan 2 and brute-force verification all consume the same
information: the bitmask of every whole period segment over some
vocabulary.  :class:`SegmentStore` materializes that once into a contiguous
``array('Q')`` buffer (a Python ``list`` of ints only when the vocabulary
overflows 64 bits), so that

* the buffer pickles as one compact bytes blob instead of per-segment
  objects;
* repeated counting passes (hit collection, candidate verification, letter
  counting) run as vectorized numpy kernels over the buffer viewed as a
  ``uint64`` column (:mod:`repro.kernels.columnar`) — zero-copy via
  ``np.frombuffer``;
* the distinct-mask multiset — the complete scan-2 state of Algorithm 3.2
  — is computed once and memoized, after which every consumer works on
  ``O(distinct hits)`` rows instead of ``O(segments)``.

A store is built per ``(series, period, vocabulary)`` and is then shared by
every stage of that query — and, through
:class:`~repro.kernels.cache.CountCache`, its derived tables outlive the
query entirely.

Out-of-core stores
------------------
A packed store round-trips to disk as a raw little-endian ``uint64`` file
plus a JSON sidecar (``<path>.meta.json``) carrying the letter order,
period and row count (:meth:`SegmentStore.to_file` /
:meth:`SegmentStore.from_file`).  :class:`StoreOptions` makes the build
itself out-of-core: once the encode pass crosses ``spill_bytes``, masks
stream to disk in chunks and the finished store is an ``np.memmap`` view —
series far larger than RAM encode and mine in bounded memory, because
every columnar kernel works in fixed-size chunks.
"""

from __future__ import annotations

import json
import os
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.errors import EncodingError
from repro.core.pattern import Letter
from repro.encoding.codec import iter_segment_letters
from repro.encoding.vocabulary import LetterVocabulary
from repro.kernels import columnar as _columnar
from repro.kernels.batched import batched_count_masks
from repro.kernels.slotcodes import SegmentCodes, mask_values
from repro.timeseries.feature_series import FeatureSeries

#: Vocabulary widths up to this many letters pack into an ``array('Q')``;
#: wider vocabularies fall back to a plain list of Python ints.
PACKED_MAX_BITS = 64

#: Default in-memory threshold before :class:`StoreOptions` spills the
#: buffer to disk: 64 MiB of masks (8M segments).
DEFAULT_SPILL_BYTES = 64 * 1024 * 1024

#: Rows buffered between disk flushes while spilling.
_SPILL_FLUSH_ROWS = _columnar.CHUNK_ROWS

#: Format tag written to the JSON sidecar of an on-disk store.
_STORE_FORMAT = "repro.segstore/1"


class WideVocabularyError(EncodingError):
    """Raised when a packed-only operation meets a >64-letter vocabulary."""


@dataclass(frozen=True)
class StoreOptions:
    """Where (and when) a store's buffer spills to disk.

    Attributes
    ----------
    directory:
        Directory receiving spilled store files (created on demand) —
        the CLI's ``--store-dir``.
    spill_bytes:
        In-memory threshold: once the encode pass has buffered this many
        bytes of masks, the buffer streams to disk and the finished store
        is mmap-backed.  ``0`` spills unconditionally.
    basename:
        Optional file name for the spilled store.  Defaults to a
        deterministic name derived from the series content digest and
        period, so re-running the same query overwrites (never leaks)
        its own file.
    """

    directory: str | Path
    spill_bytes: int = DEFAULT_SPILL_BYTES
    basename: str | None = None

    def __post_init__(self) -> None:
        if self.spill_bytes < 0:
            raise EncodingError(
                f"spill_bytes must be >= 0, got {self.spill_bytes}"
            )


def _restore_packed(
    letters: tuple[Letter, ...], period: int, raw: bytes
) -> "SegmentStore":
    """Unpickle helper: rebuild a packed store from its raw buffer."""
    masks = array("Q")
    masks.frombytes(raw)
    vocab = LetterVocabulary(letters, period=period)
    return SegmentStore(vocab, period, masks, _prebuilt=True)


def _restore_wide(
    letters: tuple[Letter, ...], period: int, masks: tuple[int, ...]
) -> "SegmentStore":
    """Unpickle helper: rebuild a wide (>64-letter) store."""
    vocab = LetterVocabulary(letters, period=period)
    return SegmentStore(vocab, period, list(masks), _prebuilt=True)


class SegmentStore:
    """Encoded whole segments of one period in a contiguous buffer.

    Examples
    --------
    >>> series = FeatureSeries.from_symbols("abdabcabd")
    >>> store = SegmentStore.from_series(series, 3)
    >>> len(store), store.distinct_count
    (3, 2)
    >>> store.count_mask(store.vocab.encode_letters([(0, "a"), (1, "b")]))
    3
    """

    __slots__ = (
        "_vocab",
        "_period",
        "_masks",
        "_distinct",
        "_packed",
        "_path",
        "_bitmaps",
    )

    def __init__(
        self,
        vocab: LetterVocabulary,
        period: int,
        masks: "array[int] | list[int] | np.ndarray | Iterable[int]",
        _prebuilt: bool = False,
    ):
        if period < 1:
            raise EncodingError(f"period must be >= 1, got {period}")
        self._vocab = vocab
        self._period = period
        if _prebuilt:
            self._masks = masks  # type: ignore[assignment]
        elif len(vocab) <= PACKED_MAX_BITS:
            self._masks = array("Q", masks)
        else:
            self._masks = list(masks)
        self._packed = isinstance(self._masks, (array, np.ndarray))
        self._distinct: Counter | None = None
        self._path: Path | None = None
        self._bitmaps: "_columnar.LetterBitmapIndex | None" = None

    @classmethod
    def from_series(
        cls,
        series: FeatureSeries,
        period: int,
        vocab: LetterVocabulary | None = None,
        options: StoreOptions | None = None,
    ) -> "SegmentStore":
        """Encode every whole segment of a series into one buffer.

        With an explicit vocabulary (the usual case: the sorted ``C_max``
        letters) this is exactly one scan and letters outside the
        vocabulary are dropped — encoding *is* the hit projection.  Without
        one, the full sorted vocabulary of the series is read off the same
        scan first.  The scan runs on the series' slot-code matrix
        (:class:`~repro.kernels.slotcodes.SegmentCodes`): each used
        ``(offset, code)`` pair is projected once, whatever the
        vocabulary width; wide stores are grouped with ``np.unique``
        right away, which primes :meth:`distinct_counts`.

        ``options`` makes the build out-of-core: past the spill threshold
        the masks stream to disk and the store comes back mmap-backed.
        Wide (>64-letter) vocabularies have no fixed-width on-disk format,
        so they ignore ``options`` and stay in memory.
        """
        codes = SegmentCodes.of(series, period)
        if vocab is None:
            vocab = LetterVocabulary.from_letters(
                codes.letter_counts(), period=period
            )
        rows = codes.masks(vocab)
        if len(vocab) > PACKED_MAX_BITS:
            distinct, inverse, counts = np.unique(
                rows, axis=0, return_inverse=True, return_counts=True
            )
            values = mask_values(distinct)
            store = cls(
                vocab,
                period,
                [values[index] for index in inverse.reshape(-1).tolist()],
                _prebuilt=True,
            )
            store._distinct = Counter(dict(zip(values, counts.tolist())))
            return store
        masks = array("Q")
        masks.frombytes(_columnar.as_uint64(rows[:, 0]).tobytes())
        if options is None:
            return cls(vocab, period, masks, _prebuilt=True)
        return cls._materialize(
            vocab, period, masks, options, cls._spill_name(series, period, options)
        )

    @classmethod
    def from_series_interned(
        cls,
        series: FeatureSeries,
        period: int,
        options: StoreOptions | None = None,
    ) -> "SegmentStore":
        """One streaming scan: intern letters in arrival order while encoding.

        The columnar tier's scan-1 builder — unlike :meth:`from_series`
        with ``vocab=None`` it never pre-scans the series for the
        vocabulary, so the whole store (and the full-vocabulary letter
        counts derivable from its column) costs exactly one pass.  Bit
        order is arrival order, not sorted order; consumers project onto a
        sorted target via :meth:`LetterVocabulary.remap_table`.

        Raises :class:`WideVocabularyError` as soon as a 65th letter
        appears — the caller falls back to the batched scan paths.
        """
        vocab = LetterVocabulary((), period=period)
        intern = vocab.intern

        def masks() -> Iterator[int]:
            for segment in series.segments(period):
                mask = 0
                for letter in iter_segment_letters(segment):
                    bit_id = intern(letter)
                    if bit_id >= PACKED_MAX_BITS:
                        raise WideVocabularyError(
                            f"vocabulary exceeds {PACKED_MAX_BITS} letters "
                            f"at {letter!r}; no packed column exists"
                        )
                    mask |= 1 << bit_id
                yield mask

        if options is None:
            return cls(vocab, period, array("Q", masks()), _prebuilt=True)
        return cls._materialize(
            vocab, period, masks(), options, cls._spill_name(series, period, options)
        )

    @staticmethod
    def _spill_name(
        series: FeatureSeries, period: int, options: StoreOptions
    ) -> str:
        """Deterministic spill-file name: content digest + period."""
        if options.basename is not None:
            return options.basename
        return f"{series.content_digest()[:16]}-p{period}.seg"

    @classmethod
    def _materialize(
        cls,
        vocab: LetterVocabulary,
        period: int,
        masks: Iterable[int],
        options: StoreOptions,
        basename: str,
    ) -> "SegmentStore":
        """Collect masks, spilling the buffer to disk past the threshold.

        Below ``spill_bytes`` the result is an ordinary in-memory packed
        store; above it the masks stream to ``<directory>/<basename>``
        (written to a temp name, then atomically renamed next to its JSON
        sidecar) and the store comes back as a read-only ``np.memmap``.
        """
        buffer = array("Q")
        handle = None
        final = Path(options.directory) / basename
        tmp = final.with_name(final.name + ".tmp")
        written = 0
        try:
            for mask in masks:
                buffer.append(mask)
                if (
                    handle is None
                    and len(buffer) * buffer.itemsize >= options.spill_bytes
                ):
                    final.parent.mkdir(parents=True, exist_ok=True)
                    handle = open(tmp, "wb")
                if handle is not None and len(buffer) >= _SPILL_FLUSH_ROWS:
                    buffer.tofile(handle)
                    written += len(buffer)
                    buffer = array("Q")
        except BaseException:  # repro: ignore[REP404] -- re-raised immediately; even KeyboardInterrupt must not leak the spill temp file
            if handle is not None:
                handle.close()
                tmp.unlink(missing_ok=True)
            raise
        if handle is None:
            return cls(vocab, period, buffer, _prebuilt=True)
        if buffer:
            buffer.tofile(handle)
            written += len(buffer)
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        cls._write_meta(final, vocab.letters, period, written)
        os.replace(tmp, final)
        return cls.from_file(final)

    # ------------------------------------------------------------------
    # On-disk round trip (out-of-core stores)
    # ------------------------------------------------------------------

    @staticmethod
    def _write_meta(
        path: Path, letters: tuple[Letter, ...], period: int, segments: int
    ) -> None:
        """Write the JSON sidecar describing a raw mask file (atomically)."""
        meta = {
            "format": _STORE_FORMAT,
            "period": period,
            "segments": segments,
            "letters": [[offset, feature] for offset, feature in letters],
        }
        meta_path = Path(str(path) + ".meta.json")
        meta_tmp = meta_path.with_name(meta_path.name + ".tmp")
        meta_path.parent.mkdir(parents=True, exist_ok=True)
        with open(meta_tmp, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(meta_tmp, meta_path)

    def to_file(self, path: "str | Path") -> Path:
        """Persist a packed store: raw little-endian ``uint64`` masks + sidecar.

        The data file is written to a temp name and renamed after its
        sidecar, so a crash mid-write never leaves a readable-but-torn
        store behind.  Wide stores have no fixed-width row format and
        raise :class:`WideVocabularyError`.
        """
        column = self.column()
        if column is None:
            raise WideVocabularyError(
                f"store with {len(self._vocab)} letters exceeds "
                f"{PACKED_MAX_BITS} bits; only packed stores persist"
            )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            _columnar.as_uint64(column).tofile(handle)
            handle.flush()
            os.fsync(handle.fileno())
        self._write_meta(path, self._vocab.letters, self._period, len(self))
        os.replace(tmp, path)
        return path

    @classmethod
    def from_file(cls, path: "str | Path", mmap: bool = True) -> "SegmentStore":
        """Open a persisted store; ``mmap=True`` (default) maps it read-only.

        The mmap-backed store never loads the buffer into RAM: every
        columnar kernel streams it in fixed-size chunks, so a series far
        larger than memory mines at disk bandwidth.  ``mmap=False`` reads
        the file into an ordinary in-memory ``array('Q')`` store (the
        equivalence baseline).
        """
        path = Path(path)
        meta_path = Path(str(path) + ".meta.json")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise EncodingError(
                f"store sidecar {meta_path} is missing"
            ) from None
        except json.JSONDecodeError as error:
            raise EncodingError(
                f"store sidecar {meta_path} is corrupt: {error}"
            ) from None
        if meta.get("format") != _STORE_FORMAT:
            raise EncodingError(
                f"store sidecar {meta_path} has unknown format "
                f"{meta.get('format')!r}"
            )
        period = int(meta["period"])
        segments = int(meta["segments"])
        letters = tuple(
            (int(offset), feature) for offset, feature in meta["letters"]
        )
        expected = segments * 8
        actual = path.stat().st_size
        if actual != expected:
            raise EncodingError(
                f"store file {path} holds {actual} bytes; sidecar "
                f"promises {segments} segments ({expected} bytes)"
            )
        vocab = LetterVocabulary(letters, period=period)
        if mmap:
            masks: "np.ndarray | array[int]" = (
                np.memmap(path, dtype="<u8", mode="r")
                if segments
                else np.zeros(0, dtype="<u8")
            )
        else:
            masks = array("Q")
            masks.frombytes(path.read_bytes())
        store = cls(vocab, period, masks, _prebuilt=True)
        store._path = path
        return store

    # ------------------------------------------------------------------
    # Buffer accessors
    # ------------------------------------------------------------------

    @property
    def vocab(self) -> LetterVocabulary:
        """The vocabulary fixing the bit order of every stored mask."""
        return self._vocab

    @property
    def period(self) -> int:
        """The period the series was segmented by."""
        return self._period

    @property
    def packed(self) -> bool:
        """True when the buffer is a contiguous 64-bit row buffer."""
        return self._packed

    @property
    def mapped(self) -> bool:
        """True when the buffer is an mmap/ndarray view of an on-disk file."""
        return isinstance(self._masks, np.ndarray)

    @property
    def path(self) -> Path | None:
        """The on-disk file backing this store, when one exists."""
        return self._path

    @property
    def nbytes(self) -> int:
        """Size of the mask buffer in bytes."""
        if isinstance(self._masks, np.ndarray):
            return int(self._masks.nbytes)
        if isinstance(self._masks, array):
            return len(self._masks) * self._masks.itemsize
        return sum(
            mask.bit_length() // 8 + 1
            for mask in self._masks  # repro: ignore[REP1101] -- wide-vocab fallback: Python ints wider than 64 bits never form a numpy column
        )

    def column(self) -> "np.ndarray | None":
        """The buffer as a numpy ``uint64`` column — zero-copy.

        ``array('Q')`` buffers come back as an ``np.frombuffer`` view and
        mmap-backed stores as the map itself; both share memory with the
        store.  ``None`` for wide (>64-letter) stores, whose masks are
        arbitrary-precision Python ints.
        """
        if isinstance(self._masks, np.ndarray):
            return self._masks
        if isinstance(self._masks, array):
            return np.frombuffer(self._masks, dtype=np.uint64)
        return None

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[int]:
        if isinstance(self._masks, np.ndarray):
            return iter(self._masks.tolist())
        return iter(self._masks)

    def __getitem__(self, index: int) -> int:
        return int(self._masks[index])

    def __reduce__(self):  # type: ignore[override]
        if isinstance(self._masks, np.ndarray):
            return (
                _restore_packed,
                (
                    self._vocab.letters,
                    self._period,
                    _columnar.as_uint64(self._masks).tobytes(),
                ),
            )
        if isinstance(self._masks, array):
            return (
                _restore_packed,
                (self._vocab.letters, self._period, self._masks.tobytes()),
            )
        return (
            _restore_wide,
            (self._vocab.letters, self._period, tuple(self._masks)),
        )

    # ------------------------------------------------------------------
    # Counting kernels — every pass below runs on the flat buffer
    # ------------------------------------------------------------------

    @property
    def distinct_count(self) -> int:
        """Number of distinct segment masks (any bit count)."""
        return len(self.distinct_counts())

    def distinct_counts(self) -> Counter:
        """Multiset of distinct segment masks, memoized.

        The collapse from ``O(segments)`` to ``O(distinct masks)`` rows is
        what every batched consumer builds on; on periodic data distinct
        masks are orders of magnitude fewer than segments.  The memo is
        shared by *every* counting entry point — letter counts, hit
        collection, single- and batched-mask verification — so cold-path
        callers never rebuild the pass.  Packed stores compute it as a
        chunked ``np.unique`` over the column (bounded memory on mmap'd
        buffers); only the wide fallback walks Python ints.
        """
        if self._distinct is None:
            column = self.column()
            if column is not None:
                self._distinct = _columnar.distinct_counts(column)
            else:
                counts: Counter = Counter()
                for mask in self._masks:  # repro: ignore[REP1101] -- wide-vocab fallback: >64-letter masks are Python ints, outside any numpy column
                    counts[mask] += 1
                self._distinct = counts
        return self._distinct

    def letter_counts(self) -> Counter:
        """Scan-1 state: the count of every vocabulary letter.

        Packed stores answer straight from the column — one vectorized
        unpack-and-sum pass
        (:func:`repro.kernels.columnar.letter_bit_totals`) in bounded
        chunks, so it never materializes the distinct multiset and stays
        fast even when nearly every mask is distinct (high-noise data,
        where a per-distinct-mask bit walk costs more than rescanning the
        column).  The bit walk over the distinct memo only remains for
        the wide-vocabulary fallback.
        """
        column = self.column()
        if column is not None:
            return _columnar.letter_counts(column, self._vocab)
        bit_totals: dict[int, int] = {}
        for mask, count in self.distinct_counts().items():
            while mask:
                low = mask & -mask
                bit_totals[low] = bit_totals.get(low, 0) + count
                mask ^= low
        vocab = self._vocab
        counts: Counter = Counter()
        for low, total in bit_totals.items():
            counts[vocab[low.bit_length() - 1]] = total
        return counts

    def hit_counter(self, min_letters: int = 2) -> Counter:
        """Scan-2 state: distinct masks with at least ``min_letters`` bits.

        When the store's vocabulary is the sorted ``C_max`` letters this is
        exactly the max-subpattern tree's mergeable content — feed it to
        ``insert_mask`` once per distinct hit.  Packed stores filter with
        a vectorized popcount (``np.bitwise_count``) over the distinct
        keys.
        """
        if self._packed:
            return _columnar.hit_counter(self.distinct_counts(), min_letters)
        return Counter(
            {
                mask: count
                for mask, count in self.distinct_counts().items()
                if mask.bit_count() >= min_letters
            }
        )

    def bitmap_index(self) -> "_columnar.LetterBitmapIndex":
        """The per-letter occurrence bitmap index, built once and memoized.

        The sparse-alphabet verification path: a candidate's count is the
        popcount of the AND of its letters' bitmaps, and a letter with no
        occurrences short-circuits without touching the column.  Requires
        a packed store.
        """
        if self._bitmaps is None:
            column = self.column()
            if column is None:
                raise WideVocabularyError(
                    f"store with {len(self._vocab)} letters exceeds "
                    f"{PACKED_MAX_BITS} bits; bitmap indexes need a column"
                )
            self._bitmaps = _columnar.LetterBitmapIndex.from_column(column)
        return self._bitmaps

    def count_mask(self, mask: int) -> int:
        """Frequency count of one candidate mask (over distinct rows)."""
        return sum(
            count
            for stored, count in self.distinct_counts().items()
            if not mask & ~stored
        )

    def count_masks(
        self, masks: Sequence[int], kernel: str = "batched"
    ) -> dict[int, int]:
        """Batched frequency counts of many candidates in one pass.

        ``kernel="batched"`` delegates to
        :func:`~repro.kernels.batched.batched_count_masks` over the
        distinct-mask rows; ``"columnar"`` answers with the broadcast
        AND/compare reduction (:func:`repro.kernels.columnar.count_masks`)
        — or, when the distinct table outweighs the per-letter bitmaps
        (``distinct * 8 > segments``), with the bitmap-intersection index.
        Results are identical across kernels.
        """
        ordered = list(masks)
        if kernel == "columnar" and self._packed:
            distinct = self.distinct_counts()
            if ordered and len(distinct) * 8 > len(self._masks):
                return self.bitmap_index().count_masks(ordered)
            return _columnar.count_masks(distinct, ordered)
        return batched_count_masks(self.distinct_counts().items(), ordered)

    def __repr__(self) -> str:
        return (
            f"SegmentStore(segments={len(self._masks)}, "
            f"period={self._period}, letters={len(self._vocab)}, "
            f"packed={self._packed}, mapped={self.mapped})"
        )
