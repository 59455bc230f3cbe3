"""Slot-code scans — both scans of the hit-set method over the code column.

A loaded series carries a slot-code view
(:class:`~repro.timeseries.feature_series.SlotCodes`): its distinct slots
plus one int32 code per slot.  Cut into whole segments of period ``p`` the
codes form an ``m x p`` matrix, and a letter ``(offset, feature)`` occurs
in a segment exactly when the segment's code at ``offset`` names a
distinct slot holding ``feature``.  Real series repeat few slot contents
(the Figure-2 series at 500k slots has about 6k distinct lines), so both
scans work per used ``(offset, code)`` pair instead of per slot:

* **Scan 1** (:meth:`SegmentCodes.letter_counts`) counts the pairs with
  one ``np.bincount`` over ``offset * |distinct| + code`` (``np.unique``
  when that table would be too large) and expands each used pair into its
  letters.
* **Scan 2** (:meth:`SegmentCodes.masks`) projects each used pair onto a
  letter vocabulary once (:func:`project_pairs`) and ORs the projected
  masks per segment into ``ceil(|vocab| / 64)`` ``uint64`` words — any
  vocabulary width.  :class:`~repro.kernels.store.SegmentStore` groups
  the rows with ``np.unique``.

Scan 1 counts in chunks of :data:`CHUNK_SEGMENTS` segments and scan 2
works one offset column at a time, so neither holds more than a chunk
or a column of temporaries beyond the code matrix and its output.
Series-like objects without a view (scan-counting wrappers) are interned
from one pass of their ``segments`` iterator, which the wrapper books as
the scan it is.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

import numpy as np

from repro.encoding.vocabulary import LetterVocabulary
from repro.timeseries.feature_series import FeatureSeries, SlotCodes

#: Segments per chunk of the code matrix in both scans.
CHUNK_SEGMENTS = 1 << 14

#: Largest ``period * |distinct|`` pair table scan 1 counts densely with
#: ``np.bincount`` (16 MiB of int64); beyond it pairs are counted with
#: ``np.unique``, whose cost follows the slots instead of the table.
DENSE_PAIRS = 1 << 21

#: Bits per mask word.
WORD_BITS = 64


class SegmentCodes:
    """The whole segments of one period as an ``m x p`` code matrix.

    Examples
    --------
    >>> codes = SegmentCodes.of(FeatureSeries.from_symbols("abdabcabd"), 3)
    >>> codes.matrix.tolist()
    [[0, 1, 2], [0, 1, 3], [0, 1, 2]]
    >>> sorted(codes.letter_counts().items())[:2]
    [((0, 'a'), 3), ((1, 'b'), 3)]
    """

    __slots__ = ("distinct", "matrix")

    def __init__(
        self, distinct: tuple[frozenset[str], ...], matrix: np.ndarray
    ) -> None:
        self.distinct = distinct
        #: ``int32`` codes into :attr:`distinct`, one row per segment.
        self.matrix = matrix

    @classmethod
    def of(cls, series: FeatureSeries, period: int) -> "SegmentCodes":
        """The code matrix of ``series`` at ``period`` (one scan)."""
        num_periods = series.num_periods(period)
        slot_codes = getattr(series, "slot_codes", None)
        if slot_codes is not None:
            view: SlotCodes = slot_codes()
        else:
            view = SlotCodes.from_slots(
                chain.from_iterable(series.segments(period))
            )
        codes = np.frombuffer(view.codes, dtype=np.intc)
        matrix = codes[: num_periods * period].reshape(num_periods, period)
        return cls(view.distinct, matrix)

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def _chunks(self) -> "list[np.ndarray]":
        rows = self.matrix
        return [
            rows[start : start + CHUNK_SEGMENTS]
            for start in range(0, len(rows), CHUNK_SEGMENTS)
        ]

    # ------------------------------------------------------------------
    # Scan 1
    # ------------------------------------------------------------------

    def pair_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, codes, counts)`` of every used ``(offset, code)`` pair.

        ``counts[i]`` is the number of segments whose slot at
        ``offsets[i]`` has code ``codes[i]``; pairs come in key order.
        """
        period = self.matrix.shape[1]
        width = max(len(self.distinct), 1)
        size = period * width
        base = np.arange(period, dtype=np.int64) * width
        if size <= DENSE_PAIRS:
            table = np.zeros(size, np.int64)
            for chunk in self._chunks():
                table += np.bincount((chunk + base).ravel(), minlength=size)
            keys = np.flatnonzero(table)
            counts = table[keys]
        else:
            parts = [
                np.unique((chunk + base).ravel(), return_counts=True)
                for chunk in self._chunks()
            ]
            keys, inverse = np.unique(
                np.concatenate([part[0] for part in parts] or [base[:0]]),
                return_inverse=True,
            )
            counts = np.bincount(
                inverse,
                weights=np.concatenate([part[1] for part in parts] or [base[:0]]),
                minlength=len(keys),
            ).astype(np.int64)
        offsets, codes = np.divmod(keys, width)
        return offsets, codes, counts

    def letter_counts(self) -> Counter:
        """Scan-1 state: every letter with its (non-zero) frequency count.

        Each used pair adds its segment count to the letters of its
        distinct slot; the expansion is one ``np.repeat`` over a CSR
        layout of the distinct slots' features.
        """
        offsets, codes, counts = self.pair_counts()
        names: dict[str, int] = {}
        sizes = np.fromiter(
            (len(slot) for slot in self.distinct), np.int64, len(self.distinct)
        )
        members = np.fromiter(
            (
                names.setdefault(feature, len(names))
                for slot in self.distinct
                for feature in slot
            ),
            np.int64,
            int(sizes.sum()),
        )
        starts = np.cumsum(sizes) - sizes
        per_pair = sizes[codes]
        pair_of = np.repeat(np.arange(len(codes)), per_pair)
        first = np.cumsum(per_pair) - per_pair
        within = np.arange(len(pair_of)) - first[pair_of]
        features = members[starts[codes][pair_of] + within]
        stride = max(len(names), 1)
        keys, inverse = np.unique(
            offsets[pair_of] * stride + features, return_inverse=True
        )
        totals = np.bincount(inverse, weights=counts[pair_of], minlength=len(keys))
        feature_of = list(names)
        letter_offsets, letter_features = np.divmod(keys, stride)
        return Counter(
            {
                (offset, feature_of[feature]): int(total)
                for offset, feature, total in zip(
                    letter_offsets.tolist(),
                    letter_features.tolist(),
                    totals.tolist(),
                )
            }
        )

    # ------------------------------------------------------------------
    # Scan 2
    # ------------------------------------------------------------------

    def masks(self, vocab: LetterVocabulary) -> np.ndarray:
        """Every segment projected onto ``vocab``: an ``m x words`` array.

        Row ``i`` holds segment ``i``'s mask over ``vocab`` (bit ``j`` is
        ``vocab[j]``) as little-endian ``uint64`` words, word 0 lowest;
        letters outside the vocabulary are dropped, which is the hit
        projection when ``vocab`` is the sorted ``C_max`` letters.
        """
        period = self.matrix.shape[1]
        words = max(1, -(-len(vocab) // WORD_BITS))
        out = np.zeros((len(self), words), np.uint64)
        by_offset: dict[int, list[tuple[int, str]]] = {}
        for bit, (offset, feature) in enumerate(vocab.letters):
            if 0 <= offset < period:
                by_offset.setdefault(offset, []).append((bit, feature))
        if not by_offset or not len(self):
            return out
        wanted = frozenset(feature for _, feature in vocab.letters)
        holders: dict[str, list[int]] = {feature: [] for feature in wanted}
        for code, slot in enumerate(self.distinct):
            for feature in slot & wanted:
                holders[feature].append(code)
        codes_with = {
            feature: np.array(codes, dtype=np.intc)
            for feature, codes in holders.items()
        }
        for offset, letters in sorted(by_offset.items()):
            used, inverse = np.unique(
                self.matrix[:, offset], return_inverse=True
            )
            projected = project_pairs(used, letters, codes_with, words)
            out |= projected[inverse]
        return out


def project_pairs(
    codes: np.ndarray,
    letters: list[tuple[int, str]],
    codes_with: dict[str, np.ndarray],
    words: int,
) -> np.ndarray:
    """The masks of the used codes at one offset: ``len(codes) x words``.

    ``letters`` are the vocabulary's ``(bit, feature)`` pairs at that
    offset and ``codes_with[feature]`` the sorted codes whose distinct
    slot holds ``feature``.
    """
    projected = np.zeros((len(codes), words), np.uint64)
    for bit, feature in letters:
        rows = np.isin(codes, codes_with[feature], assume_unique=True)
        projected[rows, bit // WORD_BITS] |= np.uint64(1 << (bit % WORD_BITS))
    return projected


def mask_values(rows: np.ndarray) -> list[int]:
    """``m x words`` mask rows as Python ints (word 0 is the low word)."""
    data = np.ascontiguousarray(rows, dtype="<u8")
    width = data.shape[1] * 8
    raw = data.tobytes()
    return [
        int.from_bytes(raw[start : start + width], "little")
        for start in range(0, len(raw), width)
    ]
