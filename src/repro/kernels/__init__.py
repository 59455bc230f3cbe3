"""Batched and columnar counting kernels plus the cross-query count cache.

The performance layer under every miner:

* :mod:`~repro.kernels.batched` — single-pass candidate counting: the
  dense superset-sum table and the sparse projection kernel that replace
  the legacy per-candidate walks of Algorithm 4.2;
* :mod:`~repro.kernels.slotcodes` — the default path's two scans over
  a series' slot-code matrix (distinct slots plus one int32 code per
  slot): scan 1 as one ``np.bincount`` over used ``(offset, code)``
  pairs, scan 2 as each used pair projected once onto the tree
  vocabulary, at any vocabulary width;
* :mod:`~repro.kernels.columnar` — the vectorized scan tier
  (``kernel="columnar"``): the store buffer viewed as a numpy ``uint64``
  column, scan 1 as one unpack-and-sum pass, scan 2 as chunked
  ``np.unique``, verification as a broadcast AND/compare reduction, and
  per-letter occurrence bitmap indexes for sparse alphabets;
* :mod:`~repro.kernels.store` — :class:`SegmentStore`, the contiguous
  ``array``-backed buffer of encoded segments shared by scan 1, scan 2 and
  verification — persistable to disk (:meth:`SegmentStore.to_file` /
  :meth:`SegmentStore.from_file`) and spillable during the encode pass
  (:class:`StoreOptions`), so out-of-core series mine over ``np.memmap``;
* :mod:`~repro.kernels.cache` — :class:`CountCache`, memoized scan results
  keyed by (series fingerprint, period, letter-order hash) so re-mining at
  a different ``min_conf`` never rescans the data;
* :mod:`~repro.kernels.profile` — :class:`MiningProfile`, the per-stage
  wall-time/cache-counter ledger behind ``ppm mine --profile``.

Every kernel is an exact drop-in: the legacy paths remain selectable
(``kernel="legacy"`` / ``--kernel legacy``) as the equivalence oracle, the
randomized sweeps in ``tests/test_kernels.py`` / ``tests/test_columnar.py``
hold columnar == batched == legacy == brute force, and the differential
fuzzer (:mod:`repro.devtools.fuzz`, ``ppm fuzz``) hammers the same
invariant across randomized corners.  See ``docs/kernels.md``.
"""

from repro.kernels.batched import (
    MAX_TABLE_BITS,
    SubmaskCountTable,
    batched_count_masks,
    derive_frequent_masks,
    project_hit_counts,
)
from repro.kernels.cache import CacheKey, CacheStats, CountCache, letters_hash
from repro.kernels.columnar import LetterBitmapIndex
from repro.kernels.profile import MiningProfile, StageTiming
from repro.kernels.store import (
    SegmentStore,
    StoreOptions,
    WideVocabularyError,
)

#: The selectable counting kernels; "batched" is the default everywhere.
#: "columnar" runs both scans as vectorized array ops over the store
#: column (falling back to the batched paths when the vocabulary is too
#: wide to pack); "legacy" keeps the per-candidate walks as the oracle.
KERNELS = ("columnar", "batched", "legacy")

__all__ = [
    "KERNELS",
    "MAX_TABLE_BITS",
    "CacheKey",
    "CacheStats",
    "CountCache",
    "LetterBitmapIndex",
    "MiningProfile",
    "SegmentStore",
    "StageTiming",
    "StoreOptions",
    "SubmaskCountTable",
    "WideVocabularyError",
    "batched_count_masks",
    "derive_frequent_masks",
    "letters_hash",
    "project_hit_counts",
]
