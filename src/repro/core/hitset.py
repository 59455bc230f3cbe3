"""Algorithm 3.2 — the max-subpattern hit-set method.

The paper's main contribution: mine all frequent partial periodic patterns
of one period in exactly **two scans** of the series.

Scan 1 finds the frequent 1-patterns ``F1`` and assembles the candidate
max-pattern ``C_max``.  Scan 2 registers, for every period segment, its hit
(the maximal subpattern of ``C_max`` true in the segment) in a
max-subpattern tree.  The frequency count of every pattern is then derived
from the tree alone (Algorithm 4.2) — no further passes over the data.

Both scans run on the series' slot-code matrix by default
(``kernel="batched"``, :mod:`repro.kernels.slotcodes`): scan 1 is one
``np.bincount`` over the used ``(offset, code)`` pairs, scan 2 projects
each used pair onto the tree vocabulary once into a contiguous
:class:`~repro.kernels.store.SegmentStore` (any vocabulary width) and
inserts once per distinct hit, and the derivation answers every
candidate level from one superset-sum pass.  ``kernel="columnar"`` goes
further: a *single* encode pass interns the series into the store
(optionally spilling to an mmap'd on-disk file via
:class:`~repro.kernels.store.StoreOptions`), and both scans then run as
vectorized numpy ops over the store column — letter counting as one
unpack-and-sum pass, hit collection as chunked ``np.unique`` projected
onto the tree vocabulary.  Vocabularies too wide to pack (> 64 letters)
fall back to the batched path, counted as ``columnar_fallback`` on the
profile.  A :class:`~repro.kernels.cache.CountCache` removes the scans
entirely on re-queries of the same series/period (the paper's §4.2
re-mining scenario): the cached scan-1 letter counts serve any
``min_conf``, and the cached scan-2 hit table serves any equal-or-higher
``min_conf`` by projection.  ``kernel="legacy"`` and ``encode=False``
keep the original per-segment scans as the escape hatch and equivalence
oracle.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from typing import TYPE_CHECKING, ContextManager

from repro.core.counting import (
    frequent_letter_set,
    letter_counts_for_segments,
    min_count,
)
from repro.core.errors import MiningError
from repro.core.maxpattern import (
    FrequentOnePatterns,
    find_frequent_one_patterns,
    walk_frequent_one_patterns,
)
from repro.core.pattern import Pattern
from repro.core.result import MiningResult, MiningStats
from repro.encoding.vocabulary import LetterVocabulary, remap_mask
from repro.tree.max_subpattern_tree import MaxSubpatternTree
from repro.timeseries.feature_series import FeatureSeries

if TYPE_CHECKING:
    from repro.kernels.cache import CountCache
    from repro.kernels.profile import MiningProfile
    from repro.kernels.store import SegmentStore, StoreOptions

#: The selectable counting kernels (mirrors :data:`repro.kernels.KERNELS`).
_KERNELS = ("columnar", "batched", "legacy")


def _check_kernel(kernel: str) -> None:
    if kernel not in _KERNELS:
        raise MiningError(
            f"unknown kernel {kernel!r}; use 'columnar', 'batched' or 'legacy'"
        )


def _stage(
    profile: "MiningProfile | None", name: str, items: int = 0
) -> ContextManager:
    """A profile stage context, or a no-op when profiling is off."""
    if profile is None:
        return nullcontext()
    return profile.stage(name, items=items)


def _project_hits(store: "SegmentStore", target: LetterVocabulary) -> Counter:
    """The store's distinct masks projected onto ``target``, >= 2-letter only.

    This is the scan-2 "hit" computation run over the already-encoded
    column: remapping onto the tree vocabulary drops infrequent letters
    (the project-onto-``C_max`` step) and the popcount filter keeps the
    masks that actually land in the tree.  Packed stores project every
    distinct mask at once with the vectorized
    :func:`~repro.kernels.columnar.remap_counts` sweep; the per-mask
    Python remap only remains for the wide-vocabulary fallback.
    """
    table = store.vocab.remap_table(target)
    distinct = store.distinct_counts()
    if store.column() is not None:
        from repro.kernels import columnar as _columnar

        return _columnar.remap_counts(distinct, table)
    hits: Counter = Counter()
    for mask, count in distinct.items():
        hit = remap_mask(mask, table)
        if hit.bit_count() >= 2:
            hits[hit] += count
    return hits


class _ColumnarScan:
    """Lazily-built state shared by both scans under ``kernel="columnar"``.

    The columnar tier pays for exactly one pass over the raw series: the
    first scan that needs the data interns it into a packed
    :class:`~repro.kernels.store.SegmentStore` (spilling to disk when
    :class:`~repro.kernels.store.StoreOptions` says so), and every later
    kernel runs over the stored column without touching the series again.
    :meth:`count_scan` books that single pass in ``stats.scans`` exactly
    once, whichever scan triggers the build.  A vocabulary too wide to
    pack (> 64 letters) makes :meth:`store` return ``None``, counts one
    ``columnar_fallback`` event on the profile, and the caller falls back
    to the batched path.
    """

    __slots__ = (
        "series",
        "period",
        "options",
        "profile",
        "counted",
        "_store",
        "_built",
    )

    def __init__(
        self,
        series: FeatureSeries,
        period: int,
        options: "StoreOptions | None",
        profile: "MiningProfile | None" = None,
    ) -> None:
        self.series = series
        self.period = period
        self.options = options
        self.profile = profile
        self.counted = False
        self._store: "SegmentStore | None" = None
        self._built = False

    def store(self) -> "SegmentStore | None":
        """The interned store, or ``None`` when the vocabulary is too wide."""
        if not self._built:
            self._built = True
            from repro.kernels.store import SegmentStore, WideVocabularyError

            try:
                self._store = SegmentStore.from_series_interned(
                    self.series, self.period, options=self.options
                )
            except WideVocabularyError:
                self._store = None
                if self.profile is not None:
                    self.profile.count("columnar_fallback")
        return self._store

    def count_scan(self, stats: MiningStats) -> None:
        """Book the single encode pass, exactly once across both scans."""
        if not self.counted:
            stats.scans += 1
            self.counted = True


def _scan1(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    legacy: bool,
    cstate: "_ColumnarScan | None",
    cache: "CountCache | None",
    cache_key: object,
    profile: "MiningProfile | None",
    stats: MiningStats,
) -> FrequentOnePatterns:
    """Scan 1, consulting the count cache for the full letter counts.

    Without a cache or columnar state this is
    :func:`find_frequent_one_patterns` verbatim (its per-segment walk
    :func:`walk_frequent_one_patterns` when ``legacy``).  With a cache, the
    *unfiltered* letter counts are fetched or computed and stored, so a
    future re-query at any ``min_conf`` rebuilds its own F1 from the
    cached counts without a scan.  With columnar state, the counts come
    from one vectorized pass over the interned store column — the same
    full counts, so they remain cache-compatible with the other kernels.
    """
    if cache is None and cstate is None:
        find = walk_frequent_one_patterns if legacy else find_frequent_one_patterns
        with _stage(profile, "scan1"):
            one_patterns = find(series, period, min_conf)
        stats.scans += 1
        if profile is not None:
            profile.add_items("scan1", one_patterns.num_periods)
        return one_patterns
    num_periods = series.num_periods(period)
    if num_periods == 0:
        raise MiningError(
            f"series of length {len(series)} has no whole period of {period}"
        )
    letter_counts = None
    if cache is not None:
        from repro.kernels.cache import CacheKey

        assert isinstance(cache_key, CacheKey)
        letter_counts = cache.get_letter_counts(cache_key)
        if letter_counts is not None and profile is not None:
            profile.count("cache_hits")
    if letter_counts is None:
        if cache is not None and profile is not None:
            profile.count("cache_misses")
        store = cstate.store() if cstate is not None else None
        with _stage(profile, "scan1", items=num_periods):
            if store is not None and cstate is not None:
                letter_counts = store.letter_counts()
                cstate.count_scan(stats)
            else:
                from repro.kernels.slotcodes import SegmentCodes

                letter_counts = letter_counts_for_segments(
                    SegmentCodes.of(series, period)
                )
                stats.scans += 1
        if cache is not None:
            cache.put_letter_counts(cache_key, letter_counts)
    threshold = min_count(min_conf, num_periods)
    return FrequentOnePatterns(
        period=period,
        num_periods=num_periods,
        threshold=threshold,
        letters=frequent_letter_set(letter_counts, threshold),
    )


def _scan2(
    series: FeatureSeries,
    one_patterns: FrequentOnePatterns,
    encode: bool,
    kernel: str,
    cstate: "_ColumnarScan | None",
    cache: "CountCache | None",
    cache_key: object,
    profile: "MiningProfile | None",
    stats: MiningStats,
) -> MaxSubpatternTree:
    """Scan 2: the populated max-subpattern tree, from cache when possible.

    The columnar kernel reuses (or builds) the interned store and collects
    hits as a vectorized distinct pass projected onto the tree vocabulary;
    the batched kernel encodes the series into a contiguous
    :class:`~repro.kernels.store.SegmentStore` and inserts once per
    distinct hit; the legacy kernel keeps the original per-segment
    insertion.  A cache hit rebuilds the tree from the memoized hit table
    — zero scans — and a miss stores the freshly built table.
    """
    tree = MaxSubpatternTree(one_patterns.max_pattern)
    letter_order = tree.vocab.letters
    if cache is not None:
        from repro.kernels.cache import CacheKey

        assert isinstance(cache_key, CacheKey)
        hit_table = cache.get_hit_table(cache_key, letter_order)
        if hit_table is not None:
            if profile is not None:
                profile.count("cache_hits")
            with _stage(profile, "tree", items=len(hit_table)):
                for mask, count in hit_table.items():
                    tree.insert_mask(mask, count=count)
            return tree
        if profile is not None:
            profile.count("cache_misses")
    store = cstate.store() if cstate is not None else None
    if store is not None and cstate is not None:
        with _stage(profile, "scan2", items=one_patterns.num_periods):
            hits = _project_hits(store, tree.vocab)
            cstate.count_scan(stats)
        with _stage(profile, "tree", items=len(hits)):
            for mask, count in hits.items():
                tree.insert_mask(mask, count=count)
        if profile is not None:
            profile.count("distinct_hits", len(hits))
    elif encode and kernel in ("batched", "columnar"):
        from repro.kernels.store import SegmentStore

        with _stage(profile, "scan2", items=one_patterns.num_periods):
            batched_store = SegmentStore.from_series(
                series, one_patterns.period, tree.vocab
            )
            hits = batched_store.hit_counter()
        stats.scans += 1
        with _stage(profile, "tree", items=len(hits)):
            for mask, count in hits.items():
                tree.insert_mask(mask, count=count)
        if profile is not None:
            profile.count("distinct_hits", len(hits))
    else:
        with _stage(profile, "scan2", items=one_patterns.num_periods):
            tree.insert_all_segments(series, encode=encode)
        stats.scans += 1
    if cache is not None:
        cache.put_hit_table(cache_key, letter_order, tree.stored_hits())
    return tree


def mine_single_period_hitset(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    max_letters: int | None = None,
    encode: bool = True,
    kernel: str = "batched",
    cache: "CountCache | None" = None,
    profile: "MiningProfile | None" = None,
    store: "StoreOptions | None" = None,
) -> MiningResult:
    """Find all frequent partial periodic patterns of one period (Alg. 3.2).

    Parameters
    ----------
    series:
        The feature series (or a scan-counting wrapper).
    period:
        The period to mine.
    min_conf:
        Confidence threshold in ``(0, 1]``.
    max_letters:
        Optional cap on derived pattern letter count.  The complete
        frequent set is exponential on degenerate inputs; cap it when only
        short patterns are needed.  ``None`` derives everything.
    encode:
        Default ``True`` runs both scans on the encoded hot path — one
        bitmask per segment, one tree insertion per *distinct* hit.
        ``False`` keeps the legacy per-segment letter walk in scan 1 and
        letter-set insertion in scan 2 (the CLI's ``--no-encode`` escape
        hatch for bisecting regressions).  Results are identical either
        way; still exactly two scans.
    kernel:
        ``"batched"`` (default) runs both scans on the slot-code matrix
        (scan 2 into the contiguous segment store) and the derivation on
        the single-pass superset-sum kernel;
        ``"columnar"`` interns the series into the store in one pass and
        runs both scans as vectorized numpy ops over the column (falling
        back to batched when the vocabulary exceeds 64 letters);
        ``"legacy"`` keeps the original per-candidate paths (escape hatch
        and equivalence oracle).  Results are identical.
    cache:
        Optional :class:`~repro.kernels.cache.CountCache`.  Cold queries
        populate it; re-queries of the same series and period answer from
        it without scanning (any ``min_conf`` for scan 1; equal-or-higher
        ``min_conf`` for scan 2, by projection).
    profile:
        Optional :class:`~repro.kernels.profile.MiningProfile` accumulating
        per-stage wall times and cache counters.
    store:
        Optional :class:`~repro.kernels.store.StoreOptions` controlling
        where the columnar kernel's segment store lives; with a
        ``directory`` set, stores crossing the spill threshold encode
        straight to an mmap'd on-disk file so the mine runs in bounded
        memory.  Only meaningful with ``kernel="columnar"`` (and
        ``encode=True``); raises otherwise.

    Returns
    -------
    MiningResult
        Identical frequent set and counts to Algorithm 3.1 (a tested
        invariant), obtained with at most two scans — fewer on cache hits.
    """
    if max_letters is not None and max_letters < 1:
        raise MiningError(f"max_letters must be >= 1, got {max_letters}")
    _check_kernel(kernel)
    cstate: _ColumnarScan | None = None
    if kernel == "columnar" and encode:
        cstate = _ColumnarScan(series, period, store, profile)
    elif store is not None:
        raise MiningError(
            "store options require kernel='columnar' with encode=True"
        )
    stats = MiningStats()
    cache_key = cache.key_for(series, period) if cache is not None else None
    legacy = kernel == "legacy" or not encode
    one_patterns = _scan1(
        series, period, min_conf, legacy, cstate, cache, cache_key, profile,
        stats,
    )
    if one_patterns.is_empty:
        return MiningResult(
            algorithm="hitset",
            period=period,
            min_conf=min_conf,
            num_periods=one_patterns.num_periods,
            counts={},
            stats=stats,
        )

    tree = _scan2(
        series,
        one_patterns,
        encode,
        kernel,
        cstate,
        cache,
        cache_key,
        profile,
        stats,
    )
    stats.tree_nodes = tree.node_count
    stats.hit_set_size = tree.hit_set_size

    with _stage(profile, "derive"):
        letter_counts, candidate_counts = tree.derive_frequent(
            one_patterns.threshold,
            one_patterns.letters,
            max_letters=max_letters,
            kernel=kernel,
        )
    stats.candidate_counts = candidate_counts
    if profile is not None:
        profile.add_items("derive", sum(candidate_counts.values()))
    patterns = {
        Pattern.from_letters(period, letters): count
        for letters, count in letter_counts.items()
    }
    return MiningResult(
        algorithm="hitset",
        period=period,
        min_conf=min_conf,
        num_periods=one_patterns.num_periods,
        counts=patterns,
        stats=stats,
    )


def build_hit_tree(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    encode: bool = True,
    kernel: str = "batched",
) -> tuple[MaxSubpatternTree, FrequentOnePatterns]:
    """Run only the two scans and return the populated tree plus F1.

    Useful when the caller wants to perform a custom derivation — e.g. the
    MaxMiner-style maximal-pattern search in :mod:`repro.core.maximal`.
    Returns ``(tree, one_patterns)``; raises via
    :func:`~repro.core.maxpattern.find_frequent_one_patterns` on an invalid
    period and :class:`~repro.core.errors.MiningError` when F1 is empty.
    ``encode`` and ``kernel`` select the scan-2 path exactly as in
    :func:`mine_single_period_hitset`.
    """
    _check_kernel(kernel)
    if kernel == "legacy" or not encode:
        one_patterns = walk_frequent_one_patterns(series, period, min_conf)
    else:
        one_patterns = find_frequent_one_patterns(series, period, min_conf)
    stats = MiningStats(scans=1)
    cstate: _ColumnarScan | None = None
    if kernel == "columnar" and encode:
        cstate = _ColumnarScan(series, period, None)
    tree = _scan2(
        series, one_patterns, encode, kernel, cstate, None, None, None, stats
    )
    return tree, one_patterns


def mine_store(
    store: "SegmentStore",
    min_conf: float,
    max_letters: int | None = None,
    kernel: str = "columnar",
    profile: "MiningProfile | None" = None,
) -> MiningResult:
    """Mine a prebuilt :class:`~repro.kernels.store.SegmentStore` directly.

    The out-of-core entry point: a store persisted with
    :meth:`~repro.kernels.store.SegmentStore.to_file` and reopened with
    :meth:`~repro.kernels.store.SegmentStore.from_file` is an mmap'd
    column, so this mines series far larger than RAM — both scans stream
    the column in bounded chunks and only the distinct-mask table and the
    tree live in memory.  Results are identical to running
    :func:`mine_single_period_hitset` over the series the store encodes
    (a tested invariant); the booked scan count is 1 because the encode
    pass already happened when the store was built.
    """
    _check_kernel(kernel)
    if max_letters is not None and max_letters < 1:
        raise MiningError(f"max_letters must be >= 1, got {max_letters}")
    stats = MiningStats()
    num_periods = len(store)
    if num_periods == 0:
        raise MiningError("segment store holds no segments; nothing to mine")
    with _stage(profile, "scan1", items=num_periods):
        letter_counts = store.letter_counts()
    stats.scans += 1
    threshold = min_count(min_conf, num_periods)
    one_patterns = FrequentOnePatterns(
        period=store.period,
        num_periods=num_periods,
        threshold=threshold,
        letters=frequent_letter_set(letter_counts, threshold),
    )
    if one_patterns.is_empty:
        return MiningResult(
            algorithm="hitset",
            period=store.period,
            min_conf=min_conf,
            num_periods=num_periods,
            counts={},
            stats=stats,
        )
    tree = MaxSubpatternTree(one_patterns.max_pattern)
    with _stage(profile, "scan2", items=num_periods):
        hits = _project_hits(store, tree.vocab)
    with _stage(profile, "tree", items=len(hits)):
        for mask, count in hits.items():
            tree.insert_mask(mask, count=count)
    if profile is not None:
        profile.count("distinct_hits", len(hits))
    stats.tree_nodes = tree.node_count
    stats.hit_set_size = tree.hit_set_size
    with _stage(profile, "derive"):
        derived_counts, candidate_counts = tree.derive_frequent(
            one_patterns.threshold,
            one_patterns.letters,
            max_letters=max_letters,
            kernel=kernel,
        )
    stats.candidate_counts = candidate_counts
    if profile is not None:
        profile.add_items("derive", sum(candidate_counts.values()))
    patterns = {
        Pattern.from_letters(store.period, letters): count
        for letters, count in derived_counts.items()
    }
    return MiningResult(
        algorithm="hitset",
        period=store.period,
        min_conf=min_conf,
        num_periods=num_periods,
        counts=patterns,
        stats=stats,
    )
