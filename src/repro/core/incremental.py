"""Incremental mining over a growing time-series database.

The paper mines a static series, but its own two-scan structure points at
an online variant: everything Algorithm 3.2 needs from the data is (a) the
per-letter counts of scan 1 and (b) the per-segment hits of scan 2 — and
both are additive over segments.  :class:`SegmentPartial` maintains

* the letter counter, and
* a counter of *segment signatures* (the multiset of distinct segment
  contents) — each signature an int bitmask over a streaming
  :class:`~repro.encoding.vocabulary.LetterVocabulary` that interns
  letters in arrival order,

as whole segments stream in.  Mining then remaps the signature masks onto
the tree's sorted ``C_max`` vocabulary and replays them — **no scan of the
accumulated series, ever**, and any confidence threshold can be queried
after the fact because the signatures are kept unrestricted (not projected
onto one ``C_max``).

A partial is *segment-granular* in both directions: :meth:`~SegmentPartial.
absorb` adds one whole segment and returns its signature mask, and
:meth:`~SegmentPartial.retire` subtracts a previously absorbed segment by
that mask — counts are a multiset, so addition and exact subtraction
commute.  That pair of operations is what the windowed streaming engine
(:mod:`repro.streaming`) composes: sliding windows absorb at the tail and
retire at the head, and every window mines exactly as if the window's
slice had been batch-mined.

:class:`IncrementalHitSetMiner` is the slot-level front door: it buffers
slots into whole segments (the trailing partial segment stays pending,
never silently mined) and delegates everything else to one partial.

Memory: one counter entry per *distinct* segment signature.  By the same
argument as Property 3.2 this is at most ``min(m, 2^|alphabet letters|)``;
on periodic data distinct segments are few, which is exactly when mining
is worthwhile (the paper's remark after Property 3.2).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.core.counting import check_min_conf, min_count
from repro.core.errors import MiningError
from repro.core.pattern import Letter, Pattern
from repro.core.result import MiningResult, MiningStats
from repro.encoding.codec import iter_segment_letters
from repro.encoding.vocabulary import LetterVocabulary, remap_mask
from repro.timeseries.feature_series import (
    FeatureSeries,
    SlotLike,
    _normalize_slot,
)
from repro.tree.max_subpattern_tree import MaxSubpatternTree


class SegmentPartial:
    """A mergeable, retirable summary of a multiset of whole segments.

    Parameters
    ----------
    period:
        The fixed period every absorbed segment must have.
    vocab:
        Optional shared streaming vocabulary.  Partials handed the *same*
        vocabulary object speak the same bit language, so merging them is
        plain counter addition (no mask remapping) — the representation
        the streaming engine's ring strategy relies on.  Omitted, the
        partial owns a private vocabulary interning letters in arrival
        order.

    The maintained state is threshold-independent: :meth:`mine` accepts
    any ``min_conf`` after the fact and produces exactly the result of
    batch-mining the absorbed segment multiset.
    """

    __slots__ = ("_period", "_vocab", "_letter_counts", "_signatures", "_num_periods")

    def __init__(self, period: int, vocab: LetterVocabulary | None = None):
        if period < 1:
            raise MiningError(f"period must be >= 1, got {period}")
        if vocab is None:
            vocab = LetterVocabulary(period=period)
        elif vocab.period != period:
            raise MiningError(
                f"shared vocabulary has period {vocab.period}, "
                f"partial wants {period}"
            )
        self._period = period
        #: Streaming vocabulary: letters interned in arrival order.  Masks
        #: never invalidate as it grows (bits keep their meaning).
        self._vocab = vocab
        self._letter_counts: Counter[Letter] = Counter()
        #: Signature mask (over ``_vocab``) -> number of segments with
        #: exactly that letter set.
        self._signatures: Counter[int] = Counter()
        self._num_periods = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def period(self) -> int:
        """The fixed period."""
        return self._period

    @property
    def vocab(self) -> LetterVocabulary:
        """The streaming vocabulary the signature masks are encoded over."""
        return self._vocab

    @property
    def num_periods(self) -> int:
        """Whole segments currently summarized (the current ``m``)."""
        return self._num_periods

    @property
    def distinct_signatures(self) -> int:
        """Distinct segment letter-sets stored — the memory driver."""
        return len(self._signatures)

    def letter_count(self, letter: Letter) -> int:
        """Occurrences of one letter across the summarized segments."""
        return self._letter_counts[letter]

    def signature_items(self) -> Iterable[tuple[int, int]]:
        """The ``(signature mask, segment count)`` rows (read-only view)."""
        return self._signatures.items()

    # ------------------------------------------------------------------
    # Absorb / retire / merge — the three composition operations
    # ------------------------------------------------------------------

    def absorb(self, segment: Sequence[frozenset[str]]) -> int:
        """Add one whole segment; returns its signature mask.

        The returned mask is the segment's complete contribution: a later
        :meth:`retire` with it removes the segment exactly.  Letters never
        repeat within a segment (each slot is a set), so one counter bump
        and one interned bit per letter suffice.
        """
        if len(segment) != self._period:
            raise MiningError(
                f"segment of {len(segment)} slots does not match "
                f"period {self._period}"
            )
        mask = 0
        intern = self._vocab.intern
        letter_counts = self._letter_counts
        for letter in iter_segment_letters(segment):
            letter_counts[letter] += 1
            mask |= 1 << intern(letter)
        if mask:
            self._signatures[mask] += 1
        self._num_periods += 1
        return mask

    def retire(self, mask: int) -> None:
        """Subtract one previously absorbed segment by its signature mask.

        Exact inverse of :meth:`absorb`: letter counts decrement (entries
        vanish at zero), the signature multiset loses one occurrence, and
        ``num_periods`` drops by one.  Retiring a mask that is not
        currently stored raises — retirement can never silently drift.
        """
        if self._num_periods < 1:
            raise MiningError("no segment left to retire")
        if mask:
            stored = self._signatures.get(mask, 0)
            if stored < 1:
                raise MiningError(
                    f"signature {mask:#x} is not in the partial; "
                    "a segment can only be retired once"
                )
            if stored == 1:
                del self._signatures[mask]
            else:
                self._signatures[mask] = stored - 1
            letter_counts = self._letter_counts
            for letter in self._vocab.iter_mask(mask):
                remaining = letter_counts[letter] - 1
                if remaining:
                    letter_counts[letter] = remaining
                else:
                    del letter_counts[letter]
        self._num_periods -= 1

    def merge(self, other: "SegmentPartial") -> None:
        """Fold another partial's whole segments into this one.

        Segment counting is additive, so shards of a partitioned series
        can be absorbed in parallel and merged.  Partials sharing one
        vocabulary object merge by plain counter addition; otherwise the
        other vocabulary is interned into ours and its masks rewritten.
        """
        if other is self:
            raise MiningError("cannot merge a partial into itself")
        if other._period != self._period:
            raise MiningError(
                f"cannot merge period {other._period} into {self._period}"
            )
        self._letter_counts.update(other._letter_counts)
        if other._vocab is self._vocab:
            self._signatures.update(other._signatures)
        else:
            # The two partials interned letters in different arrival
            # orders; intern the other vocabulary into ours and rewrite
            # its masks.
            table = tuple(
                self._vocab.intern(letter) for letter in other._vocab
            )
            for signature, count in other._signatures.items():
                self._signatures[remap_mask(signature, table)] += count
        self._num_periods += other._num_periods

    def copy(self) -> "SegmentPartial":
        """An independent snapshot (the vocabulary stays shared)."""
        duplicate = SegmentPartial(self._period, vocab=self._vocab)
        duplicate._letter_counts = Counter(self._letter_counts)
        duplicate._signatures = Counter(self._signatures)
        duplicate._num_periods = self._num_periods
        return duplicate

    # ------------------------------------------------------------------
    # Durable state (checkpoint/restore)
    # ------------------------------------------------------------------

    def to_state(self, include_vocab: bool = True) -> dict[str, object]:
        """The JSON-ready durable form of this partial.

        ``include_vocab=False`` omits the interned letter list for
        partials that share one vocabulary (the ring strategy serializes
        the shared vocabulary once and passes it to :meth:`from_state`).
        Signature masks are stored as-is: they are meaningful only
        against the vocabulary's letter order, which is why the letters
        ride along in id order.
        """
        state: dict[str, object] = {
            "period": self._period,
            "letter_counts": [
                [offset, feature, count]
                for (offset, feature), count in sorted(
                    self._letter_counts.items()
                )
            ],
            "signatures": sorted(
                [mask, count] for mask, count in self._signatures.items()
            ),
            "num_periods": self._num_periods,
        }
        if include_vocab:
            state["letters"] = [
                [offset, feature] for offset, feature in self._vocab
            ]
        return state

    @classmethod
    def from_state(
        cls,
        state: Mapping[str, object],
        vocab: LetterVocabulary | None = None,
    ) -> "SegmentPartial":
        """Rebuild a partial from :meth:`to_state` output.

        ``vocab`` supplies the shared vocabulary when the state was
        written with ``include_vocab=False``; otherwise the letter list
        in the state is re-interned in its recorded (id) order, so every
        stored mask keeps its meaning bit for bit.
        """
        data: Mapping[str, Any] = state
        try:
            period = int(data["period"])
            if vocab is None:
                vocab = LetterVocabulary(
                    (
                        (int(offset), str(feature))
                        for offset, feature in data["letters"]
                    ),
                    period=period,
                )
            partial = cls(period, vocab=vocab)
            partial._letter_counts = Counter(
                {
                    (int(offset), str(feature)): int(count)
                    for offset, feature, count in data["letter_counts"]
                }
            )
            partial._signatures = Counter(
                {
                    int(mask): int(count)
                    for mask, count in data["signatures"]
                }
            )
            partial._num_periods = int(data["num_periods"])
        except (KeyError, TypeError, ValueError) as error:
            raise MiningError(
                f"malformed segment-partial state: {error}"
            ) from error
        return partial

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------

    def frequent_one(
        self, min_conf: float
    ) -> tuple[dict[Letter, int], int]:
        """Scan 1 from the counters: ``(F1 counts, count threshold)``."""
        check_min_conf(min_conf)
        if self._num_periods == 0:
            raise MiningError("no whole segment absorbed yet")
        threshold = min_count(min_conf, self._num_periods)
        f1 = {
            letter: count
            for letter, count in self._letter_counts.items()
            if count >= threshold
        }
        return f1, threshold

    def build_tree(self, f1: Mapping[Letter, int]) -> MaxSubpatternTree:
        """Scan 2 from the counters: the populated max-subpattern tree.

        Projects each signature onto ``C_max`` by remapping its bits from
        the arrival-order vocabulary to the tree's sorted vocabulary;
        letters outside F1 simply drop out of the mask.
        """
        tree = MaxSubpatternTree(
            Pattern.from_letters(self._period, frozenset(f1))
        )
        table = self._vocab.remap_table(tree.vocab)
        for signature, count in self._signatures.items():
            hit = remap_mask(signature, table)
            if hit & (hit - 1):
                tree.insert_mask(hit, count=count)
        return tree

    def mine(
        self,
        min_conf: float,
        max_letters: int | None = None,
        algorithm: str = "incremental-hitset",
        tree: MaxSubpatternTree | None = None,
        kernel: str = "batched",
    ) -> MiningResult:
        """All frequent patterns of the summarized whole segments.

        Identical to running Algorithm 3.2 over the equivalent series
        (a tested invariant), but touches only the maintained counters.
        ``tree`` optionally supplies an externally maintained
        max-subpattern tree whose hit counts already equal this partial's
        (the streaming decrement strategy keeps one alive across windows
        and hands it in instead of rebuilding); its ``C_max`` letters must
        be exactly the current F1 letters.  ``kernel`` selects the
        derivation kernel exactly as in
        :meth:`MaxSubpatternTree.derive_frequent` (``"columnar"`` and
        ``"batched"`` share the superset-sum pass; the window counters
        themselves are scan-free either way).
        """
        if max_letters is not None and max_letters < 1:
            raise MiningError(f"max_letters must be >= 1, got {max_letters}")
        f1, threshold = self.frequent_one(min_conf)
        stats = MiningStats()
        if not f1:
            return MiningResult(
                algorithm=algorithm,
                period=self._period,
                min_conf=min_conf,
                num_periods=self._num_periods,
                counts={},
                stats=stats,
            )
        if tree is None:
            tree = self.build_tree(f1)
        stats.tree_nodes = tree.node_count
        stats.hit_set_size = tree.hit_set_size
        letter_counts, candidate_counts = tree.derive_frequent(
            threshold, f1, max_letters=max_letters, kernel=kernel
        )
        stats.candidate_counts = candidate_counts
        return MiningResult(
            algorithm=algorithm,
            period=self._period,
            min_conf=min_conf,
            num_periods=self._num_periods,
            counts={
                Pattern.from_letters(self._period, letters): count
                for letters, count in letter_counts.items()
            },
            stats=stats,
        )

    def __repr__(self) -> str:
        return (
            f"SegmentPartial(period={self._period}, "
            f"m={self._num_periods}, signatures={self.distinct_signatures})"
        )


class IncrementalHitSetMiner:
    """Streaming counterpart of Algorithm 3.2 for one fixed period.

    A slot-level facade over one :class:`SegmentPartial`: slots buffer
    into whole segments, the trailing partial segment stays pending (never
    mined, never dropped), and mining/merging delegate to the partial.

    Parameters
    ----------
    period:
        The period mined; fixed for the lifetime of the miner.
    min_conf:
        Default confidence threshold for :meth:`mine` (overridable per
        call — the maintained state is threshold-independent).

    Examples
    --------
    >>> miner = IncrementalHitSetMiner(3, min_conf=0.9)
    >>> miner.extend("abd")
    >>> miner.extend("abcabd")
    >>> sorted(str(p) for p in miner.mine())
    ['*b*', 'a**', 'ab*']
    """

    __slots__ = ("_min_conf", "_partial", "_pending")

    def __init__(self, period: int, min_conf: float = 0.5):
        check_min_conf(min_conf)
        self._min_conf = min_conf
        self._partial = SegmentPartial(period)
        #: Slots of the currently-incomplete trailing segment.
        self._pending: list[frozenset[str]] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def period(self) -> int:
        """The fixed period."""
        return self._partial.period

    @property
    def num_periods(self) -> int:
        """Whole segments absorbed so far (the current ``m``)."""
        return self._partial.num_periods

    @property
    def pending_slots(self) -> int:
        """Slots buffered toward the next whole segment (0..period-1)."""
        return len(self._pending)

    @property
    def distinct_signatures(self) -> int:
        """Distinct segment letter-sets stored — the memory driver."""
        return self._partial.distinct_signatures

    @property
    def partial(self) -> SegmentPartial:
        """The underlying whole-segment summary (pending slots excluded)."""
        return self._partial

    def append(self, slot: SlotLike) -> None:
        """Absorb one slot; a segment completes every ``period`` appends."""
        self._pending.append(_normalize_slot(slot))
        if len(self._pending) == self._partial.period:
            self._partial.absorb(self._pending)
            self._pending.clear()

    def extend(self, slots: Iterable | str | FeatureSeries) -> None:
        """Absorb many slots (a string of symbols, a series, any iterable)."""
        if isinstance(slots, str):
            slots = FeatureSeries.from_symbols(slots)
        for slot in slots:
            self.append(slot)

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------

    def mine(
        self,
        min_conf: float | None = None,
        max_letters: int | None = None,
        kernel: str = "batched",
    ) -> MiningResult:
        """All frequent patterns of the absorbed whole segments.

        Identical to running Algorithm 3.2 over the accumulated series
        (trailing partial segment excluded), but touches only the
        maintained counters — a tested invariant.  ``kernel`` selects the
        derivation kernel (see :meth:`SegmentPartial.mine`).
        """
        min_conf = self._min_conf if min_conf is None else min_conf
        return self._partial.mine(
            min_conf, max_letters=max_letters, kernel=kernel
        )

    def merge(self, other: "IncrementalHitSetMiner") -> None:
        """Fold another miner's whole segments into this one (same period).

        Segment counting is additive, so shards of a partitioned series
        can be absorbed in parallel and merged.  ``other`` must sit at a
        segment boundary: its pending trailing slots have no position in
        this miner's stream, so transferring them could only drop or
        double-count a segment — the merge refuses loudly instead.  This
        miner's *own* pending slots are untouched: the partial trailing
        segment keeps filling after the merge and is absorbed exactly once
        when it completes (pinned by regression tests).
        """
        if other is self:
            raise MiningError("cannot merge a miner into itself")
        if other._pending:
            raise MiningError(
                "merge requires the other miner at a segment boundary "
                f"({len(other._pending)} pending slots would be dropped)"
            )
        self._partial.merge(other._partial)

    def __repr__(self) -> str:
        return (
            f"IncrementalHitSetMiner(period={self.period}, "
            f"m={self.num_periods}, signatures={self.distinct_signatures}, "
            f"pending={self.pending_slots})"
        )
