"""Algorithm 3.1 — single-period Apriori mining of partial periodic patterns.

Level-wise search over pattern letter sets: level k holds the frequent
patterns with exactly k letters.  Each level requires one scan over the
series to count the candidates produced by apriori-gen from the previous
level, so the total number of scans is ``1 + (levels beyond F1)`` — bounded
by the length of the longest frequent pattern, and in the worst case by the
period, exactly as analysed in the paper.
"""

from __future__ import annotations

from repro.core.candidates import generate_candidate_masks, generate_candidates
from repro.core.counting import count_candidate_masks, count_candidates
from repro.core.errors import MiningError
from repro.core.maxpattern import (
    FrequentOnePatterns,
    find_frequent_one_patterns,
    walk_frequent_one_patterns,
)
from repro.core.pattern import Letter, Pattern
from repro.core.result import MiningResult, MiningStats
from repro.encoding.codec import SegmentEncoder
from repro.encoding.vocabulary import LetterVocabulary
from repro.timeseries.feature_series import FeatureSeries


def mine_single_period_apriori(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    max_letters: int | None = None,
    encode: bool = True,
) -> MiningResult:
    """Find all frequent partial periodic patterns of one period (Alg. 3.1).

    Parameters
    ----------
    series:
        The feature series (or a scan-counting wrapper).
    period:
        The period to mine.
    min_conf:
        Confidence threshold in ``(0, 1]``.
    max_letters:
        Optional cap on pattern letter count; mining stops after that level.
        ``None`` mines until the candidate set is exhausted.
    encode:
        Default ``True`` runs the level loop on interned letter bitmasks
        over the F1 vocabulary (candidate generation and counting both);
        ``False`` keeps the legacy ``frozenset[Letter]`` levels, with a
        per-segment scan 1, for bisection and as an oracle.  Results and scan counts are identical either way —
        each level is still exactly one scan.

    Returns
    -------
    MiningResult
        Every frequent pattern with its frequency count, plus scan and
        candidate statistics.
    """
    if max_letters is not None and max_letters < 1:
        raise MiningError(f"max_letters must be >= 1, got {max_letters}")
    stats = MiningStats()
    if encode:
        one_patterns = find_frequent_one_patterns(series, period, min_conf)
    else:
        one_patterns = walk_frequent_one_patterns(series, period, min_conf)
    stats.scans = 1
    stats.candidate_counts[1] = len(one_patterns.letters)

    if encode:
        patterns = _mine_levels_encoded(series, period, one_patterns, stats, max_letters)
    else:
        patterns = _mine_levels_legacy(series, period, one_patterns, stats, max_letters)
    return MiningResult(
        algorithm="apriori",
        period=period,
        min_conf=min_conf,
        num_periods=one_patterns.num_periods,
        counts=patterns,
        stats=stats,
    )


def _mine_levels_encoded(
    series: FeatureSeries,
    period: int,
    one_patterns: FrequentOnePatterns,
    stats: MiningStats,
    max_letters: int | None,
) -> dict[Pattern, int]:
    """The level loop on bitmasks over the sorted F1 vocabulary."""
    vocab = LetterVocabulary.from_letters(one_patterns.letters, period=period)
    encoder = SegmentEncoder(vocab)
    mask_counts: dict[int, int] = {
        vocab.bit_of(letter): count
        for letter, count in one_patterns.letters.items()
    }
    frequent_level = set(mask_counts)
    level = 1
    while frequent_level:
        if max_letters is not None and level >= max_letters:
            break
        candidates = generate_candidate_masks(frequent_level)
        if not candidates:
            break
        level += 1
        stats.candidate_counts[level] = len(candidates)
        stats.scans += 1
        level_counts = count_candidate_masks(series, period, candidates, encoder)
        frequent_level = set()
        for candidate in candidates:
            count = level_counts[candidate]
            if count >= one_patterns.threshold:
                mask_counts[candidate] = count
                frequent_level.add(candidate)
    return {
        Pattern.from_mask(vocab, mask): count
        for mask, count in mask_counts.items()
    }


def _mine_levels_legacy(
    series: FeatureSeries,
    period: int,
    one_patterns: FrequentOnePatterns,
    stats: MiningStats,
    max_letters: int | None,
) -> dict[Pattern, int]:
    """The pre-encoding level loop on letter frozensets (bisection path)."""
    counts: dict[frozenset[Letter], int] = {
        frozenset((letter,)): count
        for letter, count in one_patterns.letters.items()
    }
    frequent_level = set(counts)
    level = 1
    while frequent_level:
        if max_letters is not None and level >= max_letters:
            break
        candidates = generate_candidates(frequent_level)
        if not candidates:
            break
        level += 1
        stats.candidate_counts[level] = len(candidates)
        stats.scans += 1
        level_counts = count_candidates(series, period, candidates)
        frequent_level = set()
        for candidate in candidates:
            count = level_counts[candidate]
            if count >= one_patterns.threshold:
                counts[candidate] = count
                frequent_level.add(candidate)
    return {
        Pattern.from_letters(period, letters): count
        for letters, count in counts.items()
    }


def apriori_candidate_schedule(f1_letters: set[Letter]) -> dict[int, int]:
    """Worst-case candidates per level given only the F1 letters.

    The paper's space analysis: level k has at most ``C(|F1|, k)``
    candidates (letters at the same offset may combine too — a letter set is
    any subset of F1).  Useful for pre-sizing buffers and in the bounds
    benchmarks.
    """
    from math import comb

    size = len(f1_letters)
    return {level: comb(size, level) for level in range(1, size + 1)}


#: Backwards-compatible convenience alias mirroring the paper's name.
single_period_apriori = mine_single_period_apriori
