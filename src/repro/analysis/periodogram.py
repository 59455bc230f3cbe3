"""Period discovery: rank candidate periods by partial-periodic evidence.

Section 3.2 motivates mining a *range* of periods because "certain patterns
may appear at some unexpected periods, such as every 11 years, or every 14
hours".  Before paying for full mining of every period, this module scores
each candidate period with a single slot-level scan (exactly the Step-1
counting of Algorithm 3.4) and ranks them.

The score of a period is the *excess confidence per offset* of its frequent
1-patterns: for a letter ``(offset, feature)`` with confidence ``c`` and
feature base rate ``r`` (fraction of all slots containing the feature), the
letter contributes ``max(0, c - r)`` when ``c >= min_conf``; the sum is then
divided by the period.  The normalization matters: a multiple ``k*p`` of a
true period ``p`` carries ``k`` copies of every ``p``-letter, so the raw sum
grows linearly with the harmonic index while the per-offset density stays
flat — dividing by the period puts the fundamental and its harmonics on the
same scale, and the tie then breaks toward the smaller period (see the
harmonic filter in :func:`suggest_periods`).  A feature present everywhere
contributes nothing at any period.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.counting import check_min_conf, min_count
from repro.core.errors import MiningError
from repro.core.multiperiod import period_range
from repro.timeseries.feature_series import FeatureSeries


@dataclass(frozen=True, slots=True)
class PeriodScore:
    """Periodic evidence for one candidate period."""

    period: int
    #: Number of frequent 1-patterns at this period.
    frequent_letters: int
    #: Highest 1-pattern confidence observed.
    best_confidence: float
    #: Excess confidence over feature base rates, per offset of the period
    #: (the ranking key; normalized so harmonics do not outscore the
    #: fundamental).
    score: float


def score_periods(
    series: FeatureSeries,
    periods: Iterable[int],
    min_conf: float = 0.5,
    min_repetitions: int = 2,
) -> list[PeriodScore]:
    """Score each candidate period in one slot-level scan.

    Periods that do not repeat at least ``min_repetitions`` times are
    skipped.  Results are sorted by descending score.
    """
    check_min_conf(min_conf)
    unique = sorted(set(periods))
    if not unique:
        raise MiningError("no periods to score")
    length = len(series)
    usable = [
        period
        for period in unique
        if 1 <= period <= length and length // period >= min_repetitions
    ]
    if not usable:
        raise MiningError(
            f"no period in {unique} repeats >= {min_repetitions} times "
            f"in a series of length {length}"
        )

    usable_limit = {period: (length // period) * period for period in usable}
    counters: dict[int, Counter] = {period: Counter() for period in usable}
    base_counts: Counter = Counter()
    for index, slot in enumerate(series.iter_slots()):
        if not slot:
            continue
        for feature in slot:
            base_counts[feature] += 1
        for period in usable:
            if index >= usable_limit[period]:
                continue
            offset = index % period
            counter = counters[period]
            for feature in slot:
                counter[(offset, feature)] += 1

    base_rate = {
        feature: count / length for feature, count in base_counts.items()
    }
    scores = []
    for period in usable:
        num_periods = length // period
        threshold = min_count(min_conf, num_periods)
        score = 0.0
        best = 0.0
        frequent = 0
        for (offset, feature), count in counters[period].items():
            conf = count / num_periods
            best = max(best, conf)
            if count >= threshold:
                frequent += 1
                score += max(0.0, conf - base_rate[feature])
        scores.append(
            PeriodScore(
                period=period,
                frequent_letters=frequent,
                best_confidence=best,
                score=score / period,
            )
        )
    scores.sort(key=lambda item: (-item.score, item.period))
    return scores


def suggest_periods(
    series: FeatureSeries,
    low: int,
    high: int,
    min_conf: float = 0.5,
    limit: int = 5,
    min_repetitions: int = 2,
    harmonic_tolerance: float = 0.8,
) -> list[PeriodScore]:
    """Rank periods in ``[low, high]``, collapsing harmonic echoes.

    A multiple ``k*p`` of a true period ``p`` scores comparably to ``p``
    (its patterns simply repeat ``k`` times inside the longer window).  The
    harmonic filter drops a period when an already-kept divisor scores at
    least ``harmonic_tolerance`` times as high, so the fundamental period
    surfaces first.
    """
    scores = score_periods(
        series,
        period_range(low, high),
        min_conf=min_conf,
        min_repetitions=min_repetitions,
    )
    by_period = {item.period: item for item in scores}
    kept: list[PeriodScore] = []
    for item in scores:
        if len(kept) >= limit:
            break
        if item.score <= 0.0:
            continue
        dominated = False
        for index, other in enumerate(kept):
            if (
                item.period % other.period == 0
                and other.score >= harmonic_tolerance * item.score
            ):
                dominated = True
                break
            if (
                other.period % item.period == 0
                and item.score >= harmonic_tolerance * other.score
            ):
                # A multiple slipped in first on a scoring tie; the
                # fundamental replaces it.
                kept[index] = item
                dominated = True
                break
        if not dominated:
            kept.append(item)
    if not kept:
        # Nothing beat its base rate; return the raw top scores instead of
        # hiding everything.
        kept = [item for item in scores[:limit]]
    return [by_period[item.period] for item in kept]
