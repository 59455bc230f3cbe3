"""Step 1 of every miner: frequent 1-patterns and the candidate max-pattern.

Both Algorithm 3.1 and Algorithm 3.2 begin with a single scan that counts
every 1-pattern (every individual ``(offset, feature)`` letter) over whole
period segments and keeps those reaching the confidence threshold — the set
``F1``.  Algorithm 3.2 then forms the *candidate max-pattern* ``C_max``: the
maximal pattern assembling all of ``F1``, possibly with several letters at
one position (rendered as ``a{b1,b2}*d*`` in the paper's Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counting import (
    frequent_letter_set,
    letter_counts_for_segments,
    min_count,
)
from repro.core.errors import MiningError
from repro.core.pattern import Letter, Pattern
from repro.timeseries.feature_series import FeatureSeries


@dataclass(slots=True)
class FrequentOnePatterns:
    """Outcome of the F1 scan for one period.

    Attributes
    ----------
    period:
        The period mined.
    num_periods:
        ``m``, the number of whole period segments scanned.
    threshold:
        The integer count threshold implied by ``min_conf`` and ``m``.
    letters:
        Mapping of each frequent letter to its frequency count.
    """

    period: int
    num_periods: int
    threshold: int
    letters: dict[Letter, int]

    @property
    def max_pattern(self) -> Pattern:
        """The candidate max-pattern ``C_max`` assembled from F1.

        Raises :class:`MiningError` when F1 is empty (no candidate exists
        and mining can stop immediately).
        """
        if not self.letters:
            raise MiningError(
                f"no frequent 1-patterns at period {self.period}; "
                "there is no candidate max-pattern"
            )
        return Pattern.from_letters(self.period, self.letters)

    @property
    def is_empty(self) -> bool:
        """True when no 1-pattern reached the threshold."""
        return not self.letters

    def one_pattern_counts(self) -> dict[Pattern, int]:
        """F1 as single-letter :class:`Pattern` objects with counts."""
        return {
            Pattern.from_letters(self.period, (letter,)): count
            for letter, count in self.letters.items()
        }


def find_frequent_one_patterns(
    series: FeatureSeries,
    period: int,
    min_conf: float,
) -> FrequentOnePatterns:
    """One scan over the series: count every letter, keep the frequent ones.

    This is Step 1 of Algorithm 3.1 (and of Algorithm 3.2, which shares it),
    counted over the series' slot-code matrix
    (:class:`~repro.kernels.slotcodes.SegmentCodes`).
    """
    return _frequent_ones(series, period, min_conf, walk=False)


def walk_frequent_one_patterns(
    series: FeatureSeries,
    period: int,
    min_conf: float,
) -> FrequentOnePatterns:
    """:func:`find_frequent_one_patterns` by a per-segment letter walk.

    The scan 1 of the letter-set oracle paths (``encode=False``, the
    legacy kernel): it shares no code with the slot-code scans, so the
    oracles stay independent of them.
    """
    return _frequent_ones(series, period, min_conf, walk=True)


def _frequent_ones(
    series: FeatureSeries, period: int, min_conf: float, walk: bool
) -> FrequentOnePatterns:
    num_periods = series.num_periods(period)
    if num_periods == 0:
        raise MiningError(
            f"series of length {len(series)} has no whole period of {period}"
        )
    threshold = min_count(min_conf, num_periods)
    if walk:
        letter_counts = letter_counts_for_segments(series.segments(period))
    else:
        from repro.kernels.slotcodes import SegmentCodes

        letter_counts = letter_counts_for_segments(
            SegmentCodes.of(series, period)
        )
    frequent = frequent_letter_set(letter_counts, threshold)
    return FrequentOnePatterns(
        period=period,
        num_periods=num_periods,
        threshold=threshold,
        letters=frequent,
    )
