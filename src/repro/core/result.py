"""Result containers shared by all mining algorithms."""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass, field

from repro.core.errors import MiningError
from repro.core.pattern import Pattern


@dataclass(slots=True)
class MiningStats:
    """Cost accounting for one mining run.

    Attributes
    ----------
    scans:
        Number of full passes over the series the algorithm performed.
    candidate_counts:
        Candidates examined per level (level = letter count), for Apriori
        and for tree derivation.
    tree_nodes:
        Nodes in the max-subpattern tree (0 for Apriori).
    hit_set_size:
        Distinct max-subpatterns hit, i.e. tree nodes with non-zero count
        (0 for Apriori).
    """

    scans: int = 0
    candidate_counts: dict[int, int] = field(default_factory=dict)
    tree_nodes: int = 0
    hit_set_size: int = 0

    @property
    def total_candidates(self) -> int:
        """Total candidates examined across all levels."""
        return sum(self.candidate_counts.values())


class MiningResult:
    """The frequent patterns of one period, with counts and run statistics.

    Behaves like a read-only mapping from :class:`Pattern` to frequency
    count, and offers confidence/maximality helpers.
    """

    __slots__ = (
        "algorithm",
        "period",
        "min_conf",
        "num_periods",
        "_counts",
        "stats",
    )

    def __init__(
        self,
        algorithm: str,
        period: int,
        min_conf: float,
        num_periods: int,
        counts: Mapping[Pattern, int],
        stats: MiningStats | None = None,
    ):
        self.algorithm = algorithm
        self.period = period
        self.min_conf = min_conf
        self.num_periods = num_periods
        self._counts = dict(counts)
        self.stats = stats if stats is not None else MiningStats()

    # -- mapping protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._counts)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self._counts

    def __getitem__(self, pattern: Pattern) -> int:
        return self._counts[pattern]

    def get(self, pattern: Pattern, default: int = 0) -> int:
        """Frequency count of a pattern (0 if not frequent)."""
        return self._counts.get(pattern, default)

    def items(self) -> ItemsView[Pattern, int]:
        """``(pattern, count)`` pairs of all frequent patterns."""
        return self._counts.items()

    # -- queries -----------------------------------------------------------

    @property
    def patterns(self) -> list[Pattern]:
        """All frequent patterns, sorted by descending count then text."""
        return sorted(self._counts, key=lambda p: (-self._counts[p], str(p)))

    def confidence(self, pattern: Pattern) -> float:
        """Confidence of a frequent pattern; raises if not frequent."""
        if pattern not in self._counts:
            raise MiningError(f"{pattern} is not in the frequent set")
        return self._counts[pattern] / self.num_periods

    def with_l_length(self, l_length: int) -> dict[Pattern, int]:
        """Frequent patterns with exactly the given L-length."""
        return {
            pattern: count
            for pattern, count in self._counts.items()
            if pattern.l_length == l_length
        }

    def with_letter_count(self, letters: int) -> dict[Pattern, int]:
        """Frequent patterns with exactly the given number of letters."""
        return {
            pattern: count
            for pattern, count in self._counts.items()
            if pattern.letter_count == letters
        }

    @property
    def max_letter_count(self) -> int:
        """Largest letter count among frequent patterns (0 when empty)."""
        if not self._counts:
            return 0
        return max(pattern.letter_count for pattern in self._counts)

    @property
    def max_l_length(self) -> int:
        """Largest L-length among frequent patterns — the paper's
        MAX-PAT-LENGTH of the mined output (0 when empty)."""
        if not self._counts:
            return 0
        return max(pattern.l_length for pattern in self._counts)

    def maximal_patterns(self) -> dict[Pattern, int]:
        """The maximal frequent patterns (no frequent proper superpattern).

        See Section 4 of the paper; every frequent pattern is a subpattern
        of some member of this set.
        """
        by_size = sorted(
            self._counts, key=lambda pattern: -pattern.letter_count
        )
        maximal: list[Pattern] = []
        result: dict[Pattern, int] = {}
        for pattern in by_size:
            if any(pattern.letters < other.letters for other in maximal):
                continue
            maximal.append(pattern)
            result[pattern] = self._counts[pattern]
        return result

    def to_rows(self) -> list[tuple[str, int, float]]:
        """Report rows ``(pattern, count, confidence)``, best first."""
        return [
            (str(pattern), self._counts[pattern], self.confidence(pattern))
            for pattern in self.patterns
        ]

    def summary(self) -> str:
        """One-line human summary of the run."""
        return (
            f"{self.algorithm}: period={self.period} min_conf={self.min_conf} "
            f"m={self.num_periods} frequent={len(self)} "
            f"max_letters={self.max_letter_count} scans={self.stats.scans}"
        )

    def __repr__(self) -> str:
        return f"MiningResult({self.summary()})"
