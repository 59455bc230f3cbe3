"""High-level facade over the mining algorithms.

:class:`PartialPeriodicMiner` bundles a series with a confidence threshold
and exposes the paper's four algorithms (plus the maximal-pattern hybrid)
behind one object, so applications do not have to import each algorithm
module.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import check_min_conf
from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset
from repro.core.maximal import mine_maximal_hitset
from repro.core.multiperiod import (
    MultiPeriodResult,
    mine_period_range,
    mine_periods_looping,
    mine_periods_shared,
)
from repro.core.result import MiningResult
from repro.timeseries.feature_series import FeatureSeries, as_feature_series

if TYPE_CHECKING:
    from repro.analysis.periodogram import PeriodScore
    from repro.core.constraints import MiningConstraints
    from repro.kernels.cache import CountCache
    from repro.kernels.profile import MiningProfile
    from repro.kernels.store import StoreOptions

#: The single-period algorithms selectable by name.
ALGORITHMS = ("hitset", "apriori")


class PartialPeriodicMiner:
    """One-stop mining interface for a feature series.

    Parameters
    ----------
    series:
        A :class:`FeatureSeries`, a symbol string, or any iterable of slots.
    min_conf:
        Confidence threshold in ``(0, 1]`` used by every call unless
        overridden.
    algorithm:
        Default single-period algorithm, ``"hitset"`` (two scans — the
        paper's winner) or ``"apriori"``.

    Examples
    --------
    >>> miner = PartialPeriodicMiner("abdabcabdabc", min_conf=0.9)
    >>> sorted(str(p) for p in miner.mine(3))
    ['*b*', 'a**', 'ab*']
    """

    __slots__ = ("series", "min_conf", "algorithm")

    def __init__(
        self,
        series: FeatureSeries | str | Iterable,
        min_conf: float = 0.5,
        algorithm: str = "hitset",
    ):
        check_min_conf(min_conf)
        if algorithm not in ALGORITHMS:
            raise MiningError(
                f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
            )
        self.series = as_feature_series(series)
        self.min_conf = min_conf
        self.algorithm = algorithm

    # ------------------------------------------------------------------

    def mine(
        self,
        period: int,
        min_conf: float | None = None,
        algorithm: str | None = None,
        encode: bool = True,
        kernel: str = "batched",
        cache: CountCache | None = None,
        profile: MiningProfile | None = None,
        store: StoreOptions | None = None,
    ) -> MiningResult:
        """All frequent patterns of one period.

        ``encode=False`` routes every path through the legacy letter-set
        kernels (the CLI's ``--no-encode`` escape hatch), and
        ``kernel="legacy"`` the per-candidate counting paths
        (``--kernel legacy``); ``kernel="columnar"`` runs both scans as
        vectorized ops over the segment-store column, and ``store`` (a
        :class:`repro.kernels.StoreOptions`, columnar only) spills that
        column to an mmap'd on-disk file past its threshold so the mine
        runs in bounded memory (``--store-dir``).  ``cache`` memoizes
        scan results across queries and ``profile`` collects per-stage
        timings — both hit-set only; the Apriori path ignores them.
        """
        min_conf = self.min_conf if min_conf is None else min_conf
        algorithm = self.algorithm if algorithm is None else algorithm
        if algorithm == "hitset":
            return mine_single_period_hitset(
                self.series,
                period,
                min_conf,
                encode=encode,
                kernel=kernel,
                cache=cache,
                profile=profile,
                store=store,
            )
        if algorithm == "apriori":
            return mine_single_period_apriori(
                self.series, period, min_conf, encode=encode
            )
        raise MiningError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
        )

    def mine_maximal(
        self, period: int, min_conf: float | None = None, encode: bool = True
    ) -> MiningResult:
        """Only the maximal frequent patterns of one period (two scans)."""
        min_conf = self.min_conf if min_conf is None else min_conf
        return mine_maximal_hitset(self.series, period, min_conf, encode=encode)

    def mine_constrained(
        self,
        period: int,
        constraints: MiningConstraints,
        min_conf: float | None = None,
    ) -> MiningResult:
        """Constraint-based mining with push-down (two scans).

        ``constraints`` is a
        :class:`repro.core.constraints.MiningConstraints`.
        """
        from repro.core.constraints import mine_with_constraints

        min_conf = self.min_conf if min_conf is None else min_conf
        return mine_with_constraints(self.series, period, min_conf, constraints)

    def mine_range(
        self,
        low: int,
        high: int,
        min_conf: float | None = None,
        shared: bool = True,
        min_repetitions: int = 1,
        encode: bool = True,
        kernel: str = "batched",
    ) -> MultiPeriodResult:
        """All frequent patterns for every period in ``[low, high]``.

        ``shared=True`` uses Algorithm 3.4 (two scans total);
        ``shared=False`` loops Algorithm 3.2 per period (Algorithm 3.3).
        """
        min_conf = self.min_conf if min_conf is None else min_conf
        return mine_period_range(
            self.series,
            low,
            high,
            min_conf,
            shared=shared,
            min_repetitions=min_repetitions,
            encode=encode,
            kernel=kernel,
        )

    def mine_periods(
        self,
        periods: Iterable[int],
        min_conf: float | None = None,
        shared: bool = True,
        min_repetitions: int = 1,
        encode: bool = True,
        kernel: str = "batched",
    ) -> MultiPeriodResult:
        """All frequent patterns for an explicit collection of periods."""
        min_conf = self.min_conf if min_conf is None else min_conf
        if shared:
            return mine_periods_shared(
                self.series,
                periods,
                min_conf,
                min_repetitions=min_repetitions,
                encode=encode,
                kernel=kernel,
            )
        return mine_periods_looping(
            self.series,
            periods,
            min_conf,
            algorithm=self.algorithm,
            min_repetitions=min_repetitions,
            encode=encode,
            kernel=kernel,
        )

    def suggest_periods(
        self,
        low: int,
        high: int,
        min_conf: float | None = None,
        limit: int = 5,
        min_repetitions: int = 2,
    ) -> list[PeriodScore]:
        """Rank candidate periods by periodic evidence (see
        :mod:`repro.analysis.periodogram`)."""
        from repro.analysis.periodogram import suggest_periods

        min_conf = self.min_conf if min_conf is None else min_conf
        return suggest_periods(
            self.series,
            low,
            high,
            min_conf=min_conf,
            limit=limit,
            min_repetitions=min_repetitions,
        )

    def __repr__(self) -> str:
        return (
            f"PartialPeriodicMiner(len={len(self.series)}, "
            f"min_conf={self.min_conf}, algorithm={self.algorithm!r})"
        )
