"""repro — partial periodic pattern mining in time series databases.

A from-scratch reproduction of Han, Dong & Yin, "Efficient Mining of
Partial Periodic Patterns in Time Series Database" (ICDE 1999): the
single-period Apriori miner, the two-scan max-subpattern hit-set miner with
its max-subpattern tree, shared multi-period mining, and the Section 6
extensions (maximal patterns, periodic rules, multi-level mining,
perturbation tolerance), plus the Section 5 synthetic workload generator.

Beyond the paper, :mod:`repro.encoding` interns ``(offset, feature)``
letters into a dense :class:`LetterVocabulary` and runs every hot path on
int bitmasks (see ``docs/encoding.md``).

Quickstart
----------
>>> from repro import PartialPeriodicMiner
>>> miner = PartialPeriodicMiner("abdabcabdabc", min_conf=0.9)
>>> sorted(str(p) for p in miner.mine(3))
['*b*', 'a**', 'ab*']
"""

from repro.core.apriori import mine_single_period_apriori
from repro.core.constraints import MiningConstraints, mine_with_constraints
from repro.core.counting import brute_force_frequent, confidence, count_pattern
from repro.core.errors import (
    EncodingError,
    GeneratorError,
    MiningError,
    PatternError,
    ReproError,
    SeriesError,
    TaxonomyError,
)
from repro.core.hitset import mine_single_period_hitset
from repro.core.incremental import IncrementalHitSetMiner, SegmentPartial
from repro.core.maximal import maximal_patterns, mine_maximal_hitset
from repro.core.maxpattern import find_frequent_one_patterns
from repro.core.miner import PartialPeriodicMiner
from repro.core.multiperiod import (
    MultiPeriodResult,
    mine_period_range,
    mine_periods_looping,
    mine_periods_shared,
    period_range,
)
from repro.core.pattern import Pattern
from repro.core.result import MiningResult, MiningStats
from repro.core.serialize import load_result, save_result
from repro.encoding import EncodedSeries, LetterVocabulary, SegmentEncoder
from repro.streaming import ArrivalBuffer, StreamingMiner, WindowResult, WindowSpec
from repro.synth.generator import SyntheticSeries, SyntheticSpec, generate_series
from repro.timeseries.feature_series import FeatureSeries, as_feature_series
from repro.timeseries.scan import ScanCountingSeries
from repro.tree.max_subpattern_tree import MaxSubpatternTree

__version__ = "1.0.0"

__all__ = [
    "ArrivalBuffer",
    "EncodedSeries",
    "EncodingError",
    "FeatureSeries",
    "GeneratorError",
    "IncrementalHitSetMiner",
    "LetterVocabulary",
    "MaxSubpatternTree",
    "MiningConstraints",
    "MiningError",
    "MiningResult",
    "MiningStats",
    "MultiPeriodResult",
    "PartialPeriodicMiner",
    "Pattern",
    "PatternError",
    "ReproError",
    "ScanCountingSeries",
    "SegmentEncoder",
    "SegmentPartial",
    "SeriesError",
    "StreamingMiner",
    "SyntheticSeries",
    "SyntheticSpec",
    "TaxonomyError",
    "WindowResult",
    "WindowSpec",
    "as_feature_series",
    "brute_force_frequent",
    "confidence",
    "count_pattern",
    "find_frequent_one_patterns",
    "generate_series",
    "load_result",
    "maximal_patterns",
    "mine_maximal_hitset",
    "mine_period_range",
    "mine_periods_looping",
    "mine_periods_shared",
    "mine_single_period_apriori",
    "mine_single_period_hitset",
    "mine_with_constraints",
    "period_range",
    "save_result",
    "__version__",
]
