"""repro.encoding — interned letters and bitmask segment codecs.

The representation spine of the mining stack: a
:class:`LetterVocabulary` interns ``(offset, feature)`` letters to dense
int ids, and the codec (:class:`SegmentEncoder` / :class:`EncodedSeries`)
turns each period segment into one int bitmask over that vocabulary.  All
hot paths — the F1 scan, hit computation (Algorithm 4.1), the
max-subpattern tree index and apriori-gen — operate on these masks; letters and :class:`~repro.core.pattern.Pattern`
objects appear only at the API boundary (see ``docs/encoding.md``).

Quickstart
----------
>>> from repro.encoding import EncodedSeries
>>> from repro.timeseries.feature_series import FeatureSeries
>>> encoded = EncodedSeries.from_series(FeatureSeries.from_symbols("abdabcabd"), 3)
>>> [f"{mask:04b}" for mask in encoded]
['1011', '0111', '1011']
"""

from repro.encoding.codec import (
    EncodedSegment,
    EncodedSeries,
    SegmentEncoder,
    iter_segment_letters,
    vocabulary_of_series,
)
from repro.encoding.vocabulary import (
    LetterVocabulary,
    VocabularyLike,
    remap_mask,
)

__all__ = [
    "EncodedSegment",
    "EncodedSeries",
    "LetterVocabulary",
    "SegmentEncoder",
    "VocabularyLike",
    "iter_segment_letters",
    "remap_mask",
    "vocabulary_of_series",
]
