"""Coverage-guided differential fuzzer for the counting kernels and loader.

The columnar tier re-implements both scans of the hit-set method as
vectorized array ops, and the only acceptable difference from the
batched and legacy kernels is speed.  This module hammers that claim:
randomized feature series are mined through every kernel tier and the
resulting ``{letters: count}`` maps must be identical — additionally
checked against a brute-force oracle that enumerates every subset of the
frequent-1 letters and counts it by definition, with no shared code
beyond the series itself.

The default kernel runs both scans on the slot-code matrix
(:mod:`repro.kernels.slotcodes`) and the legacy kernel walks the
segments letter by letter, so the tier comparison also pins the
slot-code scans to a walk that shares no code with them.

A second, kernel-level stage compares the store primitives directly
(``distinct_counts`` / ``letter_counts`` / ``hit_counter`` /
``count_masks`` / the per-letter bitmap index) against naive
pure-Python recomputations, so a bug that happens to cancel out in the
end-to-end result is still caught at the primitive it lives in.

A third stage fuzzes the series loader's input edges: every case also
writes a random byte file (CRLF and lone ``\r``, invalid UTF-8, ``*`` and
control bytes, comments, whitespace-only lines, a BOM, ``\x0b``/``\x1c``/
``\u2028``, a missing final newline, lines longer than the read block)
and :func:`~repro.timeseries.io.load_series` must agree with the per-line
reference ``FeatureSeries(iter_slot_lines(...))``: the same slots or the
same :class:`~repro.core.errors.SeriesError` text, and under
``strict=False`` an identical :class:`~repro.timeseries.io.LoadReport`.

Coverage guidance is structural, not line-based: every executed case is
reduced to a small signature (period, vocabulary width, frequent-set
size, distinct-mask and pattern-count buckets) and cases that produce a
new signature join the corpus, which mutation favours — so the budget
drifts toward shapes not yet exercised (wide vocabularies, empty
frequent sets, dense distinct tables) instead of re-rolling the same
easy cases.

The fuzzer's own alarm is tested by :func:`mutation_check`: it injects
known bugs — into :mod:`repro.kernels.columnar` (a dropped distinct row,
an off-by-one letter count, a corrupted candidate count, a lying hit
counter), into the slot-code scan 2 (a dropped projected
``(offset, code)`` pair) and into the loader (a block reader that skips
the control-character fallback) — and demands the fuzzer report a
divergence for every one.  A
clean run proves little if the alarm cannot ring.

CLI: ``ppm fuzz`` (see :func:`repro.cli.main`); CI runs a short-budget
smoke plus the mutation check.
"""

from __future__ import annotations

import random
import re
import tempfile
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import ModuleType
from typing import Any

from repro.core.counting import min_count
from repro.core.errors import SeriesError
from repro.core.hitset import mine_single_period_hitset
from repro.core.pattern import Letter
from repro.timeseries.feature_series import FeatureSeries

#: Kernel tiers whose mining results must be letter-identical.
KERNEL_TIERS = ("columnar", "batched", "legacy")

#: Skip the exponential brute-force oracle past this many frequent-1
#: letters (the kernel tiers still cross-check each other).
BRUTE_FORCE_MAX_F1 = 10

#: Cap on the frequent-1 set a case may mine with: the complete frequent
#: set is exponential in it, so :func:`run_case` raises the confidence
#: deterministically until the cap holds (divergence hunting needs many
#: cheap cases, not one degenerate blowup).
MAX_F1_LETTERS = 12

#: At most this many candidate masks per kernel-level comparison.
_SAMPLE_MASKS = 48


@dataclass(frozen=True, slots=True)
class FuzzCase:
    """One reproducible fuzz input (the series is a pure function of it)."""

    seed: int
    period: int
    num_segments: int
    alphabet: int
    planted: int
    planting: float
    noise: int
    min_conf: float

    def describe(self) -> dict[str, Any]:
        """JSON-ready form (the reproduction recipe for a divergence)."""
        return {
            "seed": self.seed,
            "period": self.period,
            "num_segments": self.num_segments,
            "alphabet": self.alphabet,
            "planted": self.planted,
            "planting": self.planting,
            "noise": self.noise,
            "min_conf": self.min_conf,
        }


@dataclass(frozen=True, slots=True)
class Divergence:
    """One observed disagreement between kernels (or against an oracle)."""

    case: FuzzCase
    stage: str
    detail: str

    def describe(self) -> dict[str, Any]:
        return {
            "case": self.case.describe(),
            "stage": self.stage,
            "detail": self.detail,
        }


@dataclass(slots=True)
class FuzzReport:
    """Outcome of one fuzzing run."""

    executed: int
    signatures: int
    corpus_size: int
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every case agreed across kernels and oracles."""
        return not self.divergences

    def to_json(self) -> dict[str, Any]:
        return {
            "executed": self.executed,
            "signatures": self.signatures,
            "corpus_size": self.corpus_size,
            "ok": self.ok,
            "divergences": [d.describe() for d in self.divergences],
        }

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.divergences)} DIVERGENT"
        return (
            f"fuzz: {self.executed} cases, {self.signatures} coverage "
            f"signatures, corpus {self.corpus_size} -> {verdict}"
        )


def random_case(rng: random.Random) -> FuzzCase:
    """Draw a fresh case; ranges deliberately include degenerate shapes."""
    period = rng.randint(1, 6)
    return FuzzCase(
        seed=rng.randrange(1 << 30),
        period=period,
        num_segments=rng.randint(1, 40),
        # Past ~64 distinct (offset, feature) letters the store goes wide
        # and the columnar tier must fall back; both sides of the cliff
        # stay in range.
        alphabet=rng.choice((2, 3, 5, 9, 17, 40, 90)),
        planted=rng.randint(0, 2),
        planting=rng.choice((0.3, 0.6, 0.9, 1.0)),
        noise=rng.randint(0, 3),
        min_conf=rng.choice((0.1, 0.25, 0.5, 0.75, 1.0)),
    )


def mutate_case(case: FuzzCase, rng: random.Random) -> FuzzCase:
    """Perturb one dimension of a corpus case (seed always re-rolls)."""
    mutated = replace(case, seed=rng.randrange(1 << 30))
    dimension = rng.randrange(6)
    if dimension == 0:
        mutated = replace(mutated, period=max(1, case.period + rng.choice((-1, 1))))
    elif dimension == 1:
        mutated = replace(
            mutated, num_segments=max(1, case.num_segments + rng.choice((-3, 3)))
        )
    elif dimension == 2:
        mutated = replace(mutated, alphabet=rng.choice((2, 3, 5, 9, 17, 40, 90)))
    elif dimension == 3:
        mutated = replace(mutated, noise=max(0, case.noise + rng.choice((-1, 1))))
    elif dimension == 4:
        mutated = replace(mutated, min_conf=rng.choice((0.1, 0.25, 0.5, 0.75, 1.0)))
    return mutated


def generate_series(case: FuzzCase) -> FeatureSeries:
    """The deterministic series of a case: periodic plants plus noise."""
    rng = random.Random(case.seed)
    features = [f"f{index}" for index in range(case.alphabet)]
    plants: list[list[str]] = [
        rng.sample(features, min(case.planted, len(features)))
        for _ in range(case.period)
    ]
    total_slots = case.num_segments * case.period + rng.randrange(case.period)
    slots: list[frozenset[str]] = []
    for position in range(total_slots):
        slot: set[str] = set()
        for feature in plants[position % case.period]:
            if rng.random() < case.planting:
                slot.add(feature)
        for _ in range(rng.randint(0, case.noise)):
            slot.add(rng.choice(features))
        slots.append(frozenset(slot))
    return FeatureSeries(slots)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def brute_force_patterns(
    series: FeatureSeries, period: int, min_conf: float
) -> dict[frozenset[Letter], int] | None:
    """Every frequent pattern, by definition, sharing no kernel code.

    Enumerates all non-empty subsets of the frequent-1 letters and counts
    each by a direct submask test over the segments.  ``None`` when the
    frequent-1 set is too large to enumerate (caller skips the oracle).
    """
    segments = list(series.segments(period))
    if not segments:
        return None
    threshold = min_count(min_conf, len(segments))
    letter_counts: Counter = Counter()
    for segment in segments:
        for offset, slot in enumerate(segment):
            for feature in slot:
                letter_counts[(offset, feature)] += 1
    f1 = sorted(
        letter for letter, count in letter_counts.items() if count >= threshold
    )
    if len(f1) > BRUTE_FORCE_MAX_F1:
        return None
    bit_of = {letter: 1 << index for index, letter in enumerate(f1)}
    rows: Counter = Counter()
    for segment in segments:
        row = 0
        for offset, slot in enumerate(segment):
            for feature in slot:
                bit = bit_of.get((offset, feature))
                if bit is not None:
                    row |= bit
        rows[row] += 1
    frequent: dict[frozenset[Letter], int] = {}
    for subset in range(1, 1 << len(f1)):
        count = sum(
            row_count
            for row, row_count in rows.items()
            if not subset & ~row
        )
        if count >= threshold:
            letters = frozenset(
                f1[index] for index in range(len(f1)) if subset >> index & 1
            )
            frequent[letters] = count
    return frequent


def _result_map(
    series: FeatureSeries, period: int, min_conf: float, kernel: str
) -> dict[frozenset[Letter], int]:
    result = mine_single_period_hitset(series, period, min_conf, kernel=kernel)
    return {pattern.letters: count for pattern, count in result.items()}


def _diff_maps(
    left: dict[frozenset[Letter], int], right: dict[frozenset[Letter], int]
) -> str:
    """A short human-readable description of the first few differences."""
    deltas: list[str] = []
    for letters in sorted(
        set(left) | set(right), key=lambda item: sorted(item)
    ):
        if left.get(letters) != right.get(letters):
            deltas.append(
                f"{sorted(letters)}: {left.get(letters)} != {right.get(letters)}"
            )
        if len(deltas) >= 4:
            break
    return "; ".join(deltas) or "identical"


# ----------------------------------------------------------------------
# The loader's input edges
# ----------------------------------------------------------------------

#: Byte tokens a fuzzed series line is assembled from: plain features
#: plus every input edge the block reader must hand to the per-line path
#: or read exactly as it does.
_LINE_TOKENS: tuple[bytes, ...] = (
    b"a", b"b", b"f1", b"f2", b"caf\xc3\xa9", b"#x", b"a#",
    b" ", b"  ", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1f",
    b"\xe2\x80\xa8", b"\xc2\x85", b"\xef\xbb\xbf",
    b"*", b"\x00", b"\x01", b"\x1b", b"\x7f",
    b"\xff", b"\xc3", b"\xed\xa0\x80",
)

#: Line endings, including a stray ``\r`` before the newline.
_LINE_ENDS: tuple[bytes, ...] = (b"\n", b"\n", b"\n", b"\r\n", b"\r\r\n")


def random_series_bytes(rng: random.Random) -> bytes:
    """A random series file built from the loader's edge tokens.

    Most lines are plain, so the block reader's fast path runs often;
    the rest mix in one edge token each.  Lines may be comments, blank or
    very long, and the file may lack its final newline.
    """
    lines: list[bytes] = []
    for _ in range(rng.randint(0, 24)):
        shape = rng.random()
        if shape < 0.1:
            line = b"# " + rng.choice(_LINE_TOKENS)
        elif shape < 0.2:
            line = b"".join(rng.choice((b"", b" ", b"\t")) for _ in range(3))
        elif shape < 0.25:
            line = b" ".join([rng.choice((b"a", b"b", b"f1"))] * rng.randint(40, 400))
        else:
            tokens = [rng.choice(_LINE_TOKENS[:4]) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_LINE_TOKENS))
            line = b" ".join(tokens)
        lines.append(line + rng.choice(_LINE_ENDS))
    data = b"".join(lines)
    if data and rng.random() < 0.3:
        data = data.rstrip(b"\n")
    return data


def _loaded(load: Callable[[], FeatureSeries]) -> tuple[str, Any]:
    """``("slots", slots)`` or ``("error", text)`` for one load call."""
    try:
        series = load()
    except SeriesError as error:
        return "error", str(error)
    return "slots", series.slots


def _check_loader(case: FuzzCase, divergences: list[Divergence]) -> str:
    """Load one random file both ways; returns its coverage outcome."""
    from repro.timeseries import io

    rng = random.Random(case.seed ^ 0x10AD)
    block = rng.choice((1, 7, 64, io.READ_BLOCK_BYTES))
    with tempfile.TemporaryDirectory(prefix="ppm-fuzz-") as scratch:
        path = Path(scratch) / "series.txt"
        path.write_bytes(random_series_bytes(rng))
        default_block = io.READ_BLOCK_BYTES
        io.READ_BLOCK_BYTES = block
        try:
            got = _loaded(lambda: io.load_series(path))
            got_report = io.LoadReport()
            lenient = io.load_series(path, strict=False, report=got_report)
        finally:
            io.READ_BLOCK_BYTES = default_block
        want = _loaded(lambda: FeatureSeries(io.iter_slot_lines(path)))
        want_report = io.LoadReport()
        reference = FeatureSeries(
            io.iter_slot_lines(path, strict=False, report=want_report)
        )
    if got != want:
        divergences.append(
            Divergence(
                case,
                stage="load:strict",
                detail=f"block {block}: {got[0]} vs reference {want[0]}",
            )
        )
    if lenient.slots != reference.slots or got_report != want_report:
        divergences.append(
            Divergence(
                case,
                stage="load:lenient",
                detail=(
                    f"block {block}: {len(lenient)} slots / "
                    f"{len(got_report.quarantined)} quarantined vs "
                    f"{len(reference)} / {len(want_report.quarantined)}"
                ),
            )
        )
    view = lenient.slot_codes()
    if tuple(view.distinct[code] for code in view.codes) != lenient.slots:
        divergences.append(
            Divergence(case, stage="load:slot-codes", detail=f"block {block}")
        )
    return want[0] if want_report.clean else "quarantined"


# ----------------------------------------------------------------------
# One case, end to end
# ----------------------------------------------------------------------


def _effective_conf(series: FeatureSeries, period: int, base: float) -> float:
    """The case's confidence, raised until the frequent-1 cap holds.

    Deterministic in the inputs, so a divergence still reproduces from
    its case alone.  At confidence 1.0 at most ``2 * period`` letters can
    be frequent (two planted features per offset), which is within the
    cap by construction.
    """
    segments = list(series.segments(period))
    if not segments:
        return base
    counts: Counter = Counter()
    for segment in segments:
        for offset, slot in enumerate(segment):
            for feature in slot:
                counts[(offset, feature)] += 1
    conf = base
    while conf < 1.0:
        threshold = min_count(conf, len(segments))
        if sum(1 for c in counts.values() if c >= threshold) <= MAX_F1_LETTERS:
            break
        conf = min(1.0, round(conf + 0.1, 10))
    return conf


def run_case(case: FuzzCase) -> tuple[list[Divergence], tuple[Any, ...]]:
    """Execute one case; returns its divergences and coverage signature."""
    series = generate_series(case)
    divergences: list[Divergence] = []

    min_conf = _effective_conf(series, case.period, case.min_conf)
    maps = {
        kernel: _result_map(series, case.period, min_conf, kernel)
        for kernel in KERNEL_TIERS
    }
    reference = maps["batched"]
    for kernel in KERNEL_TIERS:
        if maps[kernel] != reference:
            divergences.append(
                Divergence(
                    case,
                    stage=f"mine:{kernel}-vs-batched",
                    detail=_diff_maps(maps[kernel], reference),
                )
            )
    oracle = brute_force_patterns(series, case.period, min_conf)
    if oracle is not None and oracle != reference:
        divergences.append(
            Divergence(
                case,
                stage="mine:brute-force-oracle",
                detail=_diff_maps(reference, oracle),
            )
        )

    wide, signature_bits = _check_primitives(case, series, divergences)
    loaded = _check_loader(case, divergences)
    signature = (
        case.period,
        wide,
        _bucket(len(reference)),
        not reference,
        signature_bits,
        loaded,
    )
    return divergences, signature


def _bucket(value: int) -> int:
    """Coarse log-scale bucket for coverage signatures."""
    return value.bit_length()


def _check_primitives(
    case: FuzzCase, series: FeatureSeries, divergences: list[Divergence]
) -> tuple[bool, tuple[Any, ...]]:
    """Differentially test the store primitives on packed stores.

    Returns ``(wide, signature_bits)``; wide stores (``> 64`` letters)
    have no column to test and contribute only their width to coverage.
    """
    from repro.kernels.batched import batched_count_masks
    from repro.kernels.store import SegmentStore, WideVocabularyError

    try:
        store = SegmentStore.from_series_interned(series, case.period)
    except WideVocabularyError:
        return True, (0, 0)
    if not len(store):
        return False, (0, 0)

    rng = random.Random(case.seed ^ 0x5EED)
    naive_rows: Counter = Counter(int(mask) for mask in store)
    distinct = store.distinct_counts()
    if +distinct != +naive_rows:
        divergences.append(
            Divergence(
                case,
                stage="store:distinct_counts",
                detail=(
                    f"{len(distinct)} distinct rows vs {len(naive_rows)} naive"
                ),
            )
        )

    naive_letters: Counter = Counter()
    vocab = store.vocab
    for mask, count in naive_rows.items():
        remaining = mask
        while remaining:
            low = remaining & -remaining
            naive_letters[vocab[low.bit_length() - 1]] += count
            remaining ^= low
    if +store.letter_counts() != +naive_letters:
        divergences.append(
            Divergence(case, stage="store:letter_counts", detail="count mismatch")
        )

    naive_hits = Counter(
        {mask: count for mask, count in naive_rows.items() if mask.bit_count() >= 2}
    )
    if +store.hit_counter() != +naive_hits:
        divergences.append(
            Divergence(case, stage="store:hit_counter", detail="hit mismatch")
        )

    sample: list[int] = list(naive_rows)[:_SAMPLE_MASKS // 2]
    width = len(vocab)
    for row in list(sample):
        if row:
            keep = rng.randrange(1, 1 << row.bit_count())
            sample.append(_submask(row, keep))
    while width and len(sample) < _SAMPLE_MASKS:
        sample.append(rng.randrange(1, 1 << width))
    sample = list(dict.fromkeys(mask for mask in sample if mask))
    naive_counts = {
        mask: sum(
            count for row, count in naive_rows.items() if not mask & ~row
        )
        for mask in sample
    }
    for name, counted in (
        ("columnar", lambda: _columnar_counts(distinct, sample)),
        ("batched", lambda: batched_count_masks(naive_rows.items(), sample)),
        ("bitmap", lambda: store.bitmap_index().count_masks(sample)),
    ):
        observed = dict(counted())
        if observed != naive_counts:
            wrong = sum(
                1
                for mask in sample
                if observed.get(mask) != naive_counts[mask]
            )
            divergences.append(
                Divergence(
                    case,
                    stage=f"store:count_masks:{name}",
                    detail=f"{wrong}/{len(sample)} candidate counts differ",
                )
            )
    return False, (_bucket(len(naive_rows)), _bucket(width))


def _columnar_counts(
    distinct: Counter, sample: list[int]
) -> dict[int, int]:
    from repro.kernels import columnar

    return columnar.count_masks(distinct, sample)


def _submask(row: int, keep: int) -> int:
    """The submask of ``row`` selecting its set bits where ``keep`` is set."""
    out = 0
    index = 0
    remaining = row
    while remaining:
        low = remaining & -remaining
        if keep >> index & 1:
            out |= low
        remaining ^= low
        index += 1
    return out


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------


def fuzz(budget: int, seed: int = 0) -> FuzzReport:
    """Run ``budget`` cases under coverage guidance; fully deterministic.

    Cases producing a previously unseen coverage signature join the
    corpus; most of the budget mutates corpus entries, the rest draws
    fresh random cases so guidance never starves exploration.
    """
    rng = random.Random(seed)
    corpus: list[FuzzCase] = []
    signatures: set[tuple[Any, ...]] = set()
    divergences: list[Divergence] = []
    executed = 0
    while executed < budget:
        if corpus and rng.random() < 0.7:
            case = mutate_case(rng.choice(corpus), rng)
        else:
            case = random_case(rng)
        case_divergences, signature = run_case(case)
        executed += 1
        divergences.extend(case_divergences)
        if signature not in signatures:
            signatures.add(signature)
            corpus.append(case)
    return FuzzReport(
        executed=executed,
        signatures=len(signatures),
        corpus_size=len(corpus),
        divergences=divergences,
    )


# ----------------------------------------------------------------------
# Mutation check: prove the alarm can ring
# ----------------------------------------------------------------------


def _mutation_targets() -> dict[str, tuple[ModuleType, str, Any]]:
    """Named bugs to inject: ``(module, attribute, corrupted replacement)``."""
    from repro.kernels import columnar, slotcodes
    from repro.timeseries import io

    original_distinct = columnar.distinct_counts
    original_letters = columnar.letter_bit_totals
    original_counts = columnar.count_masks
    original_hits = columnar.hit_counter
    original_project = slotcodes.project_pairs

    def dropped_distinct_row(column: Any) -> Counter:
        counts = Counter(original_distinct(column))
        for mask in sorted(counts):
            if mask:
                del counts[mask]
                break
        return counts

    def off_by_one_letter(column: Any) -> Any:
        totals = original_letters(column)
        totals[0] += 1
        return totals

    def corrupted_candidate(distinct: Counter, masks: Any) -> dict[int, int]:
        counts = dict(original_counts(distinct, masks))
        for mask in sorted(counts):
            counts[mask] += 1
            break
        return counts

    def lying_hits(distinct: Counter, min_letters: int = 2) -> Counter:
        counts = Counter(original_hits(distinct, min_letters))
        for mask in sorted(counts):
            counts[mask] += 1
            break
        return counts

    def dropped_pair(*args: Any) -> Any:
        projected = original_project(*args)
        for row in range(len(projected)):
            if projected[row].any():
                projected[row] = 0
                break
        return projected

    return {
        "dropped-distinct-row": (columnar, "distinct_counts", dropped_distinct_row),
        "off-by-one-letter-count": (
            columnar, "letter_bit_totals", off_by_one_letter,
        ),
        "corrupted-candidate-count": (
            columnar, "count_masks", corrupted_candidate,
        ),
        "lying-hit-counter": (columnar, "hit_counter", lying_hits),
        "dropped-projected-pair": (slotcodes, "project_pairs", dropped_pair),
        # Only the wildcard forces the per-line path: control bytes slip
        # through the block reader into features.
        "skipped-control-fallback": (
            io, "_UNSAFE_BYTES", re.compile(rb"[*]"),
        ),
    }


def mutation_check(budget: int = 40, seed: int = 0) -> dict[str, bool]:
    """Inject each known bug; report which ones the fuzzer caught.

    Every value in the returned mapping must be ``True`` for the fuzzer's
    alarm to be trusted; CI asserts exactly that.
    """
    caught: dict[str, bool] = {}
    for name, (module, attribute, corrupted) in _mutation_targets().items():
        original = getattr(module, attribute)
        setattr(module, attribute, corrupted)
        try:
            report = fuzz(budget, seed=seed)
        finally:
            setattr(module, attribute, original)
        caught[name] = not report.ok
    return caught
