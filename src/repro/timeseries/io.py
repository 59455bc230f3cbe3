"""Plain-text persistence for feature series.

Format: one slot per line, features separated by whitespace; an empty
line is an empty slot.  Lines starting with ``#`` are comments.  The
format is line-oriented so a series can be streamed from disk, matching
the paper's disk-resident-database setting.

:func:`load_series` reads the file in large blocks (``READ_BLOCK_BYTES``,
each cut after its last newline, so a line never straddles two blocks)
and decodes each block in one call.  Every distinct line is interned
once: its slot becomes one frozenset shared by every repetition and one
int32 code, and the loaded series carries that slot-code view
(:class:`~repro.timeseries.feature_series.SlotCodes`) for the scans in
:mod:`repro.kernels.slotcodes`.  Transient memory is bounded by the
block, not by the file.

Malformed content — bytes that are not UTF-8, features carrying control
characters, or features using the reserved ``*`` wildcard — fails loudly
with the file name and 1-based line number.  Long-running ingestion can
instead pass ``strict=False`` plus a :class:`LoadReport`: malformed lines
are *quarantined* (dropped from the series, with later slots shifting up)
and described on the report for the caller to surface.

The block reader never reports errors itself.  When a block fails UTF-8
decoding or holds a byte some check could reject (``*``, or a control
character that ``str.split`` does not consume), the whole file is read
again by the per-line :func:`iter_slot_lines`, so every ``file:line``
error and every quarantine entry is exactly what a line-by-line read
gives.  A file that cannot be opened or read at all (a directory, a
permission error) raises :class:`~repro.core.errors.SeriesError` naming
the file and the reason.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING

from repro.core.errors import SeriesError
from repro.timeseries.feature_series import FeatureSeries, SlotCodes

if TYPE_CHECKING:
    from repro.timeseries.events import EventDatabase


@dataclass(frozen=True, slots=True)
class QuarantinedLine:
    """One malformed series line set aside by a ``strict=False`` load."""

    path: str
    #: 1-based line number in the source file.
    line: int
    reason: str
    #: The offending content (repr-safe, truncated).
    content: str

    def describe(self) -> str:
        """``file:line: reason`` for logs and CLI warnings."""
        return f"{self.path}:{self.line}: {self.reason} ({self.content})"


@dataclass(slots=True)
class LoadReport:
    """Side-channel record of everything a lenient load quarantined."""

    quarantined: list[QuarantinedLine] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing was quarantined."""
        return not self.quarantined


#: Bytes :func:`load_series` reads per block.
READ_BLOCK_BYTES = 1 << 16

#: Bytes some per-line check could reject: the wildcard and the control
#: characters ``str.split`` keeps inside features (it consumes
#: ``\t\n\x0b\x0c\r`` and ``\x1c``-``\x1f`` as whitespace).  Bytes below
#: 0x80 only ever encode ASCII in UTF-8, so a byte search is exact.
_UNSAFE_BYTES = re.compile(rb"[*\x00-\x08\x0e-\x1b\x7f]")


def _feature_problem(feature: str) -> str | None:
    """Why a feature token is unusable, or ``None`` if it is fine."""
    if "*" in feature:
        return "feature uses the reserved wildcard character '*'"
    if any(ord(ch) < 32 or ord(ch) == 127 for ch in feature):
        return "feature contains control characters"
    return None


def _snippet(raw: bytes) -> str:
    """A short, printable excerpt of a raw line for error reports."""
    text = raw.decode("utf-8", errors="backslashreplace")
    return repr(text if len(text) <= 60 else text[:57] + "...")


def _unsaveable(line: str, slot: frozenset[str]) -> str | None:
    """Why one rendered slot would not reload as itself, or ``None``."""
    for feature in sorted(slot):
        problem = _feature_problem(feature)
        if problem is None and feature.split() != [feature]:
            problem = "feature contains whitespace"
        if problem is None:
            try:
                feature.encode("utf-8")
            except UnicodeEncodeError:
                problem = "feature is not encodable as UTF-8"
        if problem is not None:
            return f"{problem}: {feature!r}"
    if line.startswith("#"):
        return (
            f"feature {min(slot)!r} starts the line with '#', which "
            "reads back as a comment"
        )
    return None


def save_series(series: FeatureSeries, path: str | Path) -> None:
    """Write a series to a text file (one slot per line).

    Raises :class:`~repro.core.errors.SeriesError` naming the slot index
    and feature when a slot would not reload as itself: a feature the
    loader rejects, a feature containing whitespace (it would split), or
    a line starting with ``#`` (it would read back as a comment).
    """
    view = series.slot_codes()
    lines = [" ".join(sorted(slot)) for slot in view.distinct]
    for code, (line, slot) in enumerate(zip(lines, view.distinct)):
        problem = _unsaveable(line, slot)
        if problem is not None:
            index = view.codes.index(code)
            raise SeriesError(f"cannot save slot {index}: {problem}")
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        handle.write("# repro feature series v1\n")
        for start in range(0, len(view.codes), 8192):
            block = view.codes[start : start + 8192]
            handle.write("".join(lines[code] + "\n" for code in block))


def _unreadable(source: Path, error: OSError) -> SeriesError:
    return SeriesError(
        f"cannot read series file {source}: {error.strerror or error}"
    )


def _open_series(source: Path) -> IO[bytes]:
    """Open a series file for binary reading, as a :class:`SeriesError`."""
    try:
        return source.open("rb")
    except FileNotFoundError:
        raise SeriesError(f"series file not found: {source}") from None
    except OSError as error:
        raise _unreadable(source, error) from error


def iter_slot_lines(
    path: str | Path,
    strict: bool = True,
    report: LoadReport | None = None,
) -> Iterator[frozenset[str]]:
    """Stream slots from a series file without materializing the series.

    Malformed lines raise :class:`~repro.core.errors.SeriesError` naming
    ``file:line``; with ``strict=False`` they are skipped instead and, if
    ``report`` is given, recorded there as :class:`QuarantinedLine`
    entries.  The file is read as bytes and decoded per line so even an
    encoding error points at its exact line.
    """
    source = Path(path)
    with _open_series(source) as handle:
        for number, raw in enumerate(_lines(handle, source), start=1):
            raw = raw.rstrip(b"\n").rstrip(b"\r")
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as error:
                problem = (
                    f"line is not valid UTF-8 "
                    f"({error.reason} at byte {error.start})"
                )
                if strict:
                    raise SeriesError(
                        f"{source}:{number}: {problem}"
                    ) from error
                if report is not None:
                    report.quarantined.append(
                        QuarantinedLine(
                            path=str(source),
                            line=number,
                            reason=problem,
                            content=_snippet(raw),
                        )
                    )
                continue
            if line.startswith("#"):
                continue
            if not line.strip():
                yield frozenset()
                continue
            features = line.split()
            problems = [
                problem
                for problem in map(_feature_problem, features)
                if problem is not None
            ]
            if problems:
                if strict:
                    raise SeriesError(f"{source}:{number}: {problems[0]}")
                if report is not None:
                    report.quarantined.append(
                        QuarantinedLine(
                            path=str(source),
                            line=number,
                            reason=problems[0],
                            content=_snippet(raw),
                        )
                    )
                continue
            yield frozenset(features)


def _lines(handle: IO[bytes], source: Path) -> Iterator[bytes]:
    """The raw lines of an open series file; read errors as SeriesError."""
    try:
        yield from handle
    except OSError as error:
        raise _unreadable(source, error) from error


def _blocks(handle: IO[bytes], source: Path, size: int) -> Iterator[bytes]:
    """Read ``size``-byte chunks, re-cut to end right after a newline.

    Only the file's last block may lack a trailing newline.  A line
    longer than ``size`` is carried over until its newline arrives.
    """
    pending: list[bytes] = []
    while True:
        try:
            chunk = handle.read(size)
        except OSError as error:
            raise _unreadable(source, error) from error
        if not chunk:
            if pending:
                yield b"".join(pending)
            return
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield b"".join(pending)
        pending = [chunk[cut:]] if cut < len(chunk) else []


def _load_interned(source: Path, block_size: int) -> FeatureSeries | None:
    """The block reader: the series, or ``None`` when a line needs checks.

    Each distinct line is split once into a frozenset shared by all its
    repetitions; comment lines intern to ``-1`` and yield no slot.
    """
    line_codes: dict[str, int] = {}
    slot_codes: dict[frozenset[str], int] = {}
    distinct: list[frozenset[str]] = []
    codes = array("i")
    slots: list[frozenset[str]] = []
    with _open_series(source) as handle:
        for raw in _blocks(handle, source, block_size):
            if _UNSAFE_BYTES.search(raw) is not None:
                return None
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                return None
            lines = text.split("\n")
            if text.endswith("\n"):
                lines.pop()
            comments = False
            for line in dict.fromkeys(lines):
                code = line_codes.get(line)
                if code is None:
                    if line.startswith("#"):
                        code = -1
                    else:
                        slot = frozenset(line.split())
                        code = slot_codes.setdefault(slot, len(distinct))
                        if code == len(distinct):
                            distinct.append(slot)
                    line_codes[line] = code
                comments = comments or code < 0
            block = list(map(line_codes.__getitem__, lines))
            if comments:
                block = [code for code in block if code >= 0]
            codes.fromlist(block)
            slots.extend(map(distinct.__getitem__, block))
    return FeatureSeries._from_normalized(
        tuple(slots), SlotCodes(tuple(distinct), codes)
    )


def load_series(
    path: str | Path,
    strict: bool = True,
    report: LoadReport | None = None,
) -> FeatureSeries:
    """Read a series previously written by :func:`save_series`.

    ``strict`` and ``report`` behave as in :func:`iter_slot_lines`:
    the default fails fast with ``file:line`` context, ``strict=False``
    quarantines malformed lines onto ``report`` and loads the rest.  The
    result is the series ``FeatureSeries(iter_slot_lines(...))`` gives,
    read in blocks when no line needs a check (see the module notes).
    """
    source = Path(path)
    series = _load_interned(source, READ_BLOCK_BYTES)
    if series is None:
        series = FeatureSeries(
            iter_slot_lines(source, strict=strict, report=report)
        )
    return series


def load_numeric_csv(
    path: str | Path,
    column: str,
    delimiter: str = ",",
) -> list[float]:
    """Read one numeric column from a headed CSV file.

    A thin, dependency-free reader for the discretization pipeline: the
    first row is the header, the named column is parsed as floats.
    """
    import csv

    source = Path(path)
    if not source.exists():
        raise SeriesError(f"CSV file not found: {source}")
    values: list[float] = []
    with source.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise SeriesError(
                f"column {column!r} not in CSV header "
                f"{reader.fieldnames}: {source}"
            )
        for row_number, row in enumerate(reader, start=2):
            raw = row[column]
            try:
                values.append(float(raw))
            except (TypeError, ValueError) as error:
                raise SeriesError(
                    f"{source}:{row_number}: {column}={raw!r} is not numeric"
                ) from error
    if not values:
        raise SeriesError(f"CSV file has no data rows: {source}")
    return values


def load_events_csv(
    path: str | Path,
    time_column: str = "time",
    feature_column: str = "feature",
    delimiter: str = ",",
) -> "EventDatabase":
    """Read a timestamped event database from a headed CSV file.

    Returns a :class:`~repro.timeseries.events.EventDatabase`; bucket it
    with ``to_feature_series`` to obtain a mineable series.
    """
    import csv

    from repro.timeseries.events import EventDatabase

    source = Path(path)
    if not source.exists():
        raise SeriesError(f"CSV file not found: {source}")
    database = EventDatabase()
    with source.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        missing = {time_column, feature_column} - set(reader.fieldnames or ())
        if missing:
            raise SeriesError(
                f"columns {sorted(missing)} not in CSV header "
                f"{reader.fieldnames}: {source}"
            )
        for row_number, row in enumerate(reader, start=2):
            try:
                time = float(row[time_column])
            except (TypeError, ValueError) as error:
                raise SeriesError(
                    f"{source}:{row_number}: bad timestamp "
                    f"{row[time_column]!r}"
                ) from error
            feature = row[feature_column]
            if not feature:
                raise SeriesError(
                    f"{source}:{row_number}: empty feature name"
                )
            database.add(time, feature)
    if not database.events:
        raise SeriesError(f"CSV file has no data rows: {source}")
    return database
