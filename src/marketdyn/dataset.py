"""Observed market data: CSV ingestion, validation, input normalization.

File format: UTF-8 CSV with Unix newlines. Leading lines starting with '#'
are free-text provenance. The header is
``label,share_1,...,share_n,y_1,...,y_K`` and every data row carries one
period label (opaque but strictly increasing), the share of each strategy,
and the raw value of each external input.

Data lines take one of two parse paths, with the same values and errors.
numpy's C reader parses them when the whole input allows it: no line holds
a quote or a NUL, each has exactly the header's number of fields, and none
is longer than csv's field size limit. A csv reader then splits every line
at its commas, and numpy reads each field with a subset of float()'s
grammar (no underscores, no non-ASCII digits), giving float()'s value.
Otherwise, or when numpy rejects a field, the lines are read one by one, each
by a csv reader of its own and float(), up to the first line with an error;
that path is the reference, the only one for quoted fields, and the source
of every parse error. No data line goes through it twice.

A dataset holds its share rows as one read-only (row, strategy) block, whose
rows were checked as a whole; reading a row builds its SharesState, which
checks it again.
"""

from __future__ import annotations

import copy
import csv
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import SharesState, _readonly, _simplex_rows
from .errors import DataError
from .influence import alternating_ownership

SHARE_SUM_MIN = 0.9
SHARE_SUM_MAX = 1.1
_CONSTANT_INPUT_VALUE = 0.5

EXAMPLE_DATA_NAME = "example_market.csv"


class ShareRows(Sequence):
    """A dataset's share rows as one read-only (row, strategy) ``block``
    whose rows passed SharesState's checks. Reading row t builds its
    SharesState, bit for bit that row; nothing is kept."""

    __slots__ = ("block",)

    def __init__(self, block: np.ndarray):
        self.block = block

    @classmethod
    def _of_states(cls, states) -> "ShareRows":
        n = states[0].n
        if any(s.n != n for s in states):
            raise DataError("all share rows must have the same number of strategies")
        return cls(_readonly([s.floats for s in states]))

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(self, t) -> SharesState:
        return SharesState(self.block[operator.index(t)])


@dataclass(frozen=True)
class MarketDataset:
    """Aligned per-period observations: labels, shares, raw inputs.

    ``shares`` may be given as a sequence of SharesState or as ShareRows,
    and is held as ShareRows: one (row, strategy) block, each row read as a
    SharesState built on read."""

    labels: tuple[str, ...]
    shares: ShareRows
    inputs: np.ndarray
    ownership: tuple[int, ...]
    provenance: str = ""

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        inputs = _readonly(self.inputs)
        if len(labels) < 2:
            raise DataError("length >= 2 required, got %d samples" % len(labels))
        _check_inputs(inputs, len(labels), len(self.shares))
        for a, b in zip(labels, labels[1:]):
            if not a < b:
                raise DataError(f"labels must be strictly increasing, got {a!r} before {b!r}")
        shares = self.shares
        if not isinstance(shares, ShareRows):
            shares = ShareRows._of_states(shares)
        ownership = _checked_ownership(self.ownership, inputs.shape[1], shares.block.shape[1])
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "ownership", ownership)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return self.shares.block.shape[1]

    @property
    def n_y(self) -> int:
        return self.inputs.shape[1]

    def share_series(self, strategy: int = 0) -> np.ndarray:
        return self.shares.block[:, strategy].copy()

    def with_inputs(self, inputs: np.ndarray) -> "MarketDataset":
        """This dataset with another input table. Only the table is checked:
        the labels, shares and ownership were checked when this one was built."""
        table = _readonly(inputs)
        _check_inputs(table, len(self.labels), len(self.shares))
        _checked_ownership(self.ownership, table.shape[1], self.n)
        dataset = copy.copy(self)
        object.__setattr__(dataset, "inputs", table)
        return dataset


def _check_inputs(inputs: np.ndarray, labels: int, share_rows: int) -> None:
    if not (labels == share_rows == inputs.shape[0]):
        raise DataError(
            f"misaligned series: {labels} labels, {share_rows} share rows, "
            f"{inputs.shape[0]} input rows"
        )
    if inputs.ndim != 2 or inputs.shape[1] < 1:
        raise DataError(f"inputs must be a (samples, n_y) table, got shape {inputs.shape}")
    if not np.all(np.isfinite(inputs)):
        raise DataError("input values must be finite")


def _checked_ownership(ownership, n_y: int, n: int) -> tuple[int, ...]:
    ownership = tuple(int(s) for s in ownership)
    if len(ownership) != n_y:
        raise DataError(f"ownership length {len(ownership)} does not match {n_y} inputs")
    if any(not 0 <= s < n for s in ownership):
        raise DataError("ownership entries must be valid strategy indices")
    return ownership


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-input min-max statistics taken from one window of samples.

    Applying the record to values outside the window can legitimately land
    outside [0, 1]; inputs that are constant over the window are flagged and
    map to 0.5 everywhere.
    """

    minima: tuple[float, ...]
    maxima: tuple[float, ...]
    constant: tuple[bool, ...]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Scale a (samples, n_y) table. A finite value whose scaled image
        overflows raises DataError naming its data row (counted from 1)."""
        v = np.asarray(values, dtype=float)
        if v.ndim != 2 or v.shape[1] != len(self.minima):
            raise ValueError(
                f"record covers {len(self.minima)} inputs, got shape {v.shape}"
            )
        out = np.empty_like(v)
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(len(self.minima)):
                if self.constant[m]:
                    out[:, m] = _CONSTANT_INPUT_VALUE
                else:
                    out[:, m] = (v[:, m] - self.minima[m]) / (self.maxima[m] - self.minima[m])
        overflow = np.isfinite(v) & ~np.isfinite(out)
        if overflow.any():
            t, m = np.argwhere(overflow)[0]
            raise DataError(
                f"data row {t + 1}: y_{m + 1} = {float(v[t, m])!r} overflows under the "
                "min-max scaling of the training window; rescale the inputs"
            )
        return out


def normalize_inputs(
    dataset: MarketDataset, window: tuple[int, int]
) -> tuple[MarketDataset, NormalizationRecord]:
    """Min-max scale every input column using statistics from ``window``
    only (half-open sample range), then apply the same map to all samples.

    Keeping the statistics window separate from the full series is what
    prevents validation samples from leaking into training.
    """
    start, stop = int(window[0]), int(window[1])
    if not (0 <= start < stop <= len(dataset)):
        raise ValueError(f"window {window} is empty or out of range for {len(dataset)} samples")
    block = dataset.inputs[start:stop]
    minima = []
    maxima = []
    constant = []
    for m in range(dataset.n_y):
        lo = float(block[:, m].min())
        hi = float(block[:, m].max())
        minima.append(lo)
        maxima.append(hi)
        constant.append(hi == lo)
    record = NormalizationRecord(
        minima=tuple(minima),
        maxima=tuple(maxima),
        constant=tuple(constant),
    )
    return dataset.with_inputs(record.apply(dataset.inputs)), record


def _parse_header(fields: list[str], line_no: int) -> tuple[int, int]:
    if not fields or fields[0] != "label":
        raise DataError(f"line {line_no}: header must start with 'label', got {fields[:1]}")
    n = 0
    pos = 1
    while pos < len(fields) and fields[pos] == f"share_{n + 1}":
        n += 1
        pos += 1
    n_y = 0
    while pos < len(fields) and fields[pos] == f"y_{n_y + 1}":
        n_y += 1
        pos += 1
    if pos != len(fields) or n < 2 or n_y < 1:
        raise DataError(
            f"line {line_no}: header must be label,share_1..share_n,y_1..y_K "
            f"with n >= 2 and K >= 1, got {fields}"
        )
    return n, n_y


def _read_table(source) -> tuple[list[str], int, list[str], list[int], list[str]]:
    """Split a CSV table from a path or text stream into its '#' comment
    lines, its header (line number and stripped fields) and its data lines
    (their line numbers and their texts). Blank lines are skipped."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{source}: not UTF-8 text ({exc})") from exc
    comments = []
    numbers = []
    lines = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comments.append(stripped.lstrip("#").strip())
            continue
        numbers.append(line_no)
        lines.append(line)
    if not lines:
        raise DataError("no header row found")
    header = [f.strip() for f in _fields(numbers[0], lines[0])]
    return comments, numbers[0], header, numbers[1:], lines[1:]


def _fields(line_no: int, line: str) -> list[str]:
    try:
        return next(csv.reader((line,)))
    except csv.Error as exc:  # such as a field over csv's size limit
        raise DataError(f"line {line_no}: {exc}") from exc


def _plain(lines: list[str], width: int) -> bool:
    """Whether a csv reader would split each line at its commas into
    ``width`` fields: no line holds a quote or a NUL, each has
    ``width - 1`` commas, and none is longer than csv's field size limit."""
    commas = width - 1
    limit = csv.field_size_limit()
    return all(
        line.count(",") == commas and len(line) <= limit and '"' not in line and "\0" not in line
        for line in lines
    )


def _parse_block(numbers: list[int], lines: list[str],
                 width: int) -> tuple[list[str], np.ndarray, DataError | None]:
    """The labels and the (rows, width - 1) block of float() values of the
    data lines (numbered ``numbers``) before the first line that
    ``_parse_row`` rejects, and that line's error (None when it rejects
    none). The block's count is that line's index.

    When ``_plain`` holds, numpy's C reader parses the values and each label
    is its line's text before the first comma; numpy accepts a subset of
    float()'s grammar and gives float()'s value, so its first row that holds
    a non-finite value is the first line that ``_parse_row`` rejects. If it
    rejects a field, or ``_plain`` fails, ``_parse_row`` reads the lines one
    by one.
    """
    if lines and _plain(lines, width):
        try:
            block = np.loadtxt(lines, delimiter=",", usecols=range(1, width), comments=None,
                               dtype=float, ndmin=2)
        except ValueError:
            pass  # _parse_row finds the line and its error
        else:
            finite = np.isfinite(block).all(axis=1)
            end = len(lines) if finite.all() else int(np.argmin(finite))
            labels = [line.partition(",")[0].strip() for line in lines[:end]]
            error = None
            if end < len(lines):
                try:
                    _parse_row(numbers[end], lines[end], width)
                except DataError as exc:
                    error = exc
            return labels, block[:end], error
    labels = []
    values = []
    error = None
    for line_no, line in zip(numbers, lines):
        try:
            label, row = _parse_row(line_no, line, width)
        except DataError as exc:
            error = exc
            break
        labels.append(label)
        values.extend(row)
    return labels, np.array(values, dtype=float).reshape(len(labels), width - 1), error


def _parse_row(line_no: int, line: str, width: int) -> tuple[str, list[float]]:
    """A data row's label and the finite numbers after it; the row must
    have ``width`` fields."""
    fields = _fields(line_no, line)
    if len(fields) != width:
        raise DataError(f"line {line_no}: expected {width} fields, got {len(fields)}")
    try:
        values = [float(f) for f in fields[1:]]
    except ValueError as exc:
        raise DataError(f"line {line_no}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        field = next(f for f, v in zip(fields[1:], values) if not math.isfinite(v))
        raise DataError(f"line {line_no}: values must be finite, got {field.strip()!r}")
    return fields[0].strip(), values


def load_csv(source) -> MarketDataset:
    """Parse a market dataset from a path or text stream.

    Share rows are renormalized to sum to exactly 1; a row whose raw sum
    falls outside [0.9, 1.1] is rejected with its line number.
    """
    return _dataset_from_table(*_read_table(source))


def _dataset_from_table(provenance, header_no, header, numbers, lines) -> MarketDataset:
    n, n_y = _parse_header(header, header_no)
    labels, block, error = _parse_block(numbers, lines, 1 + n + n_y)
    shares = block[:, :n]
    # Rows that math.fsum may add: no share negative or above the sum's upper
    # bound. Every other row fails a check, and its sum could overflow.
    summable = ((shares >= 0.0) & (shares <= SHARE_SUM_MAX)).all(axis=1)
    safe = np.where(summable[:, None], shares, 0.0)
    totals = np.array(list(map(math.fsum, zip(*safe.T.tolist()))), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = shares / totals[:, None]
    passed = summable & (SHARE_SUM_MIN <= totals) & (totals <= SHARE_SUM_MAX)
    passed &= _simplex_rows(normalized)
    # The first failing row raises its error as a row-by-row load would,
    # before the parse error of the later line that ended the block.
    for t in np.flatnonzero(~passed).tolist():
        line_no, raw_shares = numbers[t], block[t, :n].tolist()
        try:
            total = math.fsum(raw_shares)
        except OverflowError:  # a partial sum past the float range
            total = sum(raw_shares)  # inf, -inf or nan: outside [0.9, 1.1] too
        if not SHARE_SUM_MIN <= total <= SHARE_SUM_MAX:
            raise DataError(
                f"line {line_no}: share sum {total!r} outside [{SHARE_SUM_MIN}, {SHARE_SUM_MAX}]"
            )
        if any(s < 0.0 for s in raw_shares):
            raise DataError(f"line {line_no}: negative share")
        SharesState([s / total for s in raw_shares])
    if error is not None:
        raise error
    if len(labels) < 2:
        raise DataError("length >= 2 required, got %d data rows" % len(labels))
    normalized.setflags(write=False)
    return MarketDataset(
        labels=tuple(labels),
        shares=ShareRows(normalized),
        inputs=block[:, n:],
        ownership=alternating_ownership(n_y, n),
        provenance="\n".join(provenance),
    )


def save_csv(dataset: MarketDataset, target) -> None:
    """Serialize a dataset; floats use repr so a reload is value-exact."""
    lines = []
    for note in dataset.provenance.splitlines():
        lines.append(f"# {note}" if note else "#")
    header = ["label"]
    header += [f"share_{i + 1}" for i in range(dataset.n)]
    header += [f"y_{m + 1}" for m in range(dataset.n_y)]
    lines.append(",".join(header))
    for label, shares, inputs in zip(
        dataset.labels, dataset.shares.block.tolist(), dataset.inputs.tolist()
    ):
        lines.append(",".join([label, *map(repr, shares), *map(repr, inputs)]))
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8", newline="\n")


def load_input_table(source) -> np.ndarray:
    """Parse an input-only series of ``label,y_1,...,y_K`` rows. A full
    dataset file is accepted too: it must pass every load_csv check, its
    shares included, and only its inputs are returned."""
    table = _read_table(source)
    _, header_no, header, numbers, lines = table
    if any(f.startswith("share_") for f in header):
        return _dataset_from_table(*table).inputs
    if header[0] != "label" or len(header) < 2:
        raise DataError(f"line {header_no}: header must be label,y_1,...,y_K")
    for m, name in enumerate(header[1:]):
        if name != f"y_{m + 1}":
            raise DataError(f"line {header_no}: unexpected column {name!r}")
    _, block, error = _parse_block(numbers, lines, len(header))
    if error is not None:
        raise error
    if not len(block):
        raise DataError("input series contains no data rows")
    return block


def example_dataset_path() -> Path:
    """Location of the bundled synthetic duopoly dataset."""
    return Path(resources.files(__package__) / "data" / EXAMPLE_DATA_NAME)


def load_example() -> MarketDataset:
    return load_csv(example_dataset_path())
