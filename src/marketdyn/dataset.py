"""Observed market data: CSV ingestion, validation, input normalization.

File format: UTF-8 CSV with Unix newlines. Leading lines starting with '#'
are free-text provenance. The header is
``label,share_1,...,share_n,y_1,...,y_K`` and every data row carries one
period label (opaque but strictly increasing), the share of each strategy,
and the raw value of each external input.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import SharesState, _readonly
from .errors import DataError
from .influence import alternating_ownership

SHARE_SUM_MIN = 0.9
SHARE_SUM_MAX = 1.1
_CONSTANT_INPUT_VALUE = 0.5

EXAMPLE_DATA_NAME = "example_market.csv"


@dataclass(frozen=True)
class MarketDataset:
    """Aligned per-period observations: labels, shares, raw inputs."""

    labels: tuple[str, ...]
    shares: tuple[SharesState, ...]
    inputs: np.ndarray
    ownership: tuple[int, ...]
    provenance: str = ""

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        inputs = _readonly(self.inputs)
        if len(labels) < 2:
            raise DataError("length >= 2 required, got %d samples" % len(labels))
        if not (len(labels) == len(self.shares) == inputs.shape[0]):
            raise DataError(
                f"misaligned series: {len(labels)} labels, {len(self.shares)} share rows, "
                f"{inputs.shape[0]} input rows"
            )
        if inputs.ndim != 2 or inputs.shape[1] < 1:
            raise DataError(f"inputs must be a (samples, n_y) table, got shape {inputs.shape}")
        if not np.all(np.isfinite(inputs)):
            raise DataError("input values must be finite")
        for a, b in zip(labels, labels[1:]):
            if not a < b:
                raise DataError(f"labels must be strictly increasing, got {a!r} before {b!r}")
        n = self.shares[0].n
        if any(s.n != n for s in self.shares):
            raise DataError("all share rows must have the same number of strategies")
        ownership = tuple(int(s) for s in self.ownership)
        if len(ownership) != inputs.shape[1]:
            raise DataError(
                f"ownership length {len(ownership)} does not match {inputs.shape[1]} inputs"
            )
        if any(not 0 <= s < n for s in ownership):
            raise DataError("ownership entries must be valid strategy indices")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "shares", tuple(self.shares))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "ownership", ownership)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return self.shares[0].n

    @property
    def n_y(self) -> int:
        return self.inputs.shape[1]

    def share_series(self, strategy: int = 0) -> np.ndarray:
        return np.array([s.floats[strategy] for s in self.shares])

    def with_inputs(self, inputs: np.ndarray) -> "MarketDataset":
        return MarketDataset(
            labels=self.labels,
            shares=self.shares,
            inputs=inputs,
            ownership=self.ownership,
            provenance=self.provenance,
        )


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


def _read_table(source) -> tuple[list[str], int, list[str], list[tuple[int, str]]]:
    """Split a CSV table from a path or text stream into its '#' comment
    lines, its header (line number and stripped fields) and its data lines
    (line number and text). Blank lines are skipped."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    comments = []
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comments.append(stripped.lstrip("#").strip())
            continue
        rows.append((line_no, line))
    if not rows:
        raise DataError("no header row found")
    (header_no, header), *rows = rows
    return comments, header_no, [f.strip() for f in _fields(header)], rows


def _fields(line: str) -> list[str]:
    return next(csv.reader((line,)))


def _parse_row(line_no: int, line: str, width: int) -> tuple[str, list[float]]:
    """A data row's label and the finite numbers after it; the row must
    have ``width`` fields."""
    fields = _fields(line)
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


def load_csv(source, ownership: tuple[int, ...] | None = None) -> MarketDataset:
    """Parse a market dataset from a path or text stream.

    Share rows are renormalized to sum to exactly 1; a row whose raw sum
    falls outside [0.9, 1.1] is rejected with its line number.
    """
    return _dataset_from_table(*_read_table(source), ownership)


def _dataset_from_table(provenance, header_no, header, rows, ownership) -> MarketDataset:
    n, n_y = _parse_header(header, header_no)
    labels: list[str] = []
    share_rows: list[SharesState] = []
    input_rows: list[list[float]] = []
    for line_no, line in rows:
        label, values = _parse_row(line_no, line, 1 + n + n_y)
        raw_shares = values[:n]
        total = math.fsum(raw_shares)
        if not SHARE_SUM_MIN <= total <= SHARE_SUM_MAX:
            raise DataError(
                f"line {line_no}: share sum {total!r} outside [{SHARE_SUM_MIN}, {SHARE_SUM_MAX}]"
            )
        if any(s < 0.0 for s in raw_shares):
            raise DataError(f"line {line_no}: negative share")
        labels.append(label)
        share_rows.append(SharesState._of_floats([s / total for s in raw_shares]))
        input_rows.append(values[n:])

    if len(labels) < 2:
        raise DataError("length >= 2 required, got %d data rows" % len(labels))
    if ownership is None:
        ownership = alternating_ownership(n_y, n)
    return MarketDataset(
        labels=tuple(labels),
        shares=tuple(share_rows),
        inputs=np.array(input_rows),
        ownership=ownership,
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
    for t in range(len(dataset)):
        row = [dataset.labels[t]]
        row += [repr(v) for v in dataset.shares[t].floats]
        row += [repr(float(v)) for v in dataset.inputs[t]]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8", newline="\n")


def load_input_table(source) -> np.ndarray:
    """Parse an input-only series: ``label,y_1,...,y_K`` rows, or a full
    dataset file whose share columns are then ignored."""
    table = _read_table(source)
    _, header_no, header, rows = table
    if any(f.startswith("share_") for f in header):
        return _dataset_from_table(*table, None).inputs
    if header[0] != "label" or len(header) < 2:
        raise DataError(f"line {header_no}: header must be label,y_1,...,y_K")
    for m, name in enumerate(header[1:]):
        if name != f"y_{m + 1}":
            raise DataError(f"line {header_no}: unexpected column {name!r}")
    values = [_parse_row(line_no, line, len(header))[1] for line_no, line in rows]
    if not values:
        raise DataError("input series contains no data rows")
    return np.array(values)


def example_dataset_path() -> Path:
    """Location of the bundled synthetic duopoly dataset."""
    return Path(resources.files(__package__) / "data" / EXAMPLE_DATA_NAME)


def load_example() -> MarketDataset:
    return load_csv(example_dataset_path())
