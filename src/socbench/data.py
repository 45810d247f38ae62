"""Drive-cycle telemetry ingestion and feature engineering.

Pipeline: CSV telemetry -> Coulomb-counted SOC ground truth -> 4-feature
design matrix (instantaneous voltage plus moving-averaged voltage, current
and temperature) -> z-score normalization fit on training rows only.

Sign convention: positive current = discharge, so integrating current
lowers SOC. Datasets using the opposite convention are flipped at
ingestion with ``invert_current=True``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from math import isfinite
from pathlib import Path

import numpy as np

from .errors import DataError, IngestionError, InputError

CSV_HEADER = ["time_s", "voltage_v", "current_a", "temperature_c"]
CAPACITY_COLUMN = "capacity_ah"

VOLTAGE_BOUNDS = (0.0, 6.0)
TEMPERATURE_BOUNDS = (-40.0, 80.0)

DEFAULT_WINDOW = 400
FEATURE_NAMES = ("v", "v_avg", "i_avg", "t_avg")


@dataclass(eq=False)
class Telemetry:
    """Time-ordered samples as four float64 columns of one length."""

    time_s: np.ndarray
    voltage_v: np.ndarray
    current_a: np.ndarray
    temperature_c: np.ndarray

    def __post_init__(self):
        columns = [
            np.asarray(getattr(self, f.name), dtype=np.float64) for f in fields(self)
        ]
        if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
            raise InputError("telemetry columns must be 1-D and of one length")
        for f, column in zip(fields(self), columns):
            setattr(self, f.name, column)

    def __len__(self) -> int:
        return self.time_s.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Telemetry):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass
class DriveCycle:
    """An ingested drive cycle: time-ordered telemetry plus file metadata."""

    name: str
    records: Telemetry
    capacity_ah: float | None = None  # from the optional capacity_ah column


@dataclass
class SocSeries:
    """Coulomb-counted SOC aligned with the telemetry it came from."""

    soc_percent: np.ndarray
    soc0_percent: float
    capacity_ah: float
    clamp_count: int = 0


@dataclass
class DesignMatrix:
    """Feature matrix (n, 4) with aligned SOC targets (n,)."""

    features: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "DesignMatrix":
        idx = np.asarray(indices, dtype=np.intp)
        return DesignMatrix(self.features[idx].copy(), self.targets[idx].copy())


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature population mean and standard deviation."""

    means: np.ndarray
    stds: np.ndarray


def ingest_csv(path: str | Path, invert_current: bool = False) -> DriveCycle:
    """Parse a telemetry CSV into a time-sorted DriveCycle.

    Required header: time_s,voltage_v,current_a,temperature_c. An optional
    capacity_ah column overrides the configured nominal capacity; rows
    giving it conflicting values are rejected. Rows out of time order are
    sorted; exact duplicate rows are dropped; rows violating sanity bounds
    or duplicate timestamps with conflicting values are rejected with their
    line numbers.

    A file with exactly the required header whose rows all parse, pass the
    bounds and have distinct timestamps is read in one ``np.loadtxt`` call;
    any other file takes the row-by-row parse, which gives the same result
    and is the one that reports line numbers.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestionError(f"data file not found: {path}")
    telemetry = _read_columns(path)
    if telemetry is None:
        return _ingest_rows(path, invert_current)
    if invert_current:
        np.negative(telemetry.current_a, out=telemetry.current_a)
    return DriveCycle(name=path.stem, records=telemetry)


def _read_columns(path: Path) -> Telemetry | None:
    """The file's telemetry, or None when the row-by-row parse must decide."""
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            if fh.readline().rstrip("\r\n") != ",".join(CSV_HEADER):
                return None
            start = fh.tell()
            if not fh.read(1 << 16).strip():  # loadtxt would only warn of no data
                return None
            fh.seek(start)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # UnicodeDecodeError too: the row loop reports it
            return None
    if table.shape[1] != len(CSV_HEADER) or not np.isfinite(table).all():
        return None
    v, temp = table[:, 1], table[:, 3]
    in_bounds = (
        (VOLTAGE_BOUNDS[0] < v) & (v < VOLTAGE_BOUNDS[1])
        & (TEMPERATURE_BOUNDS[0] < temp) & (temp < TEMPERATURE_BOUNDS[1])
    )
    if not in_bounds.all():
        return None
    columns = np.ascontiguousarray(
        table[np.argsort(table[:, 0], kind="stable")].T
    )
    if (columns[0, 1:] == columns[0, :-1]).any():
        return None
    return Telemetry(*columns)


def _utf8_lines(fh, path: Path):
    """The lines of a text file opened as UTF-8; bytes that do not decode
    are an IngestionError naming the file."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise IngestionError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
            f"cannot be decoded"
        ) from None


def _ingest_rows(path: Path, invert_current: bool) -> DriveCycle:
    """The row-by-row parse behind ``ingest_csv``, for any file."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header[: len(CSV_HEADER)] != CSV_HEADER:
            raise IngestionError(
                f"{path}: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
            )
        capacity_col = None
        if CAPACITY_COLUMN in header:
            capacity_col = header.index(CAPACITY_COLUMN)

        # the accepted rows, one list per column, in file order
        line_nos: list[int] = []
        times: list[float] = []
        volts: list[float] = []
        currents: list[float] = []
        temps: list[float] = []
        capacity_ah = capacity_line = None
        bad_lines: list[str] = []
        for line_no, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) < len(CSV_HEADER):
                bad_lines.append(f"line {line_no}: expected {len(header)} fields")
                continue
            try:
                t, v, i, temp = (
                    float(raw[0]), float(raw[1]), float(raw[2]), float(raw[3])
                )
            except ValueError:
                bad_lines.append(f"line {line_no}: non-numeric field")
                continue
            if not (isfinite(t) and isfinite(v) and isfinite(i) and isfinite(temp)):
                bad_lines.append(f"line {line_no}: non-finite value")
                continue
            if not VOLTAGE_BOUNDS[0] < v < VOLTAGE_BOUNDS[1]:
                bad_lines.append(f"line {line_no}: voltage {v} outside (0, 6) V")
                continue
            if not TEMPERATURE_BOUNDS[0] < temp < TEMPERATURE_BOUNDS[1]:
                bad_lines.append(
                    f"line {line_no}: temperature {temp} outside (-40, 80) C"
                )
                continue
            if capacity_col is not None and len(raw) > capacity_col:
                cell = raw[capacity_col].strip()
                if cell:
                    try:
                        capacity = float(cell)
                    except ValueError:
                        capacity = float("nan")
                    if not (isfinite(capacity) and capacity > 0.0):
                        bad_lines.append(f"line {line_no}: bad capacity_ah {cell!r}")
                        continue
                    if capacity_ah is None:
                        capacity_ah, capacity_line = capacity, line_no
                    elif capacity != capacity_ah:
                        bad_lines.append(
                            f"line {line_no}: capacity_ah {capacity!r} conflicts "
                            f"with {capacity_ah!r} on line {capacity_line}"
                        )
                        continue
            line_nos.append(line_no)
            times.append(t)
            volts.append(v)
            currents.append(-i if invert_current else i)
            temps.append(temp)

    if bad_lines:
        raise IngestionError(f"{path}: rejected rows: " + "; ".join(bad_lines))
    if not times:
        raise IngestionError(f"{path}: no data rows")

    # stable: rows sharing a timestamp keep file order, so each run of equal
    # timestamps starts with its earliest line
    order = np.argsort(np.array(times), kind="stable")
    lines = np.array(line_nos)[order]
    t = np.array(times)[order]
    v = np.array(volts)[order]
    i = np.array(currents)[order]
    temp = np.array(temps)[order]

    # a row repeating its predecessor's timestamp is dropped when it repeats
    # the first row of that run of timestamps exactly, and is a conflict
    # otherwise
    repeat = np.zeros(t.size, dtype=bool)
    repeat[1:] = t[1:] == t[:-1]
    first = np.maximum.accumulate(np.where(repeat, 0, np.arange(t.size)))
    conflict = repeat & ((v != v[first]) | (i != i[first]) | (temp != temp[first]))
    if conflict.any():
        raise IngestionError(
            f"{path}: duplicate timestamps with conflicting values: "
            + "; ".join(
                f"lines {lines[first[k]]} and {lines[k]} share time {t[k].item()}"
                for k in np.flatnonzero(conflict)
            )
        )

    keep = ~repeat
    return DriveCycle(
        name=path.stem,
        records=Telemetry(t[keep], v[keep], i[keep], temp[keep]),
        capacity_ah=capacity_ah,
    )


def check_data_settings(
    soc0_percent: float = 100.0, capacity_ah: float = 2.9, window: int = 1
) -> None:
    """The rules coulomb_count and moving_average apply to their settings.

    Every default passes, so a caller names only the settings it checks.
    """
    if not isfinite(capacity_ah) or capacity_ah <= 0:
        raise InputError(f"capacity must be finite and > 0 Ah, got {capacity_ah}")
    if not 0.0 <= soc0_percent <= 100.0:
        raise InputError(f"initial SOC must be in [0, 100], got {soc0_percent}")
    if window < 1:
        raise InputError(f"window must be >= 1, got {window}")


def coulomb_count(
    telemetry: Telemetry, soc0_percent: float, capacity_ah: float
) -> SocSeries:
    """SOC(t) = SOC_0 - 100 * (integral of I dt, in Ah) / capacity.

    Trapezoidal integration over possibly non-uniform timestamps; exact for
    piecewise-linear current. Results are clamped to [0, 100] and the clamp
    count reported.
    """
    check_data_settings(soc0_percent=soc0_percent, capacity_ah=capacity_ah)
    if len(telemetry) < 2:
        raise InputError("coulomb counting needs at least 2 records")

    t, i = telemetry.time_s, telemetry.current_a
    dt_h = np.diff(t) / 3600.0
    discharged_ah = np.concatenate(
        ([0.0], np.cumsum(0.5 * (i[:-1] + i[1:]) * dt_h))
    )
    with np.errstate(over="ignore"):  # an overflow clamps like any SOC out of range
        soc = soc0_percent - 100.0 * discharged_ah / capacity_ah
    clamp_count = int(np.count_nonzero((soc < 0.0) | (soc > 100.0)))
    return SocSeries(
        soc_percent=np.clip(soc, 0.0, 100.0),
        soc0_percent=soc0_percent,
        capacity_ah=capacity_ah,
        clamp_count=clamp_count,
    )


def moving_average(series: np.ndarray, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Trailing mean over ``window`` samples including the current one.

    During warm-up (i < window-1) the mean runs over the available prefix,
    so output length always equals input length.
    """
    check_data_settings(window=window)
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise InputError("series must be non-empty")
    if window == 1:
        return x.copy()
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(1, x.size + 1)
    start = np.maximum(idx - window, 0)
    return (csum[idx] - csum[start]) / (idx - start)


def build_design_matrix(
    telemetry: Telemetry, soc: SocSeries, window: int = DEFAULT_WINDOW
) -> DesignMatrix:
    """Rows of (V, avg V, avg I, avg T) with the Coulomb-counted SOC target."""
    if len(telemetry) != soc.soc_percent.shape[0]:
        raise InputError(
            f"{len(telemetry)} records but {soc.soc_percent.shape[0]} SOC values"
        )
    v = telemetry.voltage_v
    features = np.column_stack(
        (
            v,
            moving_average(v, window),
            moving_average(telemetry.current_a, window),
            moving_average(telemetry.temperature_c, window),
        )
    )
    return DesignMatrix(features=features, targets=soc.soc_percent.copy())


def fit_normalization(dm: DesignMatrix, min_std: float = 1e-12) -> NormalizationStats:
    """Per-feature population mean/std over the given (training) rows.

    Targets are never normalized. A feature with std <= min_std is
    rejected by name.
    """
    if len(dm) < 2:
        raise InputError("normalization needs at least 2 rows")
    means = dm.features.mean(axis=0)
    stds = dm.features.std(axis=0)  # population (divide-by-N)
    degenerate = [
        FEATURE_NAMES[j] for j in range(len(FEATURE_NAMES)) if stds[j] <= min_std
    ]
    if degenerate:
        raise DataError(f"degenerate feature(s) with ~zero variance: {degenerate}")
    return NormalizationStats(means=means, stds=stds)


def apply_normalization(dm: DesignMatrix, stats: NormalizationStats) -> DesignMatrix:
    if dm.features.shape[1] != stats.means.shape[0]:
        raise InputError(
            f"{dm.features.shape[1]} features but stats cover {stats.means.shape[0]}"
        )
    return DesignMatrix(
        features=(dm.features - stats.means) / stats.stds,
        targets=dm.targets.copy(),
    )


def write_design_matrix_csv(dm: DesignMatrix, path: str | Path) -> None:
    """Export as ``x1,x2,x3,x4,soc`` with full float precision."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "x3", "x4", "soc"])
        for i in range(len(dm)):
            writer.writerow(
                [repr(float(x)) for x in dm.features[i]]
                + [repr(float(dm.targets[i]))]
            )
