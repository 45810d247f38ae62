"""Drive-cycle telemetry ingestion and feature engineering.

Pipeline: CSV telemetry -> Coulomb-counted SOC ground truth -> 4-feature
design matrix (instantaneous voltage plus moving-averaged voltage, current
and temperature) -> z-score normalization fit on training rows only.

Sign convention: positive current = discharge, so integrating current
lowers SOC. Datasets using the opposite convention are flipped after
ingestion, by ``prepare_cycle`` with ``DataSettings(invert_current=True)``.
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
MIN_STD = 1e-12  # a feature's std at or below this is degenerate


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


@dataclass
class DriveCycle:
    """An ingested drive cycle: time-ordered telemetry plus file metadata."""

    records: Telemetry
    capacity_ah: float | None = None  # from the optional capacity_ah column


@dataclass
class SocSeries:
    """Coulomb-counted SOC aligned with the telemetry it came from."""

    soc_percent: np.ndarray
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
        return DesignMatrix(self.features[idx], self.targets[idx])


@dataclass(frozen=True)
class DataSettings:
    """How ``prepare_cycle`` makes a cycle's features: the Coulomb counter's
    initial SOC and capacity (unless the CSV has a capacity_ah column), the
    moving-average window, and whether to flip the current's sign."""

    soc0_percent: float = 100.0
    capacity_ah: float = 2.9
    window: int = DEFAULT_WINDOW
    invert_current: bool = False

    def __post_init__(self):
        if not isfinite(self.capacity_ah) or self.capacity_ah <= 0:
            raise InputError(
                f"capacity must be finite and > 0 Ah, got {self.capacity_ah}"
            )
        if not 0.0 <= self.soc0_percent <= 100.0:
            raise InputError(f"initial SOC must be in [0, 100], got {self.soc0_percent}")
        if self.window < 1:
            raise InputError(f"window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature population mean and standard deviation. Every std is
    finite and > 0 (else InputError), so z-scoring never divides by zero."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        stds = np.asarray(self.stds, dtype=np.float64)
        if not np.all(np.isfinite(stds) & (stds > 0.0)):
            raise InputError("normalization stds must be finite and > 0")


def ingest_csv(path: str | Path) -> DriveCycle:
    """Parse a telemetry CSV into a time-sorted DriveCycle.

    Required header: time_s,voltage_v,current_a,temperature_c. An optional
    capacity_ah column is read into ``DriveCycle.capacity_ah``; rows giving
    it conflicting values are rejected. Rows out of time order are
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
        return _ingest_rows(path)
    return DriveCycle(records=telemetry)


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


def _ingest_rows(path: Path) -> DriveCycle:
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

        # the accepted rows as (t, v, i, temp), and their line numbers, in
        # file order
        line_nos: list[int] = []
        rows: list[tuple[float, float, float, float]] = []
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
            rows.append((t, v, i, temp))

    if bad_lines:
        raise IngestionError(f"{path}: rejected rows: " + "; ".join(bad_lines))
    if not rows:
        raise IngestionError(f"{path}: no data rows")

    # stable: rows sharing a timestamp keep file order, so each run of equal
    # timestamps starts with its earliest line
    table = np.array(rows)
    order = np.argsort(table[:, 0], kind="stable")
    lines = np.array(line_nos)[order]
    t, v, i, temp = table[order].T

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
        records=Telemetry(t[keep], v[keep], i[keep], temp[keep]),
        capacity_ah=capacity_ah,
    )


def integrate_soc(
    time_s: np.ndarray, current_a: np.ndarray, soc0_percent: float, capacity_ah: float
) -> np.ndarray:
    """SOC(t) = SOC_0 - 100 * (integral of I dt, in Ah) / capacity, unclamped.

    Trapezoidal integration over possibly non-uniform timestamps; exact for
    piecewise-linear current.
    """
    dt_h = np.diff(time_s) / 3600.0
    discharged_ah = np.concatenate(
        ([0.0], np.cumsum(0.5 * (current_a[:-1] + current_a[1:]) * dt_h))
    )
    return soc0_percent - 100.0 * discharged_ah / capacity_ah


def coulomb_count(
    telemetry: Telemetry, soc0_percent: float, capacity_ah: float
) -> SocSeries:
    """The telemetry's SOC by ``integrate_soc``, clamped to [0, 100], with
    the clamp count reported."""
    DataSettings(soc0_percent=soc0_percent, capacity_ah=capacity_ah)  # raises if bad
    if len(telemetry) < 2:
        raise InputError("coulomb counting needs at least 2 records")

    # an overflow clamps like any SOC out of range; a nan (inf - inf) is
    # rejected by build_design_matrix
    with np.errstate(over="ignore", invalid="ignore"):
        soc = integrate_soc(
            telemetry.time_s, telemetry.current_a, soc0_percent, capacity_ah
        )
    clamp_count = int(np.count_nonzero((soc < 0.0) | (soc > 100.0)))
    return SocSeries(soc_percent=np.clip(soc, 0.0, 100.0), clamp_count=clamp_count)


def moving_average(series: np.ndarray, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Trailing mean over ``window`` samples including the current one.

    During warm-up (i < window-1) the mean runs over the available prefix,
    so output length always equals input length, and a window longer than
    the series gives what one of its length does.
    """
    DataSettings(window=window)  # raises if bad
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise InputError("series must be non-empty")
    window = min(window, x.size)  # also keeps idx - window within int64
    if window == 1:
        return x.copy()
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(1, x.size + 1)
    start = np.maximum(idx - window, 0)
    return (csum[idx] - csum[start]) / (idx - start)


def build_design_matrix(
    telemetry: Telemetry, soc: SocSeries, window: int = DEFAULT_WINDOW
) -> DesignMatrix:
    """Rows of (V, avg V, avg I, avg T) with the Coulomb-counted SOC target;
    a column holding a non-finite value is rejected by name."""
    if len(telemetry) != soc.soc_percent.shape[0]:
        raise InputError(
            f"{len(telemetry)} records but {soc.soc_percent.shape[0]} SOC values"
        )
    v = telemetry.voltage_v
    with np.errstate(over="ignore", invalid="ignore"):
        features = np.column_stack(
            (
                v,
                moving_average(v, window),
                moving_average(telemetry.current_a, window),
                moving_average(telemetry.temperature_c, window),
            )
        )
    targets = soc.soc_percent.copy()
    columns = zip((*FEATURE_NAMES, "soc"), (*features.T, targets))
    bad = [name for name, column in columns if not np.isfinite(column).all()]
    if bad:
        raise DataError(f"non-finite values in {bad} (currents too large?)")
    return DesignMatrix(features=features, targets=targets)


def prepare_cycle(
    path: str | Path, settings: DataSettings = DataSettings()
) -> DesignMatrix:
    """One cycle CSV's unnormalized design matrix under ``settings``, the
    current's sign flipped if asked; the CSV's capacity_ah column, when it
    has one, overrides ``settings.capacity_ah``."""
    cycle = ingest_csv(path)
    if settings.invert_current:
        np.negative(cycle.records.current_a, out=cycle.records.current_a)
    capacity = settings.capacity_ah if cycle.capacity_ah is None else cycle.capacity_ah
    soc = coulomb_count(cycle.records, settings.soc0_percent, capacity)
    return build_design_matrix(cycle.records, soc, settings.window)


def fit_normalization(dm: DesignMatrix) -> NormalizationStats:
    """Per-feature population mean/std over the given (training) rows.

    Targets are never normalized. A feature with std <= MIN_STD, or whose
    mean or std overflows float64, is rejected by name.
    """
    if len(dm) < 2:
        raise InputError("normalization needs at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        means = dm.features.mean(axis=0)
        stds = dm.features.std(axis=0)  # population (divide-by-N)
    overflowed = [name for name, m, s in zip(FEATURE_NAMES, means, stds)
                  if not (isfinite(m) and isfinite(s))]
    if overflowed:
        raise DataError(
            f"feature(s) {overflowed} overflow float64 (currents too large?)"
        )
    degenerate = [
        FEATURE_NAMES[j] for j in range(len(FEATURE_NAMES)) if stds[j] <= MIN_STD
    ]
    if degenerate:
        raise DataError(f"degenerate feature(s) with ~zero variance: {degenerate}")
    return NormalizationStats(means=means, stds=stds)


def apply_normalization(dm: DesignMatrix, stats: NormalizationStats) -> DesignMatrix:
    """``dm``'s rows z-scored with ``stats``. A feature that overflows
    float64 on the way (a huge current against statistics fit on other
    rows) is rejected by name, so every caller gets finite features."""
    if dm.features.shape[1] != stats.means.shape[0]:
        raise InputError(
            f"{dm.features.shape[1]} features but stats cover {stats.means.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        features = (dm.features - stats.means) / stats.stds
    finite = np.isfinite(features).all(axis=0)
    overflowed = [name for name, ok in zip(FEATURE_NAMES, finite) if not ok]
    if overflowed:
        raise DataError(f"normalized feature(s) {overflowed} overflow float64 "
                        "(currents too large?)")
    return DesignMatrix(features=features, targets=dm.targets.copy())


def write_design_matrix_csv(dm: DesignMatrix, path: str | Path) -> None:
    """Export as ``x1,x2,x3,x4,soc`` with full float precision."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("x1,x2,x3,x4,soc\n")
        fh.writelines(
            f"{x1!r},{x2!r},{x3!r},{x4!r},{soc!r}\n"
            for (x1, x2, x3, x4), soc in zip(dm.features.tolist(), dm.targets.tolist())
        )
