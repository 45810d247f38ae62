"""Deterministic synthetic drive-cycle generator.

A minimal cell model so the whole pipeline runs without an external
dataset: linear open-circuit voltage over SOC, ohmic IR drop, and a
first-order thermal model (dT/dt = cooling_rate * (ambient + heating_k_per_w
* I^2 * R - T), i.e. equilibrium rise of heating_k_per_w kelvin per watt).
SOC is integrated with the same trapezoidal rule the Coulomb counter uses,
so counting the generated current recovers the internal SOC trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .data import CSV_HEADER, Telemetry, integrate_soc


class Profile(Enum):
    CONSTANT_DISCHARGE = "constant"
    PULSE_TRAIN = "pulse"
    RANDOM_MIX = "random"


# RandomMix draws piecewise-constant current segments from these ranges;
# [-2, +5] A with 5-60 s segments keeps hour-scale SOC trajectories inside
# [0, 100] at the default 2.9 Ah capacity. Near either SOC bound the draw
# is restricted to the sign that moves away from it, so one worst-case
# segment cannot cross the bound.
RANDOM_MIX_CURRENT_RANGE = (-2.0, 5.0)
RANDOM_MIX_SEGMENT_RANGE_S = (5.0, 60.0)
_SOC_HIGH_GUARD = 98.5  # discharge-only above this
_SOC_LOW_GUARD = 3.0  # charge-only below this


@dataclass(frozen=True)
class SyntheticCellParams:
    capacity_ah: float = 2.9
    r_internal_ohm: float = 0.03
    ocv_v_min: float = 3.0
    ocv_v_max: float = 4.2
    t_ambient_c: float = 25.0
    heating_k_per_w: float = 20.0
    cooling_rate_per_s: float = 0.005
    sample_period_s: float = 0.1

    def __post_init__(self):
        for name, value in ((f.name, getattr(self, f.name)) for f in fields(self)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.capacity_ah <= 0:
            raise ConfigError(f"capacity_ah must be > 0, got {self.capacity_ah}")
        if self.r_internal_ohm < 0:
            raise ConfigError(f"r_internal_ohm must be >= 0, got {self.r_internal_ohm}")
        if self.ocv_v_max <= self.ocv_v_min:
            raise ConfigError(
                f"ocv_v_max ({self.ocv_v_max}) must exceed ocv_v_min ({self.ocv_v_min})"
            )
        if self.sample_period_s <= 0:
            raise ConfigError(
                f"sample_period_s must be > 0, got {self.sample_period_s}"
            )
        if self.heating_k_per_w < 0 or self.cooling_rate_per_s < 0:
            raise ConfigError("thermal coefficients must be >= 0")

    def ocv(self, soc_percent: float | np.ndarray) -> float | np.ndarray:
        return self.ocv_v_min + (self.ocv_v_max - self.ocv_v_min) * soc_percent / 100.0


@dataclass
class SyntheticCycle:
    """Generated telemetry plus the generator's internal SOC trace."""

    records: Telemetry
    soc_percent: np.ndarray


def _current_profile(
    profile: Profile,
    times: np.ndarray,
    amplitude_a: float,
    seed: int,
    capacity_ah: float,
    soc0_percent: float,
) -> np.ndarray:
    if profile is Profile.CONSTANT_DISCHARGE:
        return np.full(times.shape, amplitude_a)
    if profile is Profile.PULSE_TRAIN:
        # amplitude for 10 s, rest for 10 s
        return np.where((times % 20.0) < 10.0, amplitude_a, 0.0)

    rng = np.random.default_rng(seed)
    i_min, i_max = RANDOM_MIX_CURRENT_RANGE
    current = np.empty(times.shape)
    pos = 0
    t_end = times[-1]
    t_seg = 0.0
    soc = soc0_percent
    while t_seg <= t_end and pos < times.size:
        seg_len = rng.uniform(*RANDOM_MIX_SEGMENT_RANGE_S)
        if soc >= _SOC_HIGH_GUARD:
            seg_current = rng.uniform(0.5, i_max)
        elif soc <= _SOC_LOW_GUARD:
            seg_current = rng.uniform(i_min, -0.5)
        else:
            seg_current = rng.uniform(i_min, i_max)
        t_seg += seg_len
        end = int(np.searchsorted(times, t_seg, side="right"))
        current[pos:end] = seg_current
        soc -= 100.0 * seg_current * seg_len / 3600.0 / capacity_ah
        pos = end
    return current


def generate_cycle(
    params: SyntheticCellParams,
    profile: Profile,
    duration_s: float,
    seed: int,
    soc0_percent: float = 100.0,
    amplitude_a: float = 2.9,
) -> SyntheticCycle:
    """Simulate one drive cycle, deterministically for a given seed.

    ``amplitude_a`` sets the discharge current of the constant and pulse
    profiles; the random mix draws its own seeded segments.
    A cycle of fewer than 2 rows or more than numpy can allocate, or whose
    voltage or temperature overflows float64, is rejected.
    """
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ConfigError(f"duration must be finite and > 0 s, got {duration_s}")
    if not 0.0 <= soc0_percent <= 100.0:
        raise ConfigError(f"initial SOC must be in [0, 100], got {soc0_percent}")
    if not math.isfinite(amplitude_a):
        raise ConfigError(f"current must be finite, got {amplitude_a}")

    rows = f"a {duration_s} s cycle sampled every {params.sample_period_s} s has"
    try:
        n = math.floor(duration_s / params.sample_period_s) + 1
        times = np.arange(n) * params.sample_period_s
    except (OverflowError, ValueError, MemoryError):
        raise ConfigError(f"{rows} more rows than can be allocated") from None
    if n < 2:
        raise ConfigError(f"{rows} 1 row; need at least 2")
    current = _current_profile(
        profile, times, amplitude_a, seed, params.capacity_ah, soc0_percent
    )

    # overflow to inf or nan is caught by the finiteness check at the end
    with np.errstate(over="ignore", invalid="ignore"):
        # the Coulomb counter's own integral, so counting recovers this SOC
        soc = integrate_soc(times, current, soc0_percent, params.capacity_ah)

        voltage = params.ocv(soc) - current * params.r_internal_ohm

        power = current**2 * params.r_internal_ohm
        equilibrium = params.t_ambient_c + params.heating_k_per_w * power

    # forward-Euler first-order thermal response, over Python floats: the
    # same IEEE double arithmetic as numpy scalars, at a fraction of the cost
    dt = params.sample_period_s
    rate = min(params.cooling_rate_per_s * dt, 1.0)  # keep Euler step stable
    temp = float(params.t_ambient_c)
    temperature = [temp]
    for eq in equilibrium[:-1].tolist():
        temp = temp + rate * (eq - temp)
        temperature.append(temp)

    records = Telemetry(times, voltage, current, temperature)
    if not (np.isfinite(records.voltage_v).all()
            and np.isfinite(records.temperature_c).all()):
        raise ConfigError(
            "cell settings overflow: voltage or temperature is not finite"
        )
    return SyntheticCycle(records=records, soc_percent=soc)


def write_cycle_csv(telemetry: Telemetry, path: str | Path) -> None:
    """Write the telemetry CSV the ingestion side reads, full float precision."""
    columns = (
        telemetry.time_s, telemetry.voltage_v, telemetry.current_a,
        telemetry.temperature_c,
    )
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.writelines(
            f"{t!r},{v!r},{i!r},{c!r}\n"
            for t, v, i, c in zip(*(col.tolist() for col in columns))
        )
