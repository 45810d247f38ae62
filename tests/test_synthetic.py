"""Synthetic cell model: physics invariants and determinism."""

from dataclasses import fields

import numpy as np
import pytest

from socbench import (
    ConfigError,
    Profile,
    SyntheticCellParams,
    coulomb_count,
    generate_cycle,
    ingest_csv,
    write_cycle_csv,
)


def column_bytes(records):
    """Telemetry columns as bytes: equal only when equal bit for bit, so
    -0.0 differs from 0.0, as it does not under np.array_equal."""
    return [getattr(records, f.name).tobytes() for f in fields(records)]


class TestConstantDischarge:
    def test_full_discharge_hits_zero(self):
        params = SyntheticCellParams()
        cycle = generate_cycle(
            params, Profile.CONSTANT_DISCHARGE, duration_s=3600.0, seed=1,
            amplitude_a=2.9,
        )
        assert cycle.soc_percent[-1] == pytest.approx(0.0, abs=1e-9)
        assert cycle.soc_percent[0] == 100.0

    def test_voltage_monotone_nonincreasing(self):
        cycle = generate_cycle(
            SyntheticCellParams(), Profile.CONSTANT_DISCHARGE, duration_s=600.0,
            seed=1, amplitude_a=2.0,
        )
        voltages = cycle.records.voltage_v
        assert np.all(np.diff(voltages) <= 0.0)

    def test_ir_drop(self):
        params = SyntheticCellParams()
        cycle = generate_cycle(
            params, Profile.CONSTANT_DISCHARGE, duration_s=1.0, seed=1,
            amplitude_a=2.0,
        )
        assert cycle.records.voltage_v[0] == pytest.approx(
            params.ocv(100.0) - 2.0 * params.r_internal_ohm, abs=1e-12
        )


class TestZeroCurrent:
    def test_voltage_is_ocv_and_temperature_is_ambient(self):
        params = SyntheticCellParams()
        cycle = generate_cycle(
            params, Profile.CONSTANT_DISCHARGE, duration_s=60.0, seed=1,
            amplitude_a=0.0, soc0_percent=80.0,
        )
        for v, temp in zip(cycle.records.voltage_v, cycle.records.temperature_c):
            assert v == pytest.approx(params.ocv(80.0), abs=1e-12)
            assert temp == params.t_ambient_c
        np.testing.assert_allclose(cycle.soc_percent, 80.0, atol=0)


class TestThermal:
    def test_never_below_ambient(self):
        for seed in (1, 2, 3):
            cycle = generate_cycle(
                SyntheticCellParams(), Profile.RANDOM_MIX, duration_s=600.0,
                seed=seed,
            )
            temps = cycle.records.temperature_c
            assert temps.min() >= 25.0

    def test_relaxes_to_ambient_after_load(self):
        # pulse train: heated during pulses, decays toward ambient in the gaps
        params = SyntheticCellParams()
        cycle = generate_cycle(
            params, Profile.PULSE_TRAIN, duration_s=200.0, seed=1, amplitude_a=5.0,
        )
        temps = cycle.records.temperature_c
        currents = cycle.records.current_a
        rest = currents == 0.0
        # within any rest stretch the temperature decreases monotonically
        diffs = np.diff(temps)
        resting_diffs = diffs[rest[:-1] & rest[1:]]
        assert resting_diffs.size > 0
        assert np.all(resting_diffs <= 0.0)
        assert temps.max() > 25.0


class TestRandomMix:
    def test_deterministic_per_seed(self):
        params = SyntheticCellParams()
        a = generate_cycle(params, Profile.RANDOM_MIX, duration_s=300.0, seed=42)
        b = generate_cycle(params, Profile.RANDOM_MIX, duration_s=300.0, seed=42)
        assert column_bytes(a.records) == column_bytes(b.records)
        np.testing.assert_array_equal(a.soc_percent, b.soc_percent)

    def test_different_seeds_differ(self):
        params = SyntheticCellParams()
        a = generate_cycle(params, Profile.RANDOM_MIX, duration_s=300.0, seed=1)
        b = generate_cycle(params, Profile.RANDOM_MIX, duration_s=300.0, seed=2)
        assert a.records != b.records

    def test_currents_within_documented_range(self):
        cycle = generate_cycle(
            SyntheticCellParams(), Profile.RANDOM_MIX, duration_s=1200.0, seed=7
        )
        currents = cycle.records.current_a
        assert currents.min() >= -2.0 and currents.max() <= 5.0
        assert (currents < 0).any()  # regenerative pulses occur

    def test_soc_stays_in_bounds_even_on_long_cycles(self):
        params = SyntheticCellParams(sample_period_s=1.0)
        for seed in (3, 11, 42):
            cycle = generate_cycle(
                params, Profile.RANDOM_MIX, duration_s=9999.0, seed=seed
            )
            assert cycle.soc_percent.min() >= 0.0
            assert cycle.soc_percent.max() <= 100.0


class TestRoundTrip:
    @pytest.mark.parametrize("profile", list(Profile))
    def test_coulomb_count_recovers_internal_soc(self, profile):
        params = SyntheticCellParams()
        cycle = generate_cycle(params, profile, duration_s=600.0, seed=5,
                               soc0_percent=90.0, amplitude_a=2.0)
        counted = coulomb_count(cycle.records, 90.0, params.capacity_ah)
        assert np.max(
            np.abs(counted.soc_percent - cycle.soc_percent)
        ) < 1e-6

    def test_round_trip_through_csv(self, tmp_path):
        params = SyntheticCellParams()
        cycle = generate_cycle(params, Profile.RANDOM_MIX, duration_s=300.0,
                               seed=9, soc0_percent=95.0)
        path = tmp_path / "cycle.csv"
        write_cycle_csv(cycle.records, path)
        loaded = ingest_csv(path)
        # repr round-trips exactly
        assert column_bytes(loaded.records) == column_bytes(cycle.records)
        counted = coulomb_count(loaded.records, 95.0, params.capacity_ah)
        assert np.max(np.abs(counted.soc_percent - cycle.soc_percent)) < 1e-6


class TestDeterministicOutput:
    def test_csv_byte_identical(self, tmp_path):
        params = SyntheticCellParams()
        paths = []
        for name in ("a.csv", "b.csv"):
            cycle = generate_cycle(params, Profile.RANDOM_MIX, duration_s=120.0,
                                   seed=33)
            p = tmp_path / name
            write_cycle_csv(cycle.records, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestValidation:
    def test_bad_duration(self):
        with pytest.raises(ConfigError):
            generate_cycle(SyntheticCellParams(), Profile.RANDOM_MIX,
                           duration_s=0.0, seed=1)

    def test_bad_cell_params(self):
        with pytest.raises(ConfigError):
            SyntheticCellParams(capacity_ah=-1.0)
        with pytest.raises(ConfigError):
            SyntheticCellParams(ocv_v_min=4.2, ocv_v_max=3.0)
        with pytest.raises(ConfigError):
            SyntheticCellParams(sample_period_s=0.0)

    def test_bad_soc0(self):
        with pytest.raises(ConfigError):
            generate_cycle(SyntheticCellParams(), Profile.RANDOM_MIX,
                           duration_s=10.0, seed=1, soc0_percent=105.0)

