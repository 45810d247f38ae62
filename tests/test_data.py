"""Ingestion, Coulomb counting, moving averages, and normalization."""

import numpy as np
import pytest

from socbench import (
    DataError,
    DataSettings,
    IngestionError,
    InputError,
    SocSeries,
    Telemetry,
    apply_normalization,
    build_design_matrix,
    coulomb_count,
    fit_normalization,
    ingest_csv,
    moving_average,
    prepare_cycle,
)
from socbench.data import (
    DesignMatrix,
    NormalizationStats,
    _ingest_rows,
    write_design_matrix_csv,
)


def records_from(times, currents, voltage=3.7, temperature=25.0):
    n = len(times)
    return Telemetry(times, np.full(n, voltage), currents, np.full(n, temperature))


def write_csv(path, rows, header="time_s,voltage_v,current_a,temperature_c"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


class TestTelemetry:
    def test_columns_are_float64(self):
        telemetry = Telemetry([0, 1], [4, 4], [3, 3], [25, 25])
        assert len(telemetry) == 2
        assert telemetry.current_a.dtype == np.float64
        assert telemetry.current_a.tolist() == [3.0, 3.0]

    @pytest.mark.parametrize(
        "columns",
        [([0.0, 1.0], [4.0], [1.0, 1.0], [25.0, 25.0]), (0.0, 4.0, 1.0, 25.0)],
    )
    def test_misaligned_or_scalar_columns_rejected(self, columns):
        with pytest.raises(InputError, match="1-D and of one length"):
            Telemetry(*columns)


class TestIngest:
    def test_well_formed_file(self, tmp_path):
        f = tmp_path / "cycle.csv"
        write_csv(f, ["0.0,4.2,1.0,25.0", "1.0,4.19,1.1,25.1", "2.0,4.18,1.2,25.2"])
        cycle = ingest_csv(f)
        assert len(cycle.records) == 3
        assert cycle.records.current_a[1] == 1.1
        assert cycle.capacity_ah is None

    def test_out_of_order_rows_sorted(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(f, ["2.0,4.0,1.0,25.0", "0.0,4.2,1.0,25.0", "1.0,4.1,1.0,25.0"])
        cycle = ingest_csv(f)
        assert cycle.records.time_s.tolist() == [0.0, 1.0, 2.0]

    def test_voltage_bound_violation_rejected_with_line(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(f, ["0.0,4.2,1.0,25.0", "1.0,9.9,1.0,25.0"])
        with pytest.raises(IngestionError, match="line 3"):
            ingest_csv(f)

    def test_temperature_bound_violation_rejected(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(f, ["0.0,4.2,1.0,95.0"])
        with pytest.raises(IngestionError, match="line 2"):
            ingest_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            ingest_csv(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(f, ["0.0,4.2,1.0,25.0"], header="t,v,i,temp")
        with pytest.raises(IngestionError, match="header"):
            ingest_csv(f)

    def test_malformed_row_rejected_with_line(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(f, ["0.0,4.2,1.0,25.0", "1.0,abc,1.0,25.0"])
        with pytest.raises(IngestionError, match="line 3"):
            ingest_csv(f)

    def test_exact_duplicate_rows_dropped(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(f, ["0.0,4.2,1.0,25.0", "0.0,4.2,1.0,25.0", "1.0,4.1,1.0,25.0"])
        assert len(ingest_csv(f).records) == 2

    def test_conflicting_duplicate_timestamps_rejected(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(f, ["0.0,4.2,1.0,25.0", "0.0,4.1,1.0,25.0"])
        with pytest.raises(IngestionError, match="duplicate timestamps"):
            ingest_csv(f)

    def test_capacity_column_override(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(
            f,
            ["0.0,4.2,1.0,25.0,3.2", "1.0,4.1,1.0,25.0,3.2"],
            header="time_s,voltage_v,current_a,temperature_c,capacity_ah",
        )
        assert ingest_csv(f).capacity_ah == 3.2

    def test_conflicting_capacity_rejected_with_lines_and_values(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(
            f,
            ["0.0,4.2,1.0,25.0,3.2", "1.0,4.1,1.0,25.0,", "2.0,4.1,1.0,25.0,3.20",
             "3.0,4.0,1.0,25.0,3.0"],
            header="time_s,voltage_v,current_a,temperature_c,capacity_ah",
        )
        with pytest.raises(IngestionError) as info:
            ingest_csv(f)
        assert str(info.value) == (
            f"{f}: rejected rows: line 5: capacity_ah 3.0 conflicts with 3.2 "
            "on line 2"
        )

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "0", "-0.0", "-1"])
    def test_unusable_capacity_is_a_rejected_row(self, tmp_path, cell):
        f = tmp_path / "c.csv"
        write_csv(
            f,
            ["0.0,4.2,1.0,25.0,", f"1.0,4.1,1.0,25.0,{cell}", "2.0,4.1,1.0,25.0,3.2"],
            header="time_s,voltage_v,current_a,temperature_c,capacity_ah",
        )
        with pytest.raises(IngestionError) as info:
            ingest_csv(f)
        assert str(info.value) == f"{f}: rejected rows: line 3: bad capacity_ah {cell!r}"

    @pytest.mark.parametrize(
        "content",
        [
            b"time_s,volt\xffage_v,current_a,temperature_c\n0,4.2,1.0,25\n",
            b"time_s,voltage_v,current_a,temperature_c\n0,4.2,1.0,25\n1,4.\xff,1.0,25\n",
            # past the text the header check decodes: np.loadtxt meets it
            b"time_s,voltage_v,current_a,temperature_c\n"
            + b"".join(b"%d,4.2,1.0,25\n" % t for t in range(10_000))
            + b"10000,4.\xff,1.0,25\n",
        ],
        ids=["header", "row", "late-row"],
    )
    @pytest.mark.parametrize("ingest", [ingest_csv, _ingest_rows])
    def test_non_utf8_file_is_ingestion_error(self, tmp_path, content, ingest):
        f = tmp_path / "c.csv"
        f.write_bytes(content)
        with pytest.raises(IngestionError) as info:
            ingest(f)
        assert str(info.value) == f"{f}: not UTF-8 text: byte 0xff cannot be decoded"

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("time_s,voltage_v,current_a,temperature_c\n\n  \n")
        with pytest.raises(IngestionError, match="no data rows"):
            ingest_csv(f)


class TestPrepareCycle:
    @pytest.mark.parametrize(
        "first",
        ["1.0,4.1,-2.0,25.0", '"1.0",4.1,-2.0,25.0'],
        ids=["one-call", "row-by-row"],
    )
    def test_invert_current_on_both_paths(self, tmp_path, first):
        """A flipped file gives, bit for bit, what the file written with the
        other sign gives, whichever parse read it."""
        flipped, plain = tmp_path / "flipped.csv", tmp_path / "plain.csv"
        write_csv(flipped, [first, "0.0,4.2,-2.5,25.0", "2.0,4.0,0.0,25.0"])
        write_csv(plain, ["1.0,4.1,2.0,25.0", "0.0,4.2,2.5,25.0", "2.0,4.0,-0.0,25.0"])
        inverted = prepare_cycle(flipped, DataSettings(invert_current=True))
        expected = prepare_cycle(plain)
        assert inverted.features.tobytes() == expected.features.tobytes()
        assert inverted.targets.tobytes() == expected.targets.tobytes()

    def test_invert_current(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(f, ["0.0,4.2,-2.0,25.0", "1.0,4.1,-2.0,25.0"])
        assert ingest_csv(f).records.current_a.tolist() == [-2.0, -2.0]
        as_written = prepare_cycle(f, DataSettings(window=1))
        flipped = prepare_cycle(f, DataSettings(window=1, invert_current=True))
        assert as_written.features[:, 2].tolist() == [-2.0, -2.0]
        assert flipped.features[:, 2].tolist() == [2.0, 2.0]

    def test_capacity_column_overrides_the_setting(self, tmp_path):
        f = tmp_path / "c.csv"
        write_csv(
            f,
            ["0.0,4.2,1.0,25.0,1.45", "600.0,4.1,1.5,25.0,1.45",
             "1200.0,4.0,2.0,25.0,1.45"],
            header="time_s,voltage_v,current_a,temperature_c,capacity_ah",
        )
        dm = prepare_cycle(f, DataSettings(soc0_percent=90.0, capacity_ah=2.9))
        records = ingest_csv(f).records
        at_column = coulomb_count(records, 90.0, 1.45).soc_percent
        at_setting = coulomb_count(records, 90.0, 2.9).soc_percent
        assert dm.targets.tobytes() == at_column.tobytes()
        assert dm.targets.tobytes() != at_setting.tobytes()


class TestCoulombCount:
    def test_half_capacity_discharge(self):
        # 2.9 A for 1800 s discharges 1.45 Ah = half of 2.9 Ah
        times = np.arange(0.0, 1800.0 + 1, 1.0)
        soc = coulomb_count(records_from(times, np.full(times.size, 2.9)), 100.0, 2.9)
        assert soc.soc_percent[-1] == pytest.approx(50.0, abs=1e-9)
        assert soc.soc_percent[0] == 100.0

    def test_empty_cell_at_start_is_a_valid_soc0(self):
        # a cycle may start at 0 % and charge; only SOC outside [0, 100] is
        # rejected
        assert DataSettings(soc0_percent=0.0).soc0_percent == 0.0
        times = np.arange(0.0, 3.0)
        soc = coulomb_count(records_from(times, np.zeros(3)), 0.0, 2.9)
        np.testing.assert_array_equal(soc.soc_percent, 0.0)

    def test_zero_current_constant_soc(self):
        times = np.arange(0.0, 100.0, 1.0)
        soc = coulomb_count(records_from(times, np.zeros(times.size)), 80.0, 2.9)
        np.testing.assert_allclose(soc.soc_percent, 80.0, atol=0)

    def test_discharge_then_charge_returns_to_start(self):
        times = np.arange(0.0, 121.0, 1.0)
        currents = np.where(times < 60.0, 1.0, -1.0)
        currents[60] = 0.0  # transition sample keeps the integral antisymmetric
        soc = coulomb_count(records_from(times, currents), 90.0, 2.9)
        assert soc.soc_percent[-1] == pytest.approx(90.0, abs=1e-9)

    def test_trapezoid_exact_on_current_ramp(self):
        # I(t) = t/100 A over 100 s: integral = 50 A*s exactly
        times = np.arange(0.0, 101.0, 1.0)
        currents = times / 100.0
        soc = coulomb_count(records_from(times, currents), 100.0, 2.0)
        expected = 100.0 - 100.0 * (50.0 / 3600.0) / 2.0
        assert soc.soc_percent[-1] == pytest.approx(expected, abs=1e-9)

    def test_sign_flip_mirrors_about_soc0(self):
        rng = np.random.default_rng(13)
        times = np.cumsum(rng.uniform(0.1, 2.0, size=200))
        currents = rng.uniform(-1.0, 1.0, size=200)
        up = coulomb_count(records_from(times, currents), 50.0, 2.9)
        down = coulomb_count(records_from(times, -currents), 50.0, 2.9)
        np.testing.assert_allclose(
            up.soc_percent - 50.0, 50.0 - down.soc_percent, atol=1e-12
        )

    def test_clamping_counted(self):
        times = np.arange(0.0, 3601.0, 1.0)
        soc = coulomb_count(records_from(times, np.full(times.size, 4.0)), 50.0, 2.9)
        assert soc.clamp_count > 0
        assert soc.soc_percent.min() == 0.0

    def test_nonpositive_capacity_rejected(self):
        times = [0.0, 1.0]
        with pytest.raises(InputError):
            coulomb_count(records_from(times, [1.0, 1.0]), 100.0, 0.0)

    @pytest.mark.parametrize("capacity", [np.inf, -np.inf, np.nan])
    def test_non_finite_capacity_rejected(self, capacity):
        with pytest.raises(InputError, match="capacity must be finite"):
            coulomb_count(records_from([0.0, 1.0], [1.0, 1.0]), 100.0, capacity)

    def test_too_few_records_rejected(self):
        with pytest.raises(InputError):
            coulomb_count(records_from([0.0], [1.0]), 100.0, 2.9)


class TestMovingAverage:
    def test_constant_series(self):
        out = moving_average(np.full(10, 3.25), window=4)
        np.testing.assert_array_equal(out, np.full(10, 3.25))

    def test_worked_example(self):
        out = moving_average(np.array([1.0, 2.0, 3.0, 4.0]), window=3)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.0, 3.0], atol=1e-12)

    def test_window_larger_than_series_is_prefix_mean(self):
        x = np.array([2.0, 4.0, 9.0])
        out = moving_average(x, window=10)
        np.testing.assert_allclose(out, [2.0, 3.0, 5.0], atol=1e-12)

    def test_window_one_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        np.testing.assert_array_equal(moving_average(x, window=1), x)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=300)
        for window in (1, 2, 7, 100, 400):
            out = moving_average(x, window=window)
            brute = np.array(
                [x[max(0, i - window + 1) : i + 1].mean() for i in range(x.size)]
            )
            np.testing.assert_allclose(out, brute, rtol=1e-12, atol=1e-12)

    def test_length_preserved(self):
        assert moving_average(np.ones(17), window=400).size == 17

    def test_window_beyond_int64_gives_the_features_of_the_whole_series(
        self, tmp_path
    ):
        """A window of 2**63 or more overflowed int64 in the warm-up's start
        index; it averages what a window of the series' length does."""
        f = tmp_path / "c.csv"
        write_csv(f, [f"{t}.0,{4.2 - t / 97!r},{-1.0 - t % 3},{25 + t % 2}.0"
                      for t in range(7)])
        huge = prepare_cycle(f, DataSettings(window=99999999999999999999))
        whole = prepare_cycle(f, DataSettings(window=7))
        assert huge.features.tobytes() == whole.features.tobytes()
        shorter = prepare_cycle(f, DataSettings(window=3))
        assert huge.features.tobytes() != shorter.features.tobytes()

    def test_zero_window_rejected(self):
        with pytest.raises(InputError):
            moving_average(np.ones(5), window=0)

    def test_empty_series_rejected(self):
        with pytest.raises(InputError):
            moving_average(np.array([]))


class TestDesignMatrix:
    def test_constant_telemetry(self):
        times = np.arange(0.0, 50.0, 1.0)
        records = records_from(times, np.full(times.size, 1.5), voltage=3.9,
                               temperature=30.0)
        soc = coulomb_count(records, 100.0, 2.9)
        dm = build_design_matrix(records, soc)
        np.testing.assert_allclose(dm.features[:, 0], 3.9)
        np.testing.assert_allclose(dm.features[:, 1], 3.9)
        np.testing.assert_allclose(dm.features[:, 2], 1.5)
        np.testing.assert_allclose(dm.features[:, 3], 30.0)
        np.testing.assert_array_equal(dm.targets, soc.soc_percent)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "currents, columns",
        [([1e308] * 4, ["i_avg"]), ([1e308, 1e308, -1e308, -1e308], ["i_avg", "soc"])],
    )
    def test_huge_currents_rejected_by_column_name(self, currents, columns):
        # the integral and the averages overflow to inf and nan, silently
        records = records_from(np.arange(4.0), np.array(currents))
        soc = coulomb_count(records, 100.0, 2.9)
        with pytest.raises(DataError) as info:
            build_design_matrix(records, soc)
        assert str(info.value) == (
            f"non-finite values in {columns} (currents too large?)"
        )

    def test_single_row_warmup(self):
        records = Telemetry([0.0, 1.0], [4.0, 3.9], [1.0, 1.0], [25.0, 25.0])
        soc = coulomb_count(records, 100.0, 2.9)
        dm = build_design_matrix(records, soc)
        assert dm.features[0, 1] == dm.features[0, 0] == 4.0
        assert dm.targets[0] == soc.soc_percent[0]

    def test_ramp_window_mean(self):
        # V_i = i over 500 rows: mavg at 499 with window 400 = mean(100..499)
        times = np.arange(500.0)
        records = records_from(times, np.zeros(times.size), voltage=5.0)
        ramp = np.arange(500.0)
        v_avg = moving_average(ramp, window=400)
        assert v_avg[499] == pytest.approx(299.5, abs=1e-12)

    def test_length_mismatch_rejected(self):
        records = records_from([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        soc = SocSeries(np.array([100.0, 99.0]))
        with pytest.raises(InputError):
            build_design_matrix(records, soc)

    def test_export_csv_round_trips(self, tmp_path):
        rng = np.random.default_rng(8)
        dm = DesignMatrix(rng.normal(size=(5, 4)), rng.uniform(0, 100, size=5))
        path = tmp_path / "features.csv"
        write_design_matrix_csv(dm, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,x4,soc"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, :4], dm.features)
        np.testing.assert_array_equal(parsed[:, 4], dm.targets)


class TestNormalization:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_statistics_overflowing_float64_rejected_by_name(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(4, 4))
        features[:, 2] = [1e308, 0.0, 0.0, 0.0]  # finite, but its square is not
        with pytest.raises(DataError, match=r"\['i_avg'\] overflow float64"):
            fit_normalization(DesignMatrix(features, np.zeros(4)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normalized_features_overflowing_float64_rejected_by_name(self):
        # finite rows and finite statistics; v_avg overflows in the
        # subtraction and t_avg in the division
        features = np.ones((3, 4))
        features[1, 1] = 1e308
        features[2, 3] = 1e300
        stats = NormalizationStats(means=np.array([0.0, -1e308, 0.0, 0.0]),
                                   stds=np.array([1.0, 1.0, 1.0, 1e-10]))
        with pytest.raises(DataError) as info:
            apply_normalization(DesignMatrix(features, np.zeros(3)), stats)
        assert str(info.value) == (
            "normalized feature(s) ['v_avg', 't_avg'] overflow float64 "
            "(currents too large?)"
        )

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.inf, np.nan])
    def test_stats_with_a_zero_negative_or_non_finite_std_rejected(self, bad):
        with pytest.raises(InputError,
                           match=r"^normalization stds must be finite and > 0$"):
            NormalizationStats(np.zeros(4), np.array([1.0, bad, 1.0, 1.0]))

    def test_worked_example(self):
        dm = DesignMatrix(
            features=np.array([[2.0, 0.0, 1.0, 5.0],
                               [4.0, 1.0, 2.0, 6.0],
                               [6.0, 2.0, 3.0, 7.0]]),
            targets=np.array([10.0, 20.0, 30.0]),
        )
        stats = fit_normalization(dm)
        assert stats.means[0] == pytest.approx(4.0, abs=1e-12)
        assert stats.stds[0] == pytest.approx(np.sqrt(8.0 / 3.0), abs=1e-12)
        normalized = apply_normalization(dm, stats)
        np.testing.assert_allclose(
            normalized.features[:, 0], [-1.2247448713915890, 0.0, 1.2247448713915890],
            atol=1e-9,
        )

    def test_fit_then_apply_standardizes(self):
        rng = np.random.default_rng(9)
        dm = DesignMatrix(
            features=rng.normal(5.0, 3.0, size=(500, 4)),
            targets=rng.uniform(0, 100, size=500),
        )
        out = apply_normalization(dm, fit_normalization(dm))
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-9)

    def test_targets_untouched(self):
        rng = np.random.default_rng(10)
        dm = DesignMatrix(rng.normal(size=(50, 4)), rng.uniform(0, 100, size=50))
        out = apply_normalization(dm, fit_normalization(dm))
        np.testing.assert_array_equal(out.targets, dm.targets)

    def test_refit_of_normalized_data_is_identity(self):
        rng = np.random.default_rng(11)
        dm = DesignMatrix(rng.normal(size=(200, 4)), rng.uniform(0, 100, size=200))
        once = apply_normalization(dm, fit_normalization(dm))
        stats2 = fit_normalization(once)
        np.testing.assert_allclose(stats2.means, 0.0, atol=1e-12)
        np.testing.assert_allclose(stats2.stds, 1.0, atol=1e-12)
        twice = apply_normalization(once, stats2)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-12)

    def test_constant_feature_rejected_by_name(self):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(20, 4))
        features[:, 2] = 7.0
        dm = DesignMatrix(features, rng.uniform(0, 100, size=20))
        with pytest.raises(DataError, match="i_avg"):
            fit_normalization(dm)

    def test_too_few_rows_rejected(self):
        dm = DesignMatrix(np.ones((1, 4)), np.ones(1))
        with pytest.raises(InputError):
            fit_normalization(dm)

    def test_two_rows_are_enough(self):
        stats = fit_normalization(DesignMatrix(np.array([[1.0] * 4, [3.0] * 4]),
                                               np.zeros(2)))
        np.testing.assert_array_equal(stats.means, 2.0)
        np.testing.assert_array_equal(stats.stds, 1.0)

    def test_stats_of_another_width_rejected(self):
        rng = np.random.default_rng(13)
        stats = fit_normalization(DesignMatrix(rng.normal(size=(20, 4)), np.ones(20)))
        dm = DesignMatrix(np.ones((5, 3)), np.ones(5))
        with pytest.raises(InputError, match="^3 features but stats cover 4$"):
            apply_normalization(dm, stats)
