"""Scalers, windows, splits and dataset presets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    FLOW_SPLIT,
    PRESETS,
    SPEED_SPLIT,
    BatchIterator,
    SplitRatios,
    StandardScaler,
    WindowDataset,
    build_forecasting_data,
    chronological_split,
    load_dataset,
)


class TestStandardScaler:
    def test_roundtrip(self, rng):
        values = rng.uniform(10, 60, size=(50, 4)).astype(np.float32)
        scaler = StandardScaler(null_value=None).fit(values)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(values)), values, rtol=1e-4
        )

    def test_transform_standardises(self, rng):
        values = rng.normal(30, 5, size=(2000,)).astype(np.float32)
        scaled = StandardScaler(null_value=None).fit_transform(values)
        assert abs(scaled.mean()) < 0.05
        assert abs(scaled.std() - 1.0) < 0.05

    def test_null_masking_excludes_zeros(self):
        values = np.array([0.0, 10.0, 20.0, 0.0], dtype=np.float32)
        scaler = StandardScaler(null_value=0.0).fit(values)
        assert scaler.mean == pytest.approx(15.0)

    def test_unfit_scaler_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones(3))

    def test_all_null_raises(self):
        with pytest.raises(ValueError):
            StandardScaler(null_value=0.0).fit(np.zeros(5))

    def test_constant_series_does_not_divide_by_zero(self):
        scaler = StandardScaler(null_value=None).fit(np.full(10, 7.0))
        out = scaler.transform(np.full(10, 7.0))
        assert np.all(np.isfinite(out))

    @given(st.floats(min_value=-50, max_value=50), st.floats(min_value=0.5, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, mean, std):
        rng = np.random.default_rng(0)
        values = (rng.normal(mean, std, 100)).astype(np.float32)
        scaler = StandardScaler(null_value=None).fit(values)
        back = scaler.inverse_transform(scaler.transform(values))
        np.testing.assert_allclose(back, values, atol=1e-2)


class TestWindows:
    @pytest.fixture()
    def dataset(self, rng):
        t, n = 60, 3
        raw = rng.uniform(1, 10, size=(t, n)).astype(np.float32)
        tod = np.arange(t) % 288
        dow = (np.arange(t) // 288) % 7
        return WindowDataset(raw * 0.1, raw, tod, dow, history=12, horizon=12)

    def test_sample_count(self, dataset):
        assert len(dataset) == 60 - 24 + 1

    def test_window_alignment(self, dataset):
        x, y, tod, dow = dataset.sample(5)
        assert x.shape == (12, 3, 1)
        assert y.shape == (12, 3, 1)
        np.testing.assert_array_equal(tod, np.arange(5, 17) % 288)
        # Target starts exactly where input ends.
        np.testing.assert_allclose(
            dataset.values_raw[17, :, 0], y[0, :, 0]
        )

    def test_scaled_input_raw_target(self, dataset):
        x, y, _, _ = dataset.sample(0)
        np.testing.assert_allclose(x, dataset.values_scaled[0:12])
        np.testing.assert_allclose(y, dataset.values_raw[12:24])

    def test_out_of_range_index(self, dataset):
        with pytest.raises(IndexError):
            dataset.sample(len(dataset))

    def test_too_short_series_rejected(self, rng):
        raw = rng.uniform(size=(10, 2)).astype(np.float32)
        with pytest.raises(ValueError):
            WindowDataset(raw, raw, np.arange(10), np.arange(10), history=12, horizon=12)

    def test_subset_bounds_validated(self, dataset):
        with pytest.raises(ValueError):
            dataset.subset(5, 1000)

    def test_batch_iterator_covers_everything(self, dataset):
        subset = dataset.subset(0, len(dataset))
        batches = list(BatchIterator(subset, batch_size=7, shuffle=False))
        total = sum(b.size for b in batches)
        assert total == len(dataset)
        assert len(batches) == int(np.ceil(len(dataset) / 7))

    def test_shuffle_changes_order_not_content(self, dataset):
        subset = dataset.subset(0, len(dataset))
        plain = np.concatenate(
            [b.x for b in BatchIterator(subset, batch_size=64, shuffle=False)]
        )
        shuffled = np.concatenate(
            [
                b.x
                for b in BatchIterator(
                    subset, batch_size=64, shuffle=True, rng=np.random.default_rng(1)
                )
            ]
        )
        assert not np.array_equal(plain, shuffled)
        np.testing.assert_allclose(np.sort(plain.ravel()), np.sort(shuffled.ravel()))


class TestSplits:
    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SplitRatios(0.5, 0.2, 0.2)

    def test_ratios_must_be_positive(self):
        with pytest.raises(ValueError):
            SplitRatios(1.0, 0.0, 0.0)

    def test_chronological_order(self):
        (a0, a1), (b0, b1), (c0, c1) = chronological_split(1000, SPEED_SPLIT)
        assert a0 == 0 and a1 == b0 and b1 == c0 and c1 == 1000

    def test_proportions_approximate(self):
        (a0, a1), (b0, b1), (c0, c1) = chronological_split(1000, FLOW_SPLIT)
        assert a1 - a0 == pytest.approx(600, abs=2)
        assert b1 - b0 == pytest.approx(200, abs=2)
        assert c1 - c0 == pytest.approx(200, abs=2)

    def test_tiny_input_rejected(self):
        with pytest.raises(ValueError):
            chronological_split(2, SPEED_SPLIT)


class TestPresets:
    def test_all_presets_load(self):
        for name in PRESETS:
            ds = load_dataset(name, num_nodes=6, num_steps=300)
            assert ds.num_nodes == 6
            assert ds.num_steps == 300
            assert ds.series.kind == PRESETS[name].kind

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_speed_flow_character(self):
        speed = load_dataset("pems-bay-sim", num_nodes=6, num_steps=400)
        flow = load_dataset("pems04-sim", num_nodes=6, num_steps=400)
        assert speed.series.values.max() <= 70.0
        assert flow.series.values.max() > 70.0  # flow counts in the hundreds

    def test_deterministic_loads(self):
        a = load_dataset("metr-la-sim", num_nodes=6, num_steps=300)
        b = load_dataset("metr-la-sim", num_nodes=6, num_steps=300)
        np.testing.assert_array_equal(a.series.values, b.series.values)

    def test_reference_stats_recorded(self):
        spec = PRESETS["metr-la-sim"]
        assert spec.reference_nodes == 207
        assert spec.reference_edges == 1722
        assert spec.reference_steps == 34272

    def test_preset_size_ignores_bench_profile(self, monkeypatch):
        # Benchmark scale is chosen by benchmarks/common.py alone; the
        # library always generates the preset unless sizes are passed.
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "tiny")
        dataset = load_dataset("metr-la-sim")
        spec = PRESETS["metr-la-sim"]
        assert (dataset.num_nodes, dataset.num_steps) == (spec.num_nodes, spec.num_steps)


class TestForecastingData:
    def test_scaler_fit_on_train_only(self, tiny_dataset):
        data = build_forecasting_data(tiny_dataset)
        values = tiny_dataset.series.values
        train_stop = data.train.stop
        train_values = values[:train_stop]
        observed = train_values[train_values != 0]
        assert data.scaler.mean == pytest.approx(float(observed.mean()), rel=0.05)

    def test_split_sizes_ordered(self, tiny_data):
        assert len(tiny_data.train) > len(tiny_data.test) > 0
        assert len(tiny_data.val) > 0

    def test_loader_split_selection(self, tiny_data):
        batch = next(iter(tiny_data.loader("test", batch_size=4)))
        assert batch.size == 4

    def test_no_window_overlap_between_train_and_test_targets(self, tiny_data):
        # Train windows end strictly before test windows begin.
        assert tiny_data.train.stop <= tiny_data.test.start


class TestGraphConstructionByKind:
    def test_speed_uses_dense_kernel_flow_uses_sparse_binary(self):
        """Sec. 6.1: speed datasets take the DCRNN Gaussian kernel (dense,
        weighted), flow datasets the ASTGCN binary connectivity (sparse)."""
        speed = load_dataset("metr-la-sim", num_nodes=10, num_steps=320)
        flow = load_dataset("pems04-sim", num_nodes=10, num_steps=320)
        assert flow.num_edges < speed.num_edges
        # Binary adjacency: off-diagonal weights are exactly 0/1.
        off = flow.adjacency[~np.eye(10, dtype=bool)]
        assert set(np.unique(off)) <= {0.0, 1.0}
        # Kernel adjacency: weighted values strictly between 0 and 1 exist.
        speed_off = speed.adjacency[~np.eye(10, dtype=bool)]
        assert np.any((speed_off > 0) & (speed_off < 1))
