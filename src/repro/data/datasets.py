"""Dataset presets and the end-to-end data pipeline.

Four presets mirror the character of the paper's datasets (Table 2) at a
scale pure-numpy training can handle; ``reference_*`` fields record the real
datasets' statistics so benchmark output can print paper-vs-simulated side by
side (used by ``benchmarks/bench_table2_datasets.py`` and EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..graph.adjacency import (
    binary_adjacency,
    gaussian_kernel_adjacency,
    shortest_path_distances,
)
from ..graph.road_network import RoadNetwork, generate_road_network
from .scalers import StandardScaler
from .simulator import SimulationConfig, TrafficSeries, simulate_traffic
from .splits import FLOW_SPLIT, SPEED_SPLIT, SplitRatios, chronological_split
from .windows import BatchIterator, WindowDataset, WindowSubset

__all__ = [
    "DatasetSpec",
    "TrafficDataset",
    "ForecastingData",
    "PRESETS",
    "load_dataset",
    "build_forecasting_data",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one simulated dataset preset."""

    name: str
    kind: str  # "speed" | "flow"
    num_nodes: int
    num_steps: int
    split: SplitRatios
    seed: int
    reference_nodes: int  # the real dataset's size, for reporting
    reference_edges: int
    reference_steps: int

    def scaled(self, num_nodes: int | None = None, num_steps: int | None = None) -> "DatasetSpec":
        """Return a copy with overridden size."""
        changes = {}
        if num_nodes is not None:
            changes["num_nodes"] = num_nodes
        if num_steps is not None:
            changes["num_steps"] = num_steps
        return replace(self, **changes) if changes else self


# Paper Table 2 reference statistics next to the simulated default sizes.
PRESETS: dict[str, DatasetSpec] = {
    "metr-la-sim": DatasetSpec(
        name="metr-la-sim", kind="speed", num_nodes=20, num_steps=2304,
        split=SPEED_SPLIT, seed=101,
        reference_nodes=207, reference_edges=1722, reference_steps=34272,
    ),
    "pems-bay-sim": DatasetSpec(
        name="pems-bay-sim", kind="speed", num_nodes=24, num_steps=2880,
        split=SPEED_SPLIT, seed=102,
        reference_nodes=325, reference_edges=2694, reference_steps=52116,
    ),
    "pems04-sim": DatasetSpec(
        name="pems04-sim", kind="flow", num_nodes=20, num_steps=2016,
        split=FLOW_SPLIT, seed=103,
        reference_nodes=307, reference_edges=680, reference_steps=16992,
    ),
    "pems08-sim": DatasetSpec(
        name="pems08-sim", kind="flow", num_nodes=16, num_steps=2016,
        split=FLOW_SPLIT, seed=104,
        reference_nodes=170, reference_edges=548, reference_steps=17856,
    ),
}


@dataclass
class TrafficDataset:
    """A generated dataset: series + graph + spec."""

    spec: DatasetSpec
    series: TrafficSeries
    network: RoadNetwork
    adjacency: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_steps(self) -> int:
        return self.series.values.shape[0]

    @property
    def num_edges(self) -> int:
        off_diag = self.adjacency * (1.0 - np.eye(self.num_nodes, dtype=np.float32))
        return int((off_diag > 0).sum())

    @property
    def steps_per_day(self) -> int:
        return self.series.config.steps_per_day


def load_dataset(
    name: str,
    num_nodes: int | None = None,
    num_steps: int | None = None,
    steps_per_day: int | None = None,
    seed: int | None = None,
) -> TrafficDataset:
    """Generate a dataset preset (optionally resized).

    Generation is deterministic given the spec's seed, so every benchmark and
    test sees the same "recording".
    """
    if name not in PRESETS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(PRESETS)}")
    spec = PRESETS[name].scaled(num_nodes=num_nodes, num_steps=num_steps)
    rng = np.random.default_rng(seed if seed is not None else spec.seed)
    network = generate_road_network(spec.num_nodes, rng)
    config = SimulationConfig()
    if steps_per_day is not None:
        config = replace(config, steps_per_day=steps_per_day)
    series = simulate_traffic(network, spec.num_steps, kind=spec.kind, config=config, rng=rng)
    # Graph construction follows the paper (Sec. 6.1): speed datasets use the
    # DCRNN thresholded Gaussian kernel over road distances (dense); flow
    # datasets use ASTGCN's sparse binary connectivity of direct edges —
    # which is why PEMS04/08 have far fewer edges in Table 2.
    if spec.kind == "speed":
        adjacency = gaussian_kernel_adjacency(
            shortest_path_distances(network.distances), threshold=0.1
        )
    else:
        adjacency = binary_adjacency(network.distances)
        adjacency += np.eye(spec.num_nodes, dtype=np.float32)
    return TrafficDataset(spec=spec, series=series, network=network, adjacency=adjacency)


@dataclass
class ForecastingData:
    """Everything a trainer needs: windows, splits, scaler and the graph."""

    dataset: TrafficDataset
    windows: WindowDataset
    train: WindowSubset
    val: WindowSubset
    test: WindowSubset
    scaler: StandardScaler

    @property
    def adjacency(self) -> np.ndarray:
        return self.dataset.adjacency

    @property
    def steps_per_day(self) -> int:
        return self.dataset.steps_per_day

    def loader(
        self,
        split: str,
        batch_size: int = 32,
        shuffle: bool | None = None,
        rng: np.random.Generator | None = None,
    ) -> BatchIterator:
        subset = {"train": self.train, "val": self.val, "test": self.test}[split]
        if shuffle is None:
            shuffle = split == "train"
        return BatchIterator(subset, batch_size=batch_size, shuffle=shuffle, rng=rng)


def build_forecasting_data(
    dataset: TrafficDataset,
    history: int = 12,
    horizon: int = 12,
    time_channels: bool = False,
    mask_nulls: bool = True,
) -> ForecastingData:
    """Assemble windows, chronological splits and a train-fit scaler.

    The scaler is fit on the *training portion only* (no leakage), masking
    the zero-encoded outages, exactly as the DCRNN/D2STGNN pipelines do.
    With ``mask_nulls`` (the default) those outage entries are also mapped to
    0.0 in scaled space — the training mean — so an outage reaches the model
    as a neutral input rather than the extreme ``(0 - mean) / std``.

    ``time_channels`` appends two extra input channels — time-of-day in
    [0, 1) and day-of-week in [0, 1) — the input augmentation the official
    D2STGNN/Graph WaveNet pipelines use.  Targets stay single-channel.
    """
    values = dataset.series.values  # (T, N)
    splits = chronological_split(values.shape[0], dataset.spec.split)
    (train_start, train_stop), _, _ = splits
    scaler = StandardScaler(null_value=0.0, mask_nulls=mask_nulls).fit(
        values[train_start:train_stop]
    )
    scaled = scaler.transform(values)[..., None]  # (T, N, 1)
    if time_channels:
        num_steps, num_nodes = values.shape
        steps_per_day = dataset.steps_per_day
        tod_channel = (dataset.series.time_of_day / steps_per_day).astype(np.float32)
        dow_channel = (dataset.series.day_of_week / 7.0).astype(np.float32)
        broadcast = np.ones((num_steps, num_nodes, 1), dtype=np.float32)
        scaled = np.concatenate(
            [scaled, tod_channel[:, None, None] * broadcast, dow_channel[:, None, None] * broadcast],
            axis=-1,
        )
    windows = WindowDataset(
        values_scaled=scaled,
        values_raw=values,
        time_of_day=dataset.series.time_of_day,
        day_of_week=dataset.series.day_of_week,
        history=history,
        horizon=horizon,
    )
    # Convert step boundaries to window-index boundaries: a window starting at
    # step s spans s .. s+history+horizon; we assign it to the split owning s.
    num_windows = len(windows)
    sample_splits = chronological_split(num_windows, dataset.spec.split)
    (a0, a1), (b0, b1), (c0, c1) = sample_splits
    return ForecastingData(
        dataset=dataset,
        windows=windows,
        train=windows.subset(a0, a1),
        val=windows.subset(b0, b1),
        test=windows.subset(c0, c1),
        scaler=scaler,
    )
