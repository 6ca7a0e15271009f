"""Shared harness for the per-table / per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
(Sec. 6) on the simulated datasets.  Absolute values differ from the paper —
the substrate is a pure-numpy engine on synthetic data at reduced scale — but
each bench prints the paper's reference numbers next to the measured ones so
the *shape* of the result (who wins, by how much, where crossovers fall) can
be compared directly.  See EXPERIMENTS.md for the recorded comparison.

Scale is controlled by ``REPRO_BENCH_PROFILE`` (tiny | bench | full), read
here and nowhere else.  Tracked results live in ``benchmarks/results/``; a
``tiny`` run (the CI smoke profile) writes nothing there.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.baselines import (
    ASTGCN,
    DCRNN,
    DGCRN,
    FCLSTM,
    GMAN,
    MTGNN,
    STGCN,
    STSGCN,
    SVR,
    VAR,
    GraphWaveNet,
    HistoricalAverage,
)
from repro.core import D2STGNN, D2STGNNConfig
from repro.data import ForecastingData, build_forecasting_data, load_dataset
from repro.training import Trainer, TrainerConfig, evaluate_split
from repro.utils.seed import set_seed

RESULTS_DIR = Path(__file__).parent / "results"

DATASETS = ("metr-la-sim", "pems-bay-sim", "pems04-sim", "pems08-sim")


@dataclass(frozen=True)
class BenchProfile:
    """Sizes of one benchmark scale profile."""

    num_nodes: int
    num_steps: int
    hidden_dim: int
    embed_dim: int
    num_layers: int
    epochs: int
    batch_size: int
    num_heads: int = 2


_PROFILES = {
    "tiny": BenchProfile(
        num_nodes=8, num_steps=900, hidden_dim=16, embed_dim=8,
        num_layers=1, epochs=4, batch_size=32,
    ),
    "bench": BenchProfile(
        num_nodes=12, num_steps=1400, hidden_dim=16, embed_dim=8,
        num_layers=2, epochs=4, batch_size=32,
    ),
    "full": BenchProfile(
        num_nodes=32, num_steps=4032, hidden_dim=32, embed_dim=12,
        num_layers=2, epochs=12, batch_size=32, num_heads=4,
    ),
}


def profile_name() -> str:
    """The active profile's name, from ``REPRO_BENCH_PROFILE`` (default ``bench``)."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "bench").lower()
    if name not in _PROFILES:
        raise ValueError(
            f"unknown REPRO_BENCH_PROFILE {name!r}; expected one of {sorted(_PROFILES)}"
        )
    return name


def profile() -> BenchProfile:
    return _PROFILES[profile_name()]


_DATA_CACHE: dict[str, ForecastingData] = {}


def get_data(name: str) -> ForecastingData:
    """Load (and cache) one simulated dataset at the active profile's size."""
    if name not in _DATA_CACHE:
        p = profile()
        dataset = load_dataset(name, num_nodes=p.num_nodes, num_steps=p.num_steps)
        _DATA_CACHE[name] = build_forecasting_data(dataset)
    return _DATA_CACHE[name]


# ---------------------------------------------------------------------------
# Model zoo
# ---------------------------------------------------------------------------

def d2stgnn_config(data: ForecastingData, **overrides) -> D2STGNNConfig:
    p = profile()
    defaults = dict(
        num_nodes=data.dataset.num_nodes,
        steps_per_day=data.steps_per_day,
        hidden_dim=p.hidden_dim,
        embed_dim=p.embed_dim,
        num_layers=p.num_layers,
        num_heads=p.num_heads,
        dropout=0.0,
    )
    defaults.update(overrides)
    return D2STGNNConfig(**defaults)


def build_model(name: str, data: ForecastingData):
    """Instantiate a forecaster by its Table 3 name.

    Returns ``(model, is_statistical)``; statistical models are ``fit`` rather
    than gradient-trained.
    """
    p = profile()
    num_nodes = data.dataset.num_nodes
    adjacency = data.adjacency
    h = p.hidden_dim
    builders = {
        "HA": lambda: HistoricalAverage(data.steps_per_day),
        "VAR": lambda: VAR(lags=3),
        "SVR": lambda: SVR(epochs=30),
        "FC-LSTM": lambda: FCLSTM(hidden_dim=h),
        "DCRNN": lambda: DCRNN(adjacency, hidden_dim=h),
        "STGCN": lambda: STGCN(adjacency, hidden_dim=h),
        "GraphWaveNet": lambda: GraphWaveNet(adjacency, hidden_dim=h),
        "ASTGCN": lambda: ASTGCN(adjacency, hidden_dim=h),
        "STSGCN": lambda: STSGCN(adjacency, hidden_dim=h),
        "GMAN": lambda: GMAN(num_nodes, data.steps_per_day, hidden_dim=h, num_heads=p.num_heads),
        "MTGNN": lambda: MTGNN(num_nodes, hidden_dim=h),
        "DGCRN": lambda: DGCRN(adjacency, hidden_dim=h),
        "DGCRN+": lambda: DGCRN(adjacency, hidden_dim=h, dynamic=False),  # DGCRN†
        "D2STGNN": lambda: D2STGNN(d2stgnn_config(data), adjacency),
        # Table 4 variants: † static graph, ‡ coupled (no DSTF).
        "D2STGNN+": lambda: D2STGNN(d2stgnn_config(data, use_dynamic_graph=False), adjacency),
        "D2STGNN#": lambda: D2STGNN(
            d2stgnn_config(data, use_dynamic_graph=False, use_decouple=False), adjacency
        ),
    }
    statistical = name in ("HA", "VAR", "SVR")
    return builders[name](), statistical


def train_and_evaluate(
    name: str,
    data: ForecastingData,
    seed: int = 0,
    epochs: int | None = None,
    curriculum: bool = True,
    model=None,
) -> dict:
    """Fit/train one forecaster and return its horizon metrics report."""
    set_seed(seed)
    if model is None:
        model, statistical = build_model(name, data)
    else:
        statistical = False
    history = None
    if statistical:
        model.fit(data)
    else:
        p = profile()
        trainer = Trainer(
            model,
            data,
            TrainerConfig(
                epochs=epochs if epochs is not None else p.epochs,
                batch_size=p.batch_size,
                curriculum=curriculum,
                curriculum_step=max(4, len(data.train) // p.batch_size // 3),
                seed=seed,
            ),
        )
        history = trainer.train()
    report = evaluate_split(model, data, split="test")
    if history is not None:
        report["epoch_seconds"] = history.mean_epoch_seconds
    return report


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def save_results(bench_name: str, payload: dict) -> Path | None:
    """Persist a benchmark's measurements to ``results/<bench_name>.json``.

    The one writer of tracked bench records.  The payload is serialised
    first on every profile, so a payload JSON cannot encode fails the smoke
    runs too and never leaves a half-written record.  A ``tiny`` run is a
    smoke gate, not a measurement, so it writes nothing and returns ``None``.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if profile_name() == "tiny":
        return None
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{bench_name}.json"
    path.write_text(text)
    return path


def print_metric_table(title: str, rows: dict[str, dict], horizons=("3", "6", "12")) -> None:
    """Render {model: report} as a Table 3-style block."""
    print(f"\n=== {title} ===")
    header = f"{'model':<14}" + "".join(
        f"  H{h}: MAE  RMSE  MAPE%   " for h in horizons
    )
    print(header)
    for model, report in rows.items():
        cells = []
        for h in horizons:
            m = report[h]
            cells.append(f"  {m['mae']:7.3f} {m['rmse']:7.3f} {m['mape']:6.2f}  ")
        print(f"{model:<14}" + "".join(cells))
