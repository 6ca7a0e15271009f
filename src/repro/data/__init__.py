"""Traffic data substrate: simulator, presets, windowing, scaling, splits."""

from .datasets import (
    PRESETS,
    DatasetSpec,
    ForecastingData,
    TrafficDataset,
    build_forecasting_data,
    load_dataset,
)
from . import io
from .events import (
    EVENT_SCENARIOS,
    AppliedScenario,
    DemandSurge,
    Event,
    GraphUpdate,
    Incident,
    RegimeShift,
    RoadClosure,
    Scenario,
    SensorBias,
    SpecialEvent,
    apply_events,
    event_scenario,
    seeded_events,
)
from .scalers import StandardScaler
from .scenarios import SCENARIOS, scenario_config
from .simulator import SimulationConfig, TrafficSeries, simulate_traffic, time_indices
from .splits import FLOW_SPLIT, SPEED_SPLIT, SplitRatios, chronological_split
from .windows import Batch, BatchIterator, WindowDataset

__all__ = [
    "AppliedScenario",
    "Batch",
    "BatchIterator",
    "DatasetSpec",
    "DemandSurge",
    "EVENT_SCENARIOS",
    "Event",
    "FLOW_SPLIT",
    "ForecastingData",
    "GraphUpdate",
    "Incident",
    "PRESETS",
    "RegimeShift",
    "RoadClosure",
    "SCENARIOS",
    "SPEED_SPLIT",
    "Scenario",
    "SensorBias",
    "SimulationConfig",
    "SpecialEvent",
    "SplitRatios",
    "StandardScaler",
    "TrafficDataset",
    "TrafficSeries",
    "WindowDataset",
    "apply_events",
    "build_forecasting_data",
    "chronological_split",
    "event_scenario",
    "io",
    "load_dataset",
    "scenario_config",
    "seeded_events",
    "simulate_traffic",
    "time_indices",
]
