"""Electricity spot-market simulator with operational-inflexibility fees
funding capacity-reserve reliability payments."""

from .analysis import SweepPoint, SweepResult, SweepRun, clear_scenario, sweep_p0
from .capacity import (
    CapacityConfig,
    CapacityPool,
    CapacitySettlement,
    UnallocatableFeeError,
    build_pool,
    eligible_plants,
    settle,
)
from .flexibility import StartUpTime, flexibility, validate_measure
from .plants import PowerPlant, flexibilities_for
from .reports import emit_report, emit_settlement, emit_sweep
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    toy_grid,
)
from .spotmarket import (
    ClearingResult,
    MarketConfig,
    Offer,
    clear,
    make_offers,
    market_wide_fee_intensity,
    merit_order,
    total_fee,
)

__version__ = "0.1.0"
