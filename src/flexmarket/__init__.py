"""Electricity spot-market simulator with operational-inflexibility fees
funding capacity-reserve reliability payments. The public names load lazily
(PEP 562): each imports its own module on first use."""

__version__ = "0.1.0"

_HOMES = {
    "analysis": ("SweepPoint", "SweepResult", "SweepRun", "sweep_p0"),
    "capacity": ("CapacityPool", "CapacitySettlement", "UnallocatableFeeError",
                 "build_pool", "eligible_plants", "settle"),
    "plants": ("PowerPlant", "StartUpTime", "flexibilities_for", "flexibility",
               "validate_measure"),
    "reports": ("emit_report", "emit_settlement", "emit_sweep"),
    "scenario": ("CapacityConfig", "MarketConfig", "Scenario", "ScenarioError",
                 "load_scenario", "toy_grid"),
    "spotmarket": ("ClearingResult", "Offer", "clear", "clear_scenario", "make_offers",
                   "market_wide_fee_intensity", "merit_order", "total_fee"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

