#!/usr/bin/env python3
"""Reproduce the eight-plant toy-grid numbers end to end.

Clears the toy grid at reference prices 10 and 70 EUR/MWh, prints the offer
stack, profits and fee pool in both rounding modes, then settles the
three-plant reserve pool against both fee totals.
"""

from fractions import Fraction

from flexmarket import (
    CapacityConfig, build_pool, clear_scenario, emit_report, emit_settlement, settle, toy_grid,
)
from flexmarket.spotmarket import market_wide_fee_intensity, total_fee


def main() -> None:
    for p0 in (10, 70):
        scenario = toy_grid(p0, 25)
        result = clear_scenario(scenario)
        print(f"=== reference price p0 = {p0} EUR/MWh ===")
        print(emit_report(result, "plain-table", "paper-rounded").decode())
        print(f"fee intensity (all plants): "
              f"{float(market_wide_fee_intensity(result.offers)):.2f} EUR/MWh")
        print(f"fee pool C_f exact:         {float(total_fee(result)):.4f} EUR/h")
        print(f"fee pool C_f paper-rounded: "
              f"{float(total_fee(result, 'paper-rounded')):.0f} EUR/h")
        print()

    scenario = toy_grid(10, 25)
    pool = build_pool(
        scenario.plants,
        CapacityConfig(participants=("hydro", "gas", "chp"), allow_overlap=True),
    )
    for cf in (205, 790):
        print(f"=== reliability payments for C_f = {cf} EUR/h ===")
        print(emit_settlement(settle(pool, Fraction(cf)), "plain-table",
                              "paper-rounded").decode())


if __name__ == "__main__":
    main()
