#!/usr/bin/env python3
"""Walk the data-flywheel axis and watch the incumbent switch strategy.

The incumbent developer picks a period-1 fee and an openness level knowing
that whatever engagement the deployer builds today lowers the deployer's
cost of staying tomorrow (strength k). Three postures emerge:

- harvest:  maximum openness at the high fee, cede period 2 to the entrant;
- defend:   trim openness to the retention cap, keep the deployer at the
            low fee next period;
- dominate: price low now so even full-cap openness keeps the deployer.

This script prints the closed-form thresholds, then sweeps k and shows the
regime, fee, openness, efforts, and incumbent revenue at each point. The
non-monotone openness column (cap, then a dip, then a climb back) is the
signature of the strategy switches.
"""

from dataclasses import replace

from fmgame import (
    ModelParams,
    eta_bar_high,
    eta_bar_low,
    k_max,
    regime_thresholds,
    scenario_profits,
    solve_baseline,
)

PARAMS = ModelParams(theta=5.0, c=1.0, w_high=2.5, w_low=0.5, eta_cap=1.5, k=0.0)


def main() -> None:
    km = k_max(PARAMS)
    th = regime_thresholds(PARAMS)
    print("Market: theta=5, c=1, fees 2.5 / 0.5, openness cap 1.5")
    print(f"Admissible flywheel range: 0 <= k <= {km:.6f}")
    print(f"Regime breakpoints: harvest ends at k={th.k_bar_1:.6f}, "
          f"defend ends at k={th.k_bar_2:.6f}\n")

    print("Scenario revenues at the breakpoints (ties by construction):")
    for k in (th.k_bar_1, th.k_bar_2):
        prof = scenario_profits(replace(PARAMS, k=k))
        print(f"  k={k:.6f}: harvest={prof.pi_s0:.6f} "
              f"defend={prof.pi_s1:.6f} dominate={prof.pi_s2:.6f}")
    print()

    header = f"{'k':>6} {'regime':<9} {'w1':>5} {'eta1':>7} {'Q1':>7} {'Q2':>8} {'revenue':>8}"
    print(header)
    print("-" * len(header))
    for i in range(14):
        k = km * i / 13.0
        eq = solve_baseline(replace(PARAMS, k=k))
        print(f"{k:6.3f} {eq.regime.value:<9} {eq.w1:5.2f} "
              f"{eq.eta1:7.4f} {eq.q1:7.4f} "
              f"{eq.q2:8.4f} {eq.incumbent_profit:8.4f}")

    print("\nReading the table:")
    print("- Weak flywheel: openness sits at the cap; period 2 goes to the entrant.")
    eq = solve_baseline(replace(PARAMS, k=0.5 * (th.k_bar_1 + th.k_bar_2)))
    caps = replace(PARAMS, k=0.5 * (th.k_bar_1 + th.k_bar_2))
    print(f"- Middle band: openness drops to the retention cap "
          f"eta_bar_high={eta_bar_high(caps):.4f} (low-fee cap would be "
          f"{eta_bar_low(caps):.4f}); the deployer stays.")
    print(f"  e.g. k={caps.k:.3f}: regime={eq.regime.value}, "
          f"eta1={eq.eta1:.4f}, period-2 winner={eq.winner2.value}")
    print("- Strong flywheel: the low fee up front buys retention at full-cap")
    print("  openness, and openness climbs back up while revenue keeps rising.")


if __name__ == "__main__":
    main()
