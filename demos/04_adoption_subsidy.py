#!/usr/bin/env python3
"""Pay deployers per unit of engagement and watch the incumbent respond.

A per-engagement subsidy s fattens the deployer's margin on either model,
which moves both regime breakpoints. On this parameter set both move
outward, and that shift is the whole story:

- in the band where the subsidy delays the harvest->defend switch, the
  incumbent stays maximally open at the high fee and every player gains;
- in the band where it delays the defend->dominate switch, the incumbent
  keeps the high fee where it would have cut price, efforts and total
  welfare fall, and part of the outlay is simply captured.

Run on the subsidized parameter set (low fee 0.8, s=0.5).
"""

from dataclasses import replace

from fmgame import (
    ModelParams,
    regime_thresholds,
    solve_subsidized,
    subsidy_comparison,
)

PARAMS = ModelParams(theta=5.0, c=1.0, w_high=2.5, w_low=0.8, eta_cap=1.5,
                     k=0.2, s=0.5)


def main() -> None:
    th0 = regime_thresholds(replace(PARAMS, s=0.0))
    th = regime_thresholds(PARAMS)
    print("Breakpoints without vs with the subsidy:")
    print(f"  harvest->defend:  {th0.k_bar_1:.6f} -> {th.k_bar_1:.6f}")
    print(f"  defend->dominate: {th0.k_bar_2:.6f} -> {th.k_bar_2:.6f}\n")

    probes = (
        0.5 * th0.k_bar_1,                      # harvest either way
        0.5 * (th0.k_bar_1 + th.k_bar_1),       # delayed defend: all win
        0.5 * (th0.k_bar_2 + th.k_bar_2),       # delayed dominate: capture
        PARAMS.k,                               # dominate either way
    )
    header = (f"{'k':>7} {'region':<17} {'d_deployer':>11} {'d_consumer':>11} "
              f"{'d_social':>9} {'spend':>7} {'net':>9}")
    print(header)
    print("-" * len(header))
    for k in probes:
        cmp = subsidy_comparison(replace(PARAMS, k=k))
        d = cmp.delta
        print(f"{k:7.4f} {cmp.region:<17} {d.deployer:11.4f} {d.consumer:11.4f} "
              f"{d.social:9.4f} {cmp.subsidy_spend:7.4f} {cmp.sw_net_of_spend:9.4f}")

    print("\nThe 'net' column is counterfactual social welfare minus the outlay:")
    print("even where the subsidy raises gross welfare, the transfer itself has")
    print("to come from somewhere, and in the capture band the program pays the")
    print("incumbent to keep its price high.\n")

    point = subsidy_comparison(PARAMS)
    eq = point.baseline_equilibrium
    print(f"At k={PARAMS.k}: baseline regime={eq.regime.value}, "
          f"subsidized regime={solve_subsidized(PARAMS).regime.value}")
    print(f"  subsidy spend={point.subsidy_spend:.6f}, "
          f"gross d_social={point.delta.social:.6f}")


if __name__ == "__main__":
    main()
