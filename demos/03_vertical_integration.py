#!/usr/bin/env python3
"""Merge the incumbent with the deployer and see who gains.

Integration dissolves the internal fee and the secrecy motive: the merged
firm runs maximum openness in both periods, forecloses the entrant, and
picks efforts that internalize the flywheel (period-1 effort includes a
forward term because today's engagement cheapens tomorrow's).

Two numerically located thresholds split the flywheel axis into three
regions: below the first, integration destroys even the merging parties'
joint profit; between them, the chain gains while consumers lose; above
the second, both gain.
"""

from dataclasses import replace

from fmgame import (
    ModelParams,
    integration_comparison,
    integration_thresholds,
    k_max,
    solve_baseline,
    solve_integrated,
    welfare_for_equilibrium,
)

PARAMS = ModelParams(theta=5.0, c=1.0, w_high=2.5, w_low=0.5, eta_cap=1.5, k=0.0)


def main() -> None:
    p = replace(PARAMS, k=0.2)
    v = solve_integrated(p)
    eq = solve_baseline(p)
    w = welfare_for_equilibrium(p, eq)
    print("At k=0.2:")
    print(f"  separate firms: Q1={eq.q1:.4f}, Q2={eq.q2:.4f}, "
          f"chain profit={w.dev1 + w.deployer:.4f}")
    print(f"  merged firm:    Q1={v.q1v:.4f}, Q2={v.q2v:.4f}, "
          f"profit={v.profit:.4f}")
    print("  The merged firm works harder in period 1 than any separate-firm")
    print("  outcome because it collects the flywheel payoff itself.\n")

    th = integration_thresholds(PARAMS)
    km = k_max(PARAMS)
    print(f"Chain profit breaks even at    k = {th.chain.value:.6f} ({th.chain.status})")
    print(f"Consumer surplus breaks even at k = {th.consumer.value:.6f} ({th.consumer.status})")
    print(f"Social welfare breaks even at  k = {th.social.value:.6f} ({th.social.status})\n")

    header = (f"{'k':>6} {'region':<10} {'d_chain':>9} {'d_consumer':>11} "
              f"{'d_social':>9} {'entrant':>8}")
    print(header)
    print("-" * len(header))
    for lo, hi in ((0.0, th.chain.value),
                   (th.chain.value, th.consumer.value),
                   (th.consumer.value, km)):
        for frac in (0.2, 0.5, 0.8):
            k = lo + (hi - lo) * frac
            cmp = integration_comparison(replace(PARAMS, k=k))
            d_chain = (cmp.counterfactual.dev1 + cmp.counterfactual.deployer
                       - cmp.baseline.dev1 - cmp.baseline.deployer)
            print(f"{k:6.3f} {cmp.region:<10} {d_chain:9.4f} "
                  f"{cmp.delta.consumer:11.4f} {cmp.delta.social:9.4f} "
                  f"{cmp.counterfactual.dev2:8.4f}")

    print("\nThe entrant column is identically zero: the merger forecloses it.")
    print("Consumers only come out ahead once the flywheel is strong enough that")
    print("the internalized effort boost outweighs the lost second-period rivalry.")


if __name__ == "__main__":
    main()
