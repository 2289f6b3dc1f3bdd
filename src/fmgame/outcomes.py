"""Shared outcome value types.

These live apart from the closed-form solver so the brute-force oracle can
construct the same objects without importing any formula code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import Regime, Strategy, Winner


@dataclass(frozen=True)
class PeriodOutcome:
    """A period's realized effort, which is also its engagement."""

    effort: float


@dataclass(frozen=True)
class Equilibrium:
    """Subgame-perfect outcome of the two-period game, with its welfare entries."""

    regime: Regime
    strategy: Strategy
    period1: PeriodOutcome
    period2: PeriodOutcome
    winner2: Winner
    w2: float
    eta2: float
    eta2_tilde: float
    incumbent_profit: float   # also the dev1 welfare entry
    dev2: float
    deployer: float
    consumer: float
    subsidy_spend: float      # the outlay s * (Q1 + Q2)


@dataclass(frozen=True)
class IntegratedOutcome:
    """Two-period outcome of the merged developer-deployer firm."""

    eta1v: float
    eta2v: float
    q1v: float
    q2v: float
    profit: float
    consumer: float
    social: float
