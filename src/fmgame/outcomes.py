"""Shared outcome value types.

These live apart from the closed-form solver so the brute-force oracle can
construct the same objects without importing any formula code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import Regime, Winner


@dataclass(frozen=True)
class Equilibrium:
    """Subgame-perfect outcome of the two-period game, with its welfare entries.

    regime: the incumbent's period-1 strategy
    w1, eta1: its period-1 fee and openness
    q1, q2: the deployer's effort (also its engagement) in periods 1 and 2
    winner2: the developer that serves period 2
    incumbent_profit (also dev1), dev2, deployer, consumer: the welfare entries
    w2, eta2, eta2_tilde: the period-2 fee and the incumbent's and entrant's openness
    subsidy_spend: the outlay s * (q1 + q2)

    w1 through consumer are closed_form._Row's fields, in its order.
    """

    regime: Regime
    w1: float
    eta1: float
    q1: float
    q2: float
    winner2: Winner
    incumbent_profit: float
    dev2: float
    deployer: float
    consumer: float
    w2: float
    eta2: float
    eta2_tilde: float
    subsidy_spend: float


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
