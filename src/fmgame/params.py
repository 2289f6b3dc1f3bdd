"""Model primitives and parameter admissibility.

The model is a two-period value chain for a fine-tunable foundation model.
An incumbent developer licenses its model to a downstream deployer at a
per-unit fee and chooses how much of the model to open up (weights, recipes,
checkpoints). Openness cuts the deployer's fine-tuning cost today but leaks
capability to a rival developer who shows up next period as a price follower.
Usage data collected in period 1 feeds back into the incumbent's period-2
model quality (the data flywheel), with strength ``k``.

``ModelParams`` carries everything the solvers need:

- ``theta``: deployer's per-engagement value of model quality,
- ``c``: fine-tuning cost scale,
- ``w_high`` / ``w_low``: the premium and follower per-unit fees,
- ``eta_cap``: the maximum feasible openness level,
- ``k``: data-flywheel strength,
- ``s``: per-unit government adoption subsidy paid to the deployer
  (zero in the baseline game).

Admissibility mirrors the model's maintained assumptions: fees ordered and
capped at half the quality value, subsidy no larger than the follower fee,
and ``k`` no larger than ``k_max``, the level at which a premium-fee
incumbent could win period 2 on flywheel strength alone. Numeric conditions
ride along, so that the closed forms can evaluate every admitted point: the
largest products and smallest denominators they build (among them those of
``k_bar_13`` and ``k_bar_23``, the dominate row's squared retention margin
near ``k_max`` and the integrated ``(1 + eta_cap) k``) stay well inside the
float range, and the retention margin ``2c - k (theta - w_low + s)`` is
positive at ``k = k_max``, which ``k_max`` loses to rounding only for huge
``eta_cap``. So a point is admitted at every ``k`` in ``[0, k_max]`` or at
none, and a scan over that range needs no validation of its own.

The primitives are written once here: the deployer's surplus, the stay and
switch cost denominators of period 2 and consumer surplus. The period-1
denominator ``1 + eta1`` and fee revenue ``w Q`` are one operation each and
stay inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Regime(str, Enum):
    """Which period-1 strategy the incumbent commits to in equilibrium."""

    HARVEST = "harvest"      # premium fee, full openness, concede period 2
    DEFEND = "defend"        # premium fee, openness capped to keep the deployer
    DOMINATE = "dominate"    # follower fee, openness capped, keep the deployer


class Winner(str, Enum):
    """Period-2 developer chosen by the deployer."""

    INCUMBENT = "incumbent"
    ENTRANT = "entrant"


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter bundle for one game instance.

    The public solvers take float fields. The validation-free cores
    (closed_form._solve and those built on it) also take k or s, not both,
    as a float array: a grid of admitted instances.
    """

    theta: float
    c: float
    w_high: float
    w_low: float
    eta_cap: float
    k: float
    s: float = 0.0


@dataclass(frozen=True)
class Strategy:
    """Incumbent period-1 choice: fee (one of the two admissible fees) and openness."""

    w1: float
    eta1: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of parameter validation; never raises, lists violations by name."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidParams(ValueError):
    """Raised by solvers when handed params that fail validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("invalid parameters: " + "; ".join(report.violations))

    def __reduce__(self):
        # Rebuilt from its report, not from args (the message), so that it
        # survives pickling, as over the pipe from a verify child process to
        # its parent.
        return type(self), (self.report,)


# The primitives (module docstring): unvalidated arithmetic on floats or
# arrays alike. Their callers' bits rest on each one's operation order.

def deployer_surplus(m, q, c, d):
    """The deployer's surplus m Q - c Q^2 / D at margin m, effort Q and cost denominator D."""
    return m * q - c * q * q / d


def stay_denominator(k, q1, eta2):
    """Cost denominator of staying with the incumbent: (1 + k Q1)(1 + eta2), the flywheel."""
    return (1.0 + k * q1) * (1.0 + eta2)


def switch_denominator(eta1, eta2_tilde):
    """Cost denominator of switching to the entrant: (1 + eta1)(1 + eta2~), the spillover."""
    return (1.0 + eta1) * (1.0 + eta2_tilde)


def consumer_surplus(q1, q2):
    """End users' surplus over both periods, (Q1^2 + Q2^2) / 2."""
    return 0.5 * (q1 * q1 + q2 * q2)


def k_max(params: ModelParams) -> float:
    """Upper admissibility bound on the flywheel strength ``k``.

    Two forces cap ``k``.  First, at full openness the capped follower-fee
    strategy must not overshoot the openness cap (else the incumbent would
    want negative openness adjustments).  Second, a premium-fee incumbent
    must not be able to retain the deployer purely on flywheel strength, or
    the entrant never matters.  The bound is the min of the two expressions.

    Raises ValueError when theta - w_high + s <= 0 (no positive premium
    margin, the bound is meaningless there).
    """
    t = params.theta + params.s
    m_high = t - params.w_high
    m_low = t - params.w_low
    if m_high <= 0:
        raise ValueError(
            "k_max undefined: theta - w_high + s must be positive, got %g" % m_high
        )
    c2 = 2.0 * params.c
    cap_arg = c2 * params.eta_cap / ((1.0 + params.eta_cap) * m_low)
    entry_arg = (
        c2 * (2.0 * t - params.w_high - params.w_low)
        * (params.w_high - params.w_low)
        / (m_high * m_high * m_low)
    )
    return min(cap_arg, entry_arg)


#: The seven parameters, in the order that configs and reports list them.
_FIELDS = ("theta", "c", "w_high", "w_low", "eta_cap", "k", "s")
_LOG_1E300 = 300.0 * math.log(10.0)


def _products_in_range(params: ModelParams) -> bool:
    # The largest products and smallest denominators the closed forms build,
    # as logs so that the check cannot overflow itself, with t = theta + s;
    # every margin lies between t/3 and t. In order: t**3, alone and times
    # 1 + eta_cap (k_max, k_bar_13); c t**2 (k_max); c**2 and (1 + eta_cap)**4
    # t**2, alone and over c**2 (_row's consumer rows); (1 + eta_cap)**2 c t**2
    # (integrated profit); (c / (1 + eta_cap))**2 (d_l**2 at k_max);
    # (1 + eta_cap) c / t (integrated (1 + eta_cap) k); for w_high > 0,
    # (1 + eta_cap) t**2 w_high and (1 + eta_cap) t w_high (k_bar_13, k_bar_23).
    # Each must lie in 1e-300..1e300, room for constants and sums.
    lt = math.log(params.theta + params.s)
    lc = math.log(params.c)
    le = math.log1p(params.eta_cap)
    logs = [3.0 * lt, 3.0 * lt + le, lc + 2.0 * lt, 2.0 * lc,
            4.0 * le + 2.0 * lt, 4.0 * le + 2.0 * (lt - lc), 2.0 * le + lc + 2.0 * lt,
            2.0 * (lc - le), le + lc - lt]
    if params.w_high > 0.0:
        lw = math.log(params.w_high)
        logs += [le + 2.0 * lt + lw, le + lt + lw]
    return -_LOG_1E300 <= min(logs) and max(logs) <= _LOG_1E300


def validate(params: ModelParams) -> ValidationReport:
    """Check every admissibility condition; collect violations, never raise."""
    v: list[str] = []
    for name in _FIELDS:
        if not math.isfinite(getattr(params, name)):
            v.append(f"{name} is not finite")
    if v:
        return ValidationReport(tuple(v))

    if params.theta <= 0:
        v.append("theta must be positive")
    if params.c <= 0:
        v.append("c must be positive")
    if params.eta_cap <= 0:
        v.append("eta_cap must be positive")
    if params.k < 0:
        v.append("k must be non-negative")
    if params.w_low < 0:
        v.append("w_low is negative")
    if params.w_low > params.w_high:
        v.append("w_low exceeds w_high")
    if params.w_high > params.theta / 2.0:
        v.append("w_high exceeds theta/2")
    if params.s < 0:
        v.append("s is negative")
    elif params.s > params.w_low:
        v.append("s exceeds w_low")

    # The k bound only makes sense once the structural conditions hold, and
    # k_max is one of the products checked first.
    if not v and not _products_in_range(params):
        v.append("magnitudes overflow or underflow the closed forms")
    if not v:
        km = k_max(params)
        if params.k > km:
            v.append("k exceeds k_max")
        # At k_max, so at every k <= k_max too (rounding is monotone). Lost
        # only where eta_cap / (1 + eta_cap) rounds to 1 in k_max's cap bound.
        elif 2.0 * params.c - km * (params.theta + params.s - params.w_low) <= 0.0:
            v.append("retention threshold undefined: 2c - k (theta - w_low + s) <= 0")
    return ValidationReport(tuple(v))


def require_valid(params: ModelParams) -> None:
    """Raise InvalidParams when validation reports any violation."""
    report = validate(params)
    if not report.ok:
        raise InvalidParams(report)
