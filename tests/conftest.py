import os
from pathlib import Path

import numpy as np
import pytest

import fmgame
from fmgame import ModelParams

# Reference point with a wide fee gap: all three regimes show up on a k-sweep.
SET_A = ModelParams(theta=5.0, c=1.0, w_high=2.5, w_low=0.5, eta_cap=1.5, k=0.2)

# Subsidized variant with a narrower fee gap.
SET_B = ModelParams(theta=5.0, c=1.0, w_high=2.5, w_low=0.8, eta_cap=1.5, k=0.2, s=0.5)

# Valid points where lo + (hi - lo) * i / n rounds past k_max at the last
# point of a k scan: the mandate's trap scan and the integration scan.
MANDATE_SCAN_OVERSHOOT = ModelParams(
    theta=5.941616415240375, c=2.3135745187744847, w_high=1.9023730795852418,
    w_low=1.2341558504073653, eta_cap=3.3014249931759463, k=0.14331187323680075)
INTEGRATION_SCAN_OVERSHOOT = ModelParams(
    theta=4.60114343008928, c=0.66908296106346, w_high=1.1738065480743618,
    w_low=1.172261311798686, eta_cap=4.987912075987402, k=0.00017599219294659602)

# validate()'s report where the retention margin is lost at k_max.
RETENTION = "retention threshold undefined: 2c - k (theta - w_low + s) <= 0"

# At k_max eta_cap / (1 + eta_cap) rounds to 1 and the retention margin
# 2c - k (theta - w_low) is lost, though it is positive at the point's own
# k: validate() checks it at k_max, so it rejects the point at every k, and
# so do the policy scans, which reach k_max.
RETENTION_LOST_AT_K_MAX = ModelParams(theta=5.0, c=1.0, w_high=2.5, w_low=0.5, eta_cap=1e16, k=0.1)

# Admitted, but its s = 0 twin, which every policy analysis plays, is not:
# the twin loses the retention margin at k_max.
TWIN_NOT_ADMITTED = ModelParams(
    theta=1.4284202199574675e-29, c=1.0088678280964032e+41, w_high=7.142101099787338e-30,
    w_low=3.673273463951495e-30, eta_cap=4.378453683584268e+70, k=0.0,
    s=3.214709301927186e-30)

# The baseline goes straight from harvest to dominate (no defend range): the
# mandate lowers social welfare on the whole binding range (SW gap +5.86 at
# its low end to +9.42 at k_max), so the trap scan finds no sign change.
HARVEST_TO_DOMINATE = ModelParams(
    theta=4.57628805724366, c=1.605753097823359, w_high=1.6029376739460552,
    w_low=0.22027977022845815, eta_cap=2.9987276235718907, k=0.552297844574712)

# The SW gap has no root on the binding range: it jumps from -669 to +120 at
# k_bar_2, where defend gives way to dominate, and the trap scan returns the
# bisected jump.
TRAP_AT_JUMP = ModelParams(
    theta=8.65019867731569, c=0.46933839094107427, w_high=3.796751558642358,
    w_low=0.910579393198743, eta_cap=1.312896890540933, k=0.0218)

# Subsidized points where the subsidy lowers the regime thresholds and tips
# the baseline regime inward: harvest to defend (social welfare falls by
# 122.8), harvest to dominate (falls by 125.2) and defend to dominate (rises
# by 123.7).
SUBSIDY_HARVEST_TO_DEFEND = ModelParams(
    theta=8.545742692236544, c=0.6663070646954797, w_high=1.4883064333360665,
    w_low=0.2994575882420953, eta_cap=0.6858103637000721, k=0.03218,
    s=0.13160949265562163)
SUBSIDY_HARVEST_TO_DOMINATE = ModelParams(
    theta=6.7283452551268255, c=2.3153112407351686, w_high=3.1405816262864765,
    w_low=0.7459586864879115, eta_cap=2.8475173222033106, k=0.38672002625454044,
    s=0.6924261169147244)
SUBSIDY_DEFEND_TO_DOMINATE = ModelParams(
    theta=5.269760412273154, c=1.2544414377993713, w_high=1.7079455080214827,
    w_low=0.5370468146296269, eta_cap=2.2142924842804126, k=0.30095228202198626,
    s=0.3612225880361752)


@pytest.fixture
def set_a():
    return SET_A


@pytest.fixture
def set_b():
    return SET_B


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def child_env() -> dict:
    """This environment for a child Python that imports fmgame from where
    this process did, installed or not."""
    path = [str(Path(fmgame.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
