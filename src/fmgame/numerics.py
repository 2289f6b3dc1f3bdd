"""Small numeric utilities shared by the solvers and the brute-force oracle.

Only generic routines live here (golden-section maximization, bisection,
grid scans, and the element-wise choices that let one expression run on a
float or on an array); nothing in this module knows about the game.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_INVPHI_F = float(_INVPHI)


#: Bracket width at which the golden-section searches stop.
_GOLDEN_TOL = 1e-10

_EPS = 2.0 ** -52   # np.finfo(float).eps, folded at compile time


def golden_max_scalar(f, lo: float, hi: float) -> float:
    """Golden-section maximizer on plain floats (fast path for scalar work).

    Each step keeps the probe that lies inside the shrunken bracket, with its
    value, and places one new probe at the golden ratio of that bracket, so
    a step calls f once (Kiefer 1953). Pure comparison search bottoms out
    near sqrt(eps) argument accuracy, so the bracket midpoint gets a final
    parabolic polish at a spacing wide enough to resolve curvature above
    rounding noise.
    """
    a, b = float(lo), float(hi)
    width = b - a
    invphi, tol = _INVPHI_F, _GOLDEN_TOL
    x1 = b - invphi * width
    x2 = a + invphi * width
    f1, f2 = f(x1), f(x2)
    # Known defect: once the float spacing near the maximizer exceeds the
    # stopping width (a maximizer above 2**19, about 5.2e5) the bracket stops
    # shrinking and this loop never ends.
    while (b - a) > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    mid = 0.5 * (a + b)
    h = 1e-4 * width
    if h > 0.0 and lo + h <= mid <= hi - h:
        y1, y2, y3 = f(mid - h), f(mid), f(mid + h)
        den = y1 - 2.0 * y2 + y3
        if den < 0.0:
            step = 0.5 * h * (y1 - y3) / den
            xv = mid + max(-h, min(h, step))
            # Near the top the objective is flat to rounding, so demand no
            # strict improvement, just no real regression.
            if f(xv) >= y2 - 64.0 * _EPS * max(1.0, abs(y2)):
                return xv
    return mid


def golden_max(f, lo, hi):
    """Golden-section maximizer of a unimodal f on [lo, hi], vectorized.

    lo and hi may be scalars or equal-shape arrays; f must accept arrays of
    that shape. Every lane takes the same number of steps, set by the widest
    bracket. The final bracket midpoint is polished with a parabolic fit
    (same shape result).
    """
    lo, hi = (np.asarray(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    width = np.max(hi - lo) if lo.size else 0.0
    if width <= _GOLDEN_TOL:
        return (lo + hi) / 2.0
    # Both updates of a bracket [a, a + w] leave width d = w*INVPHI: keep
    # [a, a + d], or move to [a + e, a + w] with e = d*INVPHI, as w - e == d.
    # So every lane shrinks by INVPHI each step whichever end moves: keep
    # the lower end a and the step lengths d and e, and form b = a + w after
    # the loop. A NaN comparison keeps the lower end.
    a = lo
    d = (hi - lo) * _INVPHI
    n_iter = int(np.ceil(np.log(_GOLDEN_TOL / width) / np.log(_INVPHI))) + 1
    for _ in range(n_iter):
        e = d * _INVPHI
        x1 = a + e
        a = np.where(f(x1) < f(a + d), x1, a)
        d, e = e, d
    b = a + e
    mid = (a + b) / 2.0
    # Parabolic polish past the comparison-noise floor (see scalar variant).
    h = 1e-4 * (hi - lo)
    y1, y2, y3 = f(mid - h), f(mid), f(mid + h)
    den = y1 - 2.0 * y2 + y3
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(den < 0.0, 0.5 * h * (y1 - y3) / den, 0.0)
    step = np.clip(np.nan_to_num(step, nan=0.0), -h, h)
    xv = np.clip(mid + step, lo, hi)
    yv = f(xv)
    slack = 64.0 * _EPS * np.maximum(1.0, np.abs(y2))
    return np.where(yv >= y2 - slack, xv, mid)


def bisect_root(f, lo: float, hi: float, xtol: float = 1e-13) -> float:
    """Bisection root of a scalar f with a sign change on [lo, hi].

    Endpoints evaluating exactly to zero are accepted as roots. Stops at a
    bracket narrower than xtol, an absolute width (ROADMAP items 5 and 19).
    Raises ValueError when f(lo) and f(hi) share a strict sign.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < xtol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sign_change_brackets(f, grid) -> list[tuple[float, float]]:
    """Scan a monotone grid and collect [x_i, x_{i+1}] brackets where f changes sign.

    f is called once, on the whole grid as a float array, and must return
    the array of its values there; a division by zero or an invalid
    operation in that call raises FloatingPointError, as it raises on
    floats. An exact zero at a grid point is its own degenerate bracket.
    """
    xs = np.asarray(grid, dtype=float)
    with np.errstate(divide="raise", invalid="raise"):
        vals = np.broadcast_to(f(xs), xs.shape)
    zero = vals == 0.0
    positive = vals > 0
    starts = np.flatnonzero(zero[:-1] | (positive[:-1] != positive[1:]))
    x = xs.tolist()
    out = [(x[i], x[i] if zero[i] else x[i + 1]) for i in starts.tolist()]
    if zero[-1]:
        out.append((x[-1], x[-1]))
    return out


def largest_true(pred, lo: float, hi: float, cell=None) -> float:
    """Largest x in [lo, hi] with pred(x) true, given pred(lo) is true.

    Assumes pred flips at most once from true to false as x grows. Returns a
    point on the true side of the boundary, within 1e-12 of it, or within
    one float spacing where that is wider (x above 8192). An optional
    cell (a, b) inside [lo, hi] guesses where pred flips. Its ends are
    tested first; the bisection then takes the same steps as without the
    cell, but answers every point that those tests decide without calling
    pred, so a right guess leaves only the steps inside the cell.
    """
    yes, no = -np.inf, np.inf   # pred holds up to yes and fails from no on
    if cell is not None:
        a, b = cell
        if pred(b):
            yes = b
        elif pred(a):
            yes, no = a, b
        else:
            no = a

    def holds(x):
        return x <= yes or (x < no and pred(x))

    if holds(hi):
        return hi
    if not holds(lo):
        raise ValueError("pred(lo) must hold")
    while (hi - lo) > 1e-12:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break   # no float lies between lo and hi
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def select(cond, a, b):
    """``a if cond else b``, element by element when cond is an array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def smaller(a, b):
    """``min(a, b)``, element by element when either is an array."""
    return select(b < a, b, a)


def larger(a, b):
    """``max(a, b)``, element by element when either is an array."""
    return select(b > a, b, a)


def any_true(cond) -> bool:
    """Whether cond holds, at any element when it is an array."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


def first_where(cond, *values) -> tuple:
    """The values at the first element where cond holds, as Python scalars.

    Values that are not arrays are returned as they are, and so is every
    value when cond is not an array.
    """
    if not isinstance(cond, np.ndarray):
        return values
    i = int(np.argmax(cond))
    return tuple(v.tolist()[i] if isinstance(v, np.ndarray) else v for v in values)


def choose(index, options):
    """``options[index]``, element by element when index is an integer array.

    On arrays each option is a scalar or an array of the index's shape;
    enum members are kept as objects.
    """
    if not isinstance(index, np.ndarray):
        return options[index]
    return np.choose(index, [np.asarray(o, dtype=object if isinstance(o, Enum) else None)
                             for o in options])
