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


def golden_max_scalar(f, lo: float, hi: float) -> float:
    """Golden-section maximizer on plain floats (fast path for scalar work).

    Pure comparison search bottoms out near sqrt(eps) argument accuracy, so
    the bracket midpoint gets a final parabolic polish at a spacing wide
    enough to resolve curvature above rounding noise.
    """
    a, b = float(lo), float(hi)
    width = b - a
    # Known defect: once the float spacing near the maximizer exceeds the
    # stopping width (a maximizer above 2**19, about 5.2e5) the bracket stops
    # shrinking and this loop never ends.
    while (b - a) > _GOLDEN_TOL:
        d = _INVPHI_F * (b - a)
        x1 = b - d
        x2 = a + d
        if f(x1) >= f(x2):
            b = x2
        else:
            a = x1
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
            if f(xv) >= y2 - 64.0 * np.finfo(float).eps * max(1.0, abs(y2)):
                return xv
    return mid


def golden_max(f, lo, hi):
    """Golden-section maximizer of a unimodal f on [lo, hi], vectorized.

    lo and hi may be scalars or equal-shape arrays; f must accept arrays of
    that shape. The probe arrays passed to f are buffers reused across
    iterations, so f must neither keep nor mutate its argument. The final
    bracket midpoint is polished with a parabolic fit (same shape result).
    """
    a, b = (np.array(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    width = np.max(b - a) if a.size else 0.0
    if width <= _GOLDEN_TOL:
        return (a + b) / 2.0
    # Shrink every lane each iteration and recompute both probes. Which end
    # moves is a coin flip per lane, which makes np.where slow; arithmetic on
    # a 0/1 float mask selects exactly, as x*1 + y*0 == x for finite x and y
    # (a -0.0 bound may come back as +0.0), so brackets must be finite.
    # Every step writes into preallocated buffers; `>=` casts its bool result
    # straight into the float mask.
    a0, b0 = a.copy(), b.copy()
    d, x1, x2, s, r = (np.empty_like(a) for _ in range(5))
    n_iter = int(np.ceil(np.log(_GOLDEN_TOL / width) / np.log(_INVPHI))) + 1
    for _ in range(n_iter):
        np.multiply(np.subtract(b, a, out=d), _INVPHI, out=d)
        np.subtract(b, d, out=x1)
        np.add(a, d, out=x2)
        np.greater_equal(f(x1), f(x2), out=s)
        np.subtract(1.0, s, out=r)
        np.add(np.multiply(x2, s, out=x2), np.multiply(b, r, out=b), out=b)
        np.add(np.multiply(a, s, out=a), np.multiply(x1, r, out=x1), out=a)
    mid = (a + b) / 2.0
    # Parabolic polish past the comparison-noise floor (see scalar variant).
    h = 1e-4 * (b0 - a0)
    y1, y2, y3 = f(mid - h), f(mid), f(mid + h)
    den = y1 - 2.0 * y2 + y3
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(den < 0.0, 0.5 * h * (y1 - y3) / den, 0.0)
    step = np.clip(np.nan_to_num(step, nan=0.0), -h, h)
    xv = np.clip(mid + step, a0, b0)
    yv = f(xv)
    slack = 64.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(y2))
    return np.where(yv >= y2 - slack, xv, mid)


def bisect_root(f, lo: float, hi: float, xtol: float = 1e-13) -> float:
    """Bisection root of a scalar f with a sign change on [lo, hi].

    Endpoints evaluating exactly to zero are accepted as roots. Raises
    ValueError when f(lo) and f(hi) share a strict sign.
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


def scan_and_bisect(f, grid) -> float | None:
    """Scan a grid for sign changes of f and bisect the last bracket.

    f takes the whole grid as an array for the scan (sign_change_brackets)
    and a float at each bisection step. Returns None when f never changes
    sign on the grid; an exact zero at a grid point is returned as is.
    """
    brackets = sign_change_brackets(f, grid)
    if not brackets:
        return None
    lo, hi = brackets[-1]
    return lo if lo == hi else bisect_root(f, lo, hi)


def largest_true(pred, lo: float, hi: float, cell=None) -> float:
    """Largest x in [lo, hi] with pred(x) true, given pred(lo) is true.

    Assumes pred flips at most once from true to false as x grows. Returns a
    point on the true side of the boundary, within 1e-12 of it. An optional
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
    less = b < a
    if isinstance(less, np.ndarray):
        return np.where(less, b, a)
    return b if less else a


def larger(a, b):
    """``max(a, b)``, element by element when either is an array."""
    more = b > a
    if isinstance(more, np.ndarray):
        return np.where(more, b, a)
    return b if more else a


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
