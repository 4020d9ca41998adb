"""Certified signs of integer expressions from floats: a static filter.

Each float array here has a leading axis of two: values, and their
magnitudes.  A value stands for an exact integer expression, or for that
expression times a power of two; its magnitude is the same expression on
the absolute values of its inputs, with every subtraction made an
addition, evaluated on the same path.  The value of an expression that
takes at most N roundings from its inputs is then off by at most
gamma_N = N u / (1 - N u) times its magnitude (u = 2^-53; Higham,
"Accuracy and Stability of Numerical Algorithms", 3.1), so a value whose
size exceeds the bound has the exact sign (a static filter, Fortune &
Van Wyk 1996; Shewchuk 1997).  A magnitude that is exactly 0 certifies
an exact 0: a nonzero input's magnitude is raised to at least _FLOOR, so
no product of at most 16 input magnitudes underflows.  Signed products
may underflow; _TINY bounds what that can add, since every input is
scaled below 2 in size.  Each caller bounds its own N.

The hull's supporting-plane check and the diagram's face-pair filter
both use these helpers; the module imports nothing from the rest of the
package.
"""
from __future__ import annotations

from math import ldexp

import numpy as np

_FLOOR = 2.0 ** -30
_TINY = 2.0 ** -900


def _to_float(x: int, e: int) -> float:
    """x / 2^e within two roundings, for an int of any size."""
    s = max(x.bit_length() - 64, 0)
    return ldexp(float(x >> s), s - e)


def _bounded(rows, width: int, lift=0, scaled: bool = True) -> np.ndarray:
    """(2, len(rows), width) from integer rows: each entry x as a float
    x / 2^(e + l), and its magnitude (|x| so scaled, at least _FLOOR when
    x != 0).  l is the entry's column lift (an int or one per column); e
    is the row's own exponent, which brings its largest |x / 2^l| into
    [1/2, 2), or 0 when not `scaled`."""
    lift = np.broadcast_to(lift, (width,))
    try:
        val = np.array(rows, dtype=float).reshape(len(rows), width)
        nonzero = val != 0
        exps = np.frexp(val)[1] - lift
    except OverflowError:  # an entry past the float range
        val = None
        nonzero = np.array([[x != 0 for x in row] for row in rows],
                           dtype=bool).reshape(len(rows), width)
        exps = np.array([[x.bit_length() - 1 for x in row] for row in rows],
                        dtype=np.int64).reshape(len(rows), width) - lift
    shifts = np.broadcast_to(lift, (len(rows), width))
    if scaled:
        shifts = shifts + exps.max(axis=1, where=nonzero,
                                             initial=-(1 << 30))[:, None]
    if val is None:
        val = np.array([[_to_float(x, s) for x, s in zip(row, sh)]
                        for row, sh in zip(rows, shifts.tolist())],
                       dtype=float).reshape(len(rows), width)
    else:
        val = np.ldexp(val, -shifts)
    return np.stack([val, np.where(nonzero, np.maximum(abs(val), _FLOOR),
                                   0.0)])


def _certified_signs(x: np.ndarray, rounding: float) -> np.ndarray:
    """The sign of each value of x (values, magnitudes) as -1, 0 or 1 where
    the bound certifies it, NaN elsewhere."""
    val, mag = x
    return np.where(abs(val) > rounding * mag + _TINY, np.sign(val),
                    np.where(mag == 0, 0.0, np.nan))
