"""High-precision references for the tests: sin, cos, sinc, sqrt and pi in stdlib decimal.

Each function takes a float, an int or a Decimal, converts it exactly, and
returns a Decimal rounded to DIGITS significant digits; work inside a
`with reference.context():` block to keep the arithmetic that follows at
that precision too.  sin and cos reduce their argument by a multiple of pi
held to as many digits as the argument needs, so they are as accurate at
1e20 as at 1.
"""

import functools
from decimal import Decimal, getcontext, localcontext

DIGITS = 60
# digits carried beyond DIGITS inside a function, against its own rounding
_GUARD = 15


def context():
    """A decimal context of DIGITS significant digits, as a context manager."""
    ctx = getcontext().copy()
    ctx.prec = DIGITS
    return localcontext(ctx)


@functools.lru_cache(maxsize=None)
def _pi(prec):
    """pi to prec digits, by the series in the decimal module's documentation."""
    with localcontext() as ctx:
        ctx.prec = prec + 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        ctx.prec = prec
        return +s


PI = _pi(DIGITS)


def _series(first, x2, step):
    """first - first x2/step(1) + first x2^2/(step(1) step(2)) - ..., to rounding."""
    term = total = first
    k = 1
    while term:
        term = -term * x2 / step(k)
        new = total + term
        if new == total:
            break
        total = new
        k += 1
    return total


def _reduced(x):
    """(y, sign) with sin(x) = sign sin(y), cos(x) = sign cos(y) and |y| <= pi/2."""
    prec = DIGITS + _GUARD + max(0, x.adjusted())
    pi = _pi(prec)
    with localcontext() as ctx:
        ctx.prec = prec
        k = (x / pi).to_integral_value()
        return x - k * pi, (-1 if k % 2 else 1)


def sin(x):
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        y, sign = _reduced(Decimal(x))
        value = sign * _series(y, y * y, lambda k: (2 * k) * (2 * k + 1))
    with context():
        return +value


def cos(x):
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        y, sign = _reduced(Decimal(x))
        value = sign * _series(Decimal(1), y * y, lambda k: (2 * k - 1) * (2 * k))
    with context():
        return +value


def sinc(x):
    """sin(x)/x, 1 at x = 0."""
    x = Decimal(x)
    if not x:
        return Decimal(1)
    with context():
        return sin(x) / x


def sqrt(x):
    with context():
        return Decimal(x).sqrt()
