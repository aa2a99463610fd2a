"""Exact truncated Laurent/power series over the rationals.

The basic carrier is :class:`PowerSeries`: a finite window of a Laurent
series sum c_n x^n with n running from ``val`` up to (but not including)
``order``; exponents >= ``order`` are unknown and must never be read.
:class:`LogSeries` layers a polynomial-in-log(x) structure on top of it.
LogSeries also carries polynomials in t = log q with q-series
coefficients: a LogSeries in q whose part k holds k! [t^k].

All coefficients are arbitrary-precision rationals, always kept in lowest
terms with positive denominator, so integrality checks reduce to
``denominator == 1``. The coefficient type is ``fractions.Fraction``.
One integer short product, ``_convolve``, convolves numerators over one
common denominator per operand; products build each result coefficient
once, so the rational type normalises only once per output coefficient.
Composition is Paterson-Stockmeyer evaluation on the same integer
windows, about 2 sqrt(N) short products at order N, with the rationals
built once for the result. Inverse, exponential and reversion are one
Newton iteration, ``_newton``, each naming its residual and factor; a
step writes its correction after the known coefficients. None keeps a
coefficient recurrence of its own.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from math import comb, isqrt, lcm
from operator import methodcaller

#: Sentinel truncation order for series that are known exactly (e.g. the
#: implicit zero parts of a LogSeries).
BIG_ORDER = 1 << 30

ZERO = Q(0)
ONE = Q(1)


class TruncationError(Exception):
    """A coefficient beyond the known truncation order was requested."""


class VariableMismatch(Exception):
    """Arithmetic between series in different formal variables."""


def rat(x) -> Q:
    """Coerce ints, strings like '3/4', and rationals to the coefficient type."""
    if isinstance(x, Q):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float to exact rational")
    return Q(x)


def _integer_window(coeffs):
    """Integer numerators of ``coeffs`` over their least common denominator."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _dense_window(s):
    """``_integer_window`` of a series with val >= 0, indexed by exponent."""
    if not s.coeffs:
        return [], 1
    nums, d = _integer_window(s.coeffs)
    return [0] * s.val + nums, d


def _newton_orders(n, lag=0):
    """The precisions a Newton iteration steps through to reach n, when a
    step from precision k reaches 2k - lag: ceil((n + lag) / 2) below each,
    down to the start at 1 + lag. Only the last step runs at nearly full
    size: 33 is reached by 2, 3, 5, 9, 17, 33, where doubling would take
    2, 4, ..., 32, 33."""
    orders = []
    while n > 1 + lag:
        orders.append(n)
        n = (n + 1 + lag) // 2
    return orders[::-1]


def _newton(g, n, residual, factor, lag=0):
    """Newton iteration g <- g - residual(g) factor(g), through the
    precisions of ``_newton_orders(n, lag)``. At precision k, with g known
    below k0, the residual is read from x^k0 on, and the correction is
    written after g's known coefficients."""
    for k in _newton_orders(n, lag):
        k0 = g.order
        g = PowerSeries(g.var, g.val, g.coeffs, k)
        r = residual(g)
        r = PowerSeries(g.var, max(k0, r.val), r.coeffs[max(k0 - r.val, 0):],
                        r.order)
        step = r * factor(g)
        g = PowerSeries(g.var, g.val, g.coeffs
                        + (ZERO,) * (k0 - g.val - len(g.coeffs))
                        + tuple(-step.coeff(i) for i in range(k0, k)), k)
    return g


def _convolve(a, b, n):
    """The coefficients below x^n of the product of integer lists a and b
    (index = exponent), at most as many as the product has. A square
    (``b is a``) forms each cross product once."""
    n = max(min(n, len(a) + len(b) - 1), 0) if a and b else 0
    out = [0] * n
    if b is a:
        for i, x in enumerate(a[:(n + 1) // 2]):
            if x:
                out[2 * i] += x * x
                x += x
                for j, y in enumerate(a[i + 1:n - i], 2 * i + 1):
                    if y:
                        out[j] += x * y
        return out
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                if y:
                    out[j] += x * y
    return out


def _paterson_stockmeyer(c, b, d, v, n):
    """Integer numerators, and their denominator, of sum_k c[k] (b/d)^k
    below x^n; b is a dense integer window of valuation v >= 1.

    The K coefficients are cut into blocks of m = isqrt(K). Each block is
    an integer combination of the baby steps b^0 .. b^(m-1), and Horner's
    rule runs over the blocks in the giant step b^m. The block at
    ``start`` is later multiplied by b^start, of valuation start v, so it
    and its Horner product are cut below x^(n - start v). Every power
    keeps the denominator d^k, so block and total stay integer windows.
    """
    m = max(1, isqrt(len(c)))
    powers = [[1], b]
    while len(powers) <= m:
        k = len(powers)
        half = powers[k // 2]
        powers.append(_convolve(half, half, n) if k % 2 == 0
                      else _convolve(powers[-1], b, n))
    giant = powers.pop()
    longest = max(map(len, powers))
    blocks = range(0, len(c), m)
    total = []   # over d^(m - 1 + m e) after e Horner steps
    for e, start in enumerate(reversed(blocks)):
        cut = max(n - start * v, 0)
        total = _convolve(giant, total, cut)
        total += [0] * (min(cut, longest) - len(total))
        for i, ck in enumerate(c[start:start + m]):
            if ck:
                ck *= d ** (m - 1 - i + m * e)
                for j, x in enumerate(powers[i][:cut]):
                    total[j] += ck * x
    return total, d ** (m * len(blocks) - 1)


class PowerSeries:
    __slots__ = ("var", "val", "coeffs", "order")

    def __init__(self, var, val, coeffs, order):
        if order > BIG_ORDER >> 1:  # exact stays exact under shifts
            order = BIG_ORDER
        cs = [rat(c) for c in coeffs]
        if val + len(cs) > order:
            cs = cs[: max(order - val, 0)]
        lo = 0
        while lo < len(cs) and cs[lo] == 0:
            lo += 1
        val += lo
        cs = cs[lo:]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            val = order
        self.var = var
        self.val = val
        self.coeffs = tuple(cs)
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var, order=BIG_ORDER):
        return cls(var, order, (), order)

    @classmethod
    def one(cls, var, order=BIG_ORDER):
        return cls(var, 0, (ONE,), order)

    @classmethod
    def identity(cls, var, order=BIG_ORDER):
        return cls(var, 1, (ONE,), order)

    @classmethod
    def monomial(cls, var, exponent, coefficient=1, order=BIG_ORDER):
        return cls(var, exponent, (rat(coefficient),), order)

    # -- inspection --------------------------------------------------------

    def coeff(self, n):
        """Exact coefficient of x^n; raises past the truncation order."""
        if n >= self.order:
            raise TruncationError(
                f"coefficient of {self.var}^{n} unknown (order {self.order})")
        if n < self.val or n >= self.val + len(self.coeffs):
            return ZERO
        return self.coeffs[n - self.val]

    def known_coeffs(self):
        """Iterate (exponent, coefficient) over the stored support."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.val + i, c

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        """Equality on the common known window: the difference is zero."""
        if not isinstance(other, (int, Q, PowerSeries)):
            return NotImplemented
        if isinstance(other, PowerSeries) and self.var != other.var:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        terms = []
        for n, c in self.known_coeffs():
            terms.append(f"{c}*{self.var}^{n}")
            if len(terms) >= 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O({self.var}^{self.order})>"

    # -- ring operations ---------------------------------------------------

    def _check_var(self, other):
        if self.var != other.var:
            raise VariableMismatch(f"{self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, (int, Q)):
            other = PowerSeries(self.var, 0, (rat(other),), BIG_ORDER)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_var(other)
        order = min(self.order, other.order)
        val = min(self.val, other.val)
        ends = [s.val + len(s.coeffs) for s in (self, other) if s.coeffs]
        hi = min(order, max(ends, default=val))
        # a ZERO slot takes the coefficient itself: only shared exponents add
        cs = [ZERO] * (hi - val)
        for s in (self, other):
            for n, c in enumerate(s.coeffs[:max(hi - s.val, 0)], s.val - val):
                cs[n] = c if cs[n] is ZERO else cs[n] + c
        return PowerSeries(self.var, val, cs, order)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(self.var, self.val, [-c for c in self.coeffs],
                           self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -rat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            c = rat(other)
            if c == 0:
                return PowerSeries.zero(self.var, self.order)
            return PowerSeries(self.var, self.val,
                               [c * a for a in self.coeffs], self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_var(other)
        order = min(self.order + other.val, other.order + self.val)
        val = self.val + other.val
        n = order - val
        a, da = _integer_window(self.coeffs[:n])
        b, db = (a, da) if other is self else _integer_window(other.coeffs[:n])
        return PowerSeries(self.var, val,
                           [Q(c, da * db) for c in _convolve(a, b, n)], order)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; the lowest known coefficient must be nonzero.

        ``_newton`` on u = self / x^val with residual u w and factor w:
        w <- w - (u w - 1) w, at most doubling the precision up to
        order - val. The constant 1 falls below the old precision.
        An exact monomial c x^v has the exact inverse x^(-v) / c; any other
        exact series has none.
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverse of a zero-to-order series")
        if len(self.coeffs) == 1 and self.order >= BIG_ORDER:
            return PowerSeries(self.var, -self.val, (1 / self.coeffs[0],),
                               BIG_ORDER)
        self._require_finite("inverse")
        u = self.shift(-self.val)
        w = PowerSeries(self.var, 0, (1 / u.coeffs[0],), 1)
        return _newton(w, u.order, lambda w: u.truncate(w.order) * w,
                       lambda w: w).shift(-self.val)

    def __truediv__(self, other):
        if isinstance(other, (int, Q)):
            return self * (1 / rat(other))
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = PowerSeries.one(self.var, self.order - self.val)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, order):
        if order >= self.order:
            return self
        return PowerSeries(self.var, self.val, self.coeffs, order)

    def known_to(self, order):
        """Truncate to exactly ``order``; raises TruncationError if the
        series is known to fewer terms."""
        if self.order < order:
            raise TruncationError(
                f"series in {self.var} only known to order {self.order}, "
                f"requested {order}")
        return self.truncate(order)

    def _require_finite(self, op):
        if self.order >= BIG_ORDER:
            raise ValueError(f"{op} needs a series with a finite order")

    def shift(self, m):
        """Multiply by x^m (exact)."""
        if m == 0:
            return self
        return PowerSeries(self.var, self.val + m, self.coeffs, self.order + m)

    def relabel(self, var):
        return PowerSeries(var, self.val, self.coeffs, self.order)

    # -- derivations -------------------------------------------------------

    def euler(self, repeat=1):
        """Apply the Euler derivation x d/dx ``repeat`` times."""
        cs = [rat(self.val + i) ** repeat * c for i, c in enumerate(self.coeffs)]
        return PowerSeries(self.var, self.val, cs, self.order)

    def deriv(self):
        """Plain d/dx = x^-1 (x d/dx); the truncation order drops by one."""
        return self.euler().shift(-1)

    # -- composition, reversion, exp/log ----------------------------------

    def compose(self, inner):
        """self(inner); inner must have valuation >= 1.

        A Laurent self is p(inner) * inner^val with p = self / x^val; inner
        is cut to the order that keeps p(inner)'s, so an exact inner works.

        Paterson-Stockmeyer evaluation (M. S. Paterson and L. J. Stockmeyer,
        SIAM J. Comput. 2 (1973) 60-66) on integer windows over one
        denominator, ``_paterson_stockmeyer``: about 2 sqrt(K) short
        products for K outer coefficients, and the result's rationals are
        built once.
        """
        v = inner.val  # a zero inner's val is its order
        if v < 1:
            raise ValueError("composition requires inner valuation >= 1")
        if self.coeffs and self.val < 0:
            p = self.shift(-self.val).compose(inner)
            return p * inner.truncate(p.order + v) ** self.val
        # unknown terms start at x^order; a term c_k x^k with k != 0 is
        # known to inner.order + (k - 1) v, so the lowest such k bounds N
        bounds = [self.order * v]
        k = next((n for n, _ in self.known_coeffs() if n), None)
        if k is not None:
            bounds.append(inner.order + (k - 1) * v)
        N = min(bounds)
        if not self.coeffs:
            return PowerSeries.zero(inner.var, N)
        # no coefficient below x^N reads an unknown one of inner, so inner
        # may be read as known, padded with zeros, up to N
        c, dc = _dense_window(self)
        b, d = _dense_window(inner.truncate(N))
        total, dt = _paterson_stockmeyer(c, b, d, v, N)
        return PowerSeries(inner.var, 0, [Q(x, dc * dt) for x in total], N)

    def revert(self, new_var="q"):
        """Compositional inverse of a series with valuation exactly 1.

        Newton iteration through ``compose`` (R. P. Brent and H. T. Kung,
        J. ACM 25 (1978) 581-595): ``_newton`` with residual self(g) and
        factor g', g <- g - (self(g) - q) g'; the q term falls below the
        old precision. The iterate's own derivative stands in for
        1 / self'(g), so a step from precision k reaches 2k - 1 (lag 1),
        and the last step, one composition at full order, costs most.
        """
        if self.val != 1:
            raise ValueError("reversion requires valuation exactly 1")
        self._require_finite("revert")
        g = PowerSeries(new_var, 1, (1 / self.coeffs[0],), 2)
        return _newton(g, self.order,
                       lambda g: self.truncate(g.order).compose(g),
                       PowerSeries.deriv, lag=1)

    def exp(self):
        """Series exponential; requires valuation >= 1.

        ``_newton`` with residual log e - self and factor e:
        e <- e - (log e - self) e, at most doubling the precision up to
        the order.
        """
        if not self.is_zero() and self.val < 1:
            raise ValueError("exp requires zero constant term")
        self._require_finite("exp")
        e = PowerSeries.one(self.var, min(self.order, 1))
        return _newton(e, self.order,
                       lambda e: e.log() - self.truncate(e.order),
                       lambda e: e)

    def log(self):
        """Series logarithm; requires constant term 1."""
        if self.val != 0 or self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        return (self.euler() / self)._euler_integral()

    def _euler_integral(self):
        """The series F with F.euler() == self; self has no constant term."""
        cs = [c / (self.val + i) for i, c in enumerate(self.coeffs)]
        return PowerSeries(self.var, self.val, cs, self.order)


class LogSeries:
    """Sum over j of parts[j](x) * log(x)^j / j!.

    The 1/j! normalisation makes the Euler derivation act triangularly:
    delta(p * log^j/j!) = (delta p) * log^j/j! + p * log^{j-1}/(j-1)!.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("LogSeries needs at least one part")
        var = parts[0].var
        for p in parts:
            if p.var != var:
                raise VariableMismatch("mixed variables in LogSeries parts")
        while len(parts) > 1 and parts[-1].is_zero() \
                and parts[-1].order >= BIG_ORDER:
            parts.pop()
        self.parts = tuple(parts)

    @classmethod
    def from_power(cls, p):
        return cls((p,))

    @property
    def var(self):
        return self.parts[0].var

    @property
    def log_degree(self):
        return len(self.parts) - 1

    @property
    def order(self):
        return min(p.order for p in self.parts)

    def part(self, j):
        if j < len(self.parts):
            return self.parts[j]
        return PowerSeries.zero(self.var, BIG_ORDER)

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def power_part(self):
        """The log-free content; raises if any log part survives to order."""
        for p in self.parts[1:]:
            if not p.is_zero():
                raise ValueError("series carries genuine log terms")
        return self.parts[0]

    def __eq__(self, other):
        if isinstance(other, PowerSeries):
            other = LogSeries.from_power(other)
        if not isinstance(other, LogSeries):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        inner = ", ".join(repr(p) for p in self.parts)
        return f"LogSeries[{inner}]"

    def __add__(self, other):
        if isinstance(other, (int, Q, PowerSeries)):
            other = LogSeries.from_power(
                other if isinstance(other, PowerSeries)
                else PowerSeries(self.var, 0, (rat(other),), BIG_ORDER))
        d = max(len(self.parts), len(other.parts))
        return LogSeries([self.part(j) + other.part(j) for j in range(d)])

    __radd__ = __add__

    def __neg__(self):
        return LogSeries([-p for p in self.parts])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Q, PowerSeries)):
            return LogSeries([p * other for p in self.parts])
        if not isinstance(other, LogSeries):
            return NotImplemented
        d = self.log_degree + other.log_degree
        acc = [PowerSeries.zero(self.var, BIG_ORDER) for _ in range(d + 1)]
        for a, pa in enumerate(self.parts):
            if pa.is_zero() and pa.order >= BIG_ORDER:
                continue
            for b, pb in enumerate(other.parts):
                acc[a + b] = acc[a + b] + comb(a + b, a) * (pa * pb)
        return LogSeries(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Q)):
            return self * (1 / rat(other))
        if isinstance(other, LogSeries):
            other = other.power_part()
        inv = other.inverse()
        return LogSeries([p * inv for p in self.parts])

    def truncate(self, order):
        return LogSeries([p.truncate(order) for p in self.parts])

    def euler(self, repeat=1):
        cur = self
        for _ in range(repeat):
            parts = [cur.part(j).euler() + cur.part(j + 1)
                     for j in range(len(cur.parts))]
            cur = LogSeries(parts)
        return cur

    def deriv(self):
        """d/dx = x^-1 (x d/dx), on the parts and the logs alike."""
        return LogSeries([p.shift(-1) for p in self.euler().parts])


def ladder(f, count, step=methodcaller("euler")):
    """[f, step f, ..., step^count f]; ``step`` defaults to the Euler
    derivation x d/dx."""
    out = [f]
    for _ in range(count):
        out.append(step(out[-1]))
    return out


# -- serialization ---------------------------------------------------------

def series_to_record(f: PowerSeries) -> dict:
    """Shared exact wire format: coefficients as 'p/q' strings."""
    return {
        "variable": f.var,
        "valuation": int(f.val),
        "order": int(f.order) if f.order < BIG_ORDER else None,
        "coeffs": [str(c) for c in f.coeffs],
    }


def _wire_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


_WIRE_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _wire_coeff(c) -> Q:
    """A JSON integer, or a string of the form 'p' or 'p/q' with q != 0."""
    if _wire_int(c):
        return Q(c)
    if isinstance(c, str) and _WIRE_RATIONAL.fullmatch(c):
        num, _, den = c.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"coefficient {c!r} has a zero denominator")
        return Q(int(num), int(den or 1))
    raise ValueError(f"coefficient {c!r} is not an integer or a 'p/q' string")


def series_from_record(rec) -> PowerSeries:
    """Parse the wire format; raises ValueError on a malformed record.

    Listed coefficients must stop below the record's order, and every
    exponent below ``BIG_ORDER >> 1``, where orders start to read as
    exact; the exact zero ``series_to_record`` writes is the exception.
    """
    if not isinstance(rec, dict):
        raise ValueError("a series record must be an object")
    var, val = rec.get("variable"), rec.get("valuation")
    order, coeffs = rec.get("order"), rec.get("coeffs")
    if not isinstance(var, str):
        raise ValueError("'variable' must be a string")
    if not _wire_int(val):
        raise ValueError("'valuation' must be an integer")
    if not isinstance(coeffs, list):
        raise ValueError("'coeffs' must be a list")
    limit = BIG_ORDER >> 1
    if order is None:
        if val == BIG_ORDER and not coeffs:
            return PowerSeries.zero(var)
        if val + max(len(coeffs), 1) > limit:
            raise ValueError(f"exponents must stay below {limit}")
        order = BIG_ORDER
    elif not _wire_int(order) or not val + len(coeffs) <= order < limit:
        raise ValueError("'order' must be null or an integer past the "
                         f"listed coefficients and below {limit}")
    return PowerSeries(var, val, [_wire_coeff(c) for c in coeffs], order)
