"""Core series ring: arithmetic, composition, reversion, exp/log, jets."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrormap import series
from mirrormap.series import (BIG_ORDER, LogSeries, PowerSeries, Q,
                              TruncationError, VariableMismatch, _convolve,
                              _newton_orders, ladder, rat, series_from_record,
                              series_to_record)


def ps(coeffs, val=0, order=None, var="z"):
    return PowerSeries(var, val,
                       [rat(c) for c in coeffs],
                       order if order is not None else val + len(coeffs))


class TestArithmetic:
    def test_add_aligns_valuations(self):
        a = ps([1, 2], val=0)
        b = ps([3], val=1)
        assert (a + b).coeff(1) == 5

    @pytest.mark.parametrize("a, b, total, shared", [
        (ps([1, 2, 3], order=9), ps([4, 5], val=5, order=9),
         (1, 2, 3, 0, 0, 4, 5), 0),
        (ps([4, 5], val=5, order=9), ps([1, 2, 3], order=9),
         (1, 2, 3, 0, 0, 4, 5), 0),
        (ps([1, 2, 3], order=9), ps([4, 5, 6], val=1, order=9),
         (1, 6, 8, 6), 2),
        (ps([1, 2, 3], order=9), ps([4, 5, 6], val=2, order=3),
         (1, 2, 7), 1),
    ], ids=["disjoint", "disjoint-swapped", "overlap", "overlap-cut"])
    def test_add_sums_only_shared_exponents(self, monkeypatch, a, b, total,
                                            shared):
        # a coefficient of one operand alone is copied, not added to zero
        calls = []
        real = Fraction.__add__
        monkeypatch.setattr(Fraction, "__add__",
                            lambda x, y: calls.append(1) or real(x, y))
        s = a + b
        monkeypatch.undo()
        assert len(calls) <= shared
        assert [s.coeff(n) for n in range(len(total))] == list(total)

    def test_mul_truncation_order_is_min_of_shifted_orders(self):
        a = ps([1, 1], order=5)          # known through z^4
        b = ps([1], val=2, order=4)      # known through z^3
        c = a * b
        assert c.order == min(5 + 2, 4 + 0)
        assert c.coeff(2) == 1 and c.coeff(3) == 1

    def test_coeff_past_order_raises(self):
        a = ps([1, 2, 3], order=3)
        with pytest.raises(TruncationError):
            a.coeff(3)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            ps([1]) + ps([1], var="q")

    def test_laurent_inverse(self):
        a = ps([1, -1], val=-1, order=8)
        assert (a * a.inverse() - 1).is_zero()

    def test_pow_matches_repeated_mul(self):
        a = ps([1, 2, 3], order=10)
        assert a ** 4 == a * a * a * a

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PowerSeries.zero("z", 6).inverse()

    @pytest.mark.parametrize("a, b, equal", [
        (PowerSeries.one("z"), PowerSeries.one("z"), True),
        (PowerSeries.one("z"), 1, True),
        (ps([1, 2], order=BIG_ORDER), ps([1, 2, 0, 0, 5], order=BIG_ORDER),
         False),
        (ps([1, 2], order=BIG_ORDER), ps([1, 2, 7], order=3), False),
        (ps([1, 2], order=BIG_ORDER), ps([1, 2], order=4), True),
        (PowerSeries.zero("z"), ps([0, 0, 1], order=BIG_ORDER), False),
        (ps([1, 2], order=3), ps([1, 3], order=3), False),
        (ps([1]), ps([1], var="q"), False),
        (ps([1]), 1.0, False),  # NotImplemented on both sides
    ])
    def test_exact_equality_is_finite(self, a, b, equal):
        assert (a == b) is equal and (b == a) is equal

    def test_geometric_inverse(self):
        one_minus = ps([1, -1], order=10)
        inv = one_minus.inverse()
        assert all(inv.coeff(n) == 1 for n in range(10))


class TestCompositionReversion:
    def test_compose_geometric_with_q_plus_q2(self):
        # 1/(1-z) composed with q + q^2 starts 1, 1, 2, 3, 5 (each
        # coefficient counts compositions of n into parts 1 and 2)
        geom = PowerSeries("z", 0, [rat(1)] * 12, 12)
        inner = PowerSeries("q", 1, [rat(1), rat(1)], 12)
        comp = geom.compose(inner)
        assert [comp.coeff(n) for n in range(6)] == [1, 1, 2, 3, 5, 8]

    def test_compose_exact_polynomial_oracle(self):
        # (1 + z)^3 at z = q + q^2, expanded by hand
        outer = ps([1, 3, 3, 1], order=BIG_ORDER)
        inner = PowerSeries("q", 1, [rat(1), rat(1)], 9)
        comp = outer.compose(inner)
        brute = (1 + inner) * (1 + inner) * (1 + inner)
        assert (comp - brute).is_zero()

    def test_compose_exact_polynomial_order(self):
        # z^2 + z^3 at an inner series of valuation 1 is known as far as
        # inner^2 is, one term past the inner order
        outer = ps([0, 0, 1, 1], order=BIG_ORDER)
        inner = PowerSeries("q", 1, [rat(1), rat(1)], 6)
        comp = outer.compose(inner)
        assert comp.order == (inner * inner).order == 7
        assert (comp - inner * inner * (1 + inner)).is_zero()

    def test_compose_exact_zero_and_constant(self):
        inner = PowerSeries("q", 1, [rat(1), rat(1)], 6)
        assert PowerSeries.zero("z").compose(inner).is_zero()
        const = PowerSeries.monomial("z", 0, 3).compose(inner)
        assert const.order == BIG_ORDER and const == 3

    def test_compose_laurent_outer(self):
        outer = ps([1], val=-1, order=5)   # 1/z
        inner = PowerSeries("q", 1, [rat(1), rat(-1)], 8)
        comp = outer.compose(inner)
        assert (comp * inner - 1).is_zero()
        assert comp.order == 5   # the unknown O(z^5) is O(q^5)
        # an outer known only to z^0 keeps its known term
        short = ps([1], val=-1, order=0).compose(PowerSeries("q", 1, [1], 2))
        assert short.val == -1 and short.order == 0 and short.coeff(-1) == 1

    def test_revert_round_trip(self):
        f = PowerSeries("z", 1, [rat(1), rat(-5), rat(7), rat(2)], 10)
        g = f.revert("q")
        back = f.compose(g)
        ident = PowerSeries("q", 1, [rat(1)], back.order)
        assert (back - ident).is_zero()

    def test_revert_needs_unit_linear_coefficient(self):
        with pytest.raises(ValueError):
            PowerSeries("z", 2, [rat(1)], 6).revert()


class TestExpLog:
    def test_exp_log_round_trip(self):
        f = PowerSeries("z", 1, [rat(3), rat(-2), Q(1, 7)], 9)
        assert ((f.exp()).log() - f).is_zero()

    def test_exp_of_zero_is_one(self):
        assert (PowerSeries.zero("z", 6).exp() - 1).is_zero()

    def test_log_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            PowerSeries("z", 0, [rat(2)], 5).log()


class TestEulerDeriv:
    def test_euler_on_monomial(self):
        f = PowerSeries.monomial("z", 4, 3, order=6)
        assert f.euler().coeff(4) == 12

    def test_deriv_shifts_exponent(self):
        f = ps([0, 0, 5], order=6)
        assert f.deriv().coeff(1) == 10

    def test_ladder(self):
        f = PowerSeries.monomial("z", 2, 1, order=6)
        assert [g.coeff(2) for g in ladder(f, 3)] == [1, 2, 4, 8]
        tower = ladder(f, 2, PowerSeries.deriv)
        assert [(g.val, g.coeffs[0], g.order) for g in tower] == \
            [(2, 1, 6), (1, 2, 5), (0, 2, 4)]


class TestLogSeries:
    def test_euler_acts_triangularly(self):
        # delta(log^2 z / 2) = log z
        f = LogSeries([PowerSeries.zero("z", 8),
                       PowerSeries.zero("z", 8),
                       PowerSeries.monomial("z", 0, 1, 8)])
        d = f.euler()
        assert d.part(1) == PowerSeries.monomial("z", 0, 1, 8)
        assert d.part(2).is_zero()

    def test_product_binomials(self):
        # (log z) * (log z) = 2 * (log^2 z / 2)
        lg = LogSeries([PowerSeries.zero("z", 8),
                        PowerSeries.monomial("z", 0, 1, 8)])
        sq = lg * lg
        assert sq.part(2).coeff(0) == 2

    def test_deriv_consistent_with_euler(self):
        p = PowerSeries("z", 0, [rat(2), rat(1), rat(4)], 7)
        f = LogSeries([p, p * 3])
        lhs = f.euler()
        rhs = f.deriv() * PowerSeries.identity("z", 7)
        assert (lhs - rhs).is_zero()

    def test_power_part_rejects_live_logs(self):
        f = LogSeries([PowerSeries.zero("z", 6),
                       PowerSeries.monomial("z", 1, 1, 6)])
        with pytest.raises(ValueError):
            f.power_part()


class TestJetRing:
    """Q[H]/(H^3) is PowerSeries in H truncated at order 3."""

    def test_ring_truncates(self):
        h = PowerSeries("H", 0, [0, 1], 3)       # H mod H^3
        cube = h * h * h
        assert all(cube.coeff(k) == 0 for k in range(3))

    def test_inverse(self):
        h = PowerSeries("H", 0, [rat(2), rat(1), rat(5)], 3)
        prod = h * h.inverse()
        assert [prod.coeff(k) for k in range(3)] == [1, 0, 0]


class TestSerialization:
    def test_round_trip(self):
        f = PowerSeries("q", -2, [Q(1, 3), rat(0), rat(7)], 4)
        rec = series_to_record(f)
        assert rec["coeffs"][0] == "1/3"
        g = series_from_record(rec)
        assert (f - g).is_zero() and g.val == -2 and g.order == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8),
       st.lists(st.integers(-50, 50), min_size=1, max_size=8),
       st.lists(st.integers(-50, 50), min_size=1, max_size=8))
def test_ring_axioms(xs, ys, zs):
    a, b, c = (ps(v, order=12) for v in (xs, ys, zs))
    assert ((a + b) * c - (a * c + b * c)).is_zero()
    assert ((a * b) * c - a * (b * c)).is_zero()
    assert (a * b - b * a).is_zero()


def _frac(c):
    return Fraction(int(c.numerator), int(c.denominator))


def _schoolbook_product(a, b):
    """Reference product on plain Fractions: (val, coeffs, order)."""
    order = min(a.order + b.val, b.order + a.val)
    if order > BIG_ORDER >> 1:   # a product of exact series is exact
        order = BIG_ORDER
    terms = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            n = a.val + b.val + i + j
            if n < order:
                terms[n] = terms.get(n, Fraction(0)) + _frac(x) * _frac(y)
    support = [n for n, c in terms.items() if c != 0]
    if not support:
        return order, (), order
    lo, hi = min(support), max(support)
    return lo, tuple(terms.get(n, Fraction(0)) for n in range(lo, hi + 1)), \
        order


_rationals = st.fractions(min_value=-60, max_value=60, max_denominator=40)


@st.composite
def _series(draw):
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), _rationals),
                           max_size=9))
    val = draw(st.integers(-4, 4))
    order = draw(st.one_of(
        st.just(BIG_ORDER),
        st.integers(0, 6).map(lambda extra: val + len(coeffs) + extra),
        st.integers(0, len(coeffs)).map(lambda cut: val + cut)))
    return PowerSeries("z", val, [rat(c) for c in coeffs], order)


@settings(max_examples=200, deadline=None)
@given(_series(), _series())
def test_mul_matches_fraction_schoolbook(a, b):
    for x, y in ((a, b), (a, a)):   # a * a takes the square path
        val, coeffs, order = _schoolbook_product(x, y)
        c = x * y
        assert (c.val, c.order) == (val, order)
        assert tuple(_frac(t) for t in c.coeffs) == coeffs
        for t in c.coeffs:
            assert isinstance(t, Q) and t.denominator > 0
            assert gcd(int(t.numerator), int(t.denominator)) == 1


def _int_schoolbook(a, b, n):
    """Plain-int product of integer lists (index = exponent), cut below n
    and at the product's own length."""
    length = min(n, len(a) + len(b) - 1) if a and b else 0
    out = [0] * length
    for i in range(len(a)):
        for j in range(len(b)):
            if i + j < len(out):
                out[i + j] += a[i] * b[j]
    return out


_int_lists = st.lists(st.one_of(st.just(0), st.integers(-10 ** 40, 10 ** 40)),
                      max_size=12)


@settings(max_examples=300, deadline=None)
@given(_int_lists, _int_lists, st.integers(0, 26))
def test_convolve_matches_int_schoolbook(a, b, n):
    assert _convolve(a, b, n) == _int_schoolbook(a, b, n)
    assert _convolve(a, list(a), n) == _int_schoolbook(a, a, n)
    assert _convolve(a, a, n) == _int_schoolbook(a, a, n)   # b is a


@pytest.mark.parametrize("a, b, n, out", [
    ([], [1, 2], 5, []), ([1, 2], [], 5, []), ([1, 2], [3], 0, []),
    ([0, 0, 1], [0, 2], 9, [0, 0, 0, 2]), ([1, 1], [1, 1], 2, [1, 2])])
def test_convolve_edges(a, b, n, out):
    # empty operands, n = 0, zero entries and a cut inside the product
    assert _convolve(a, b, n) == out


@settings(max_examples=200, deadline=None)
@given(_series())
def test_deriv_matches_the_plain_rule(f):
    # n c_n x^n -> n c_n x^(n-1), exact series staying exact
    order = f.order - 1 if f.order < BIG_ORDER else BIG_ORDER
    dense = [(f.val + i) * _frac(c) for i, c in enumerate(f.coeffs)]
    assert _as_tuple(f.deriv()) == _normalised(f.val - 1, dense, order)


def _normalised(val, dense, order):
    """(val, coeffs, order) of a dense Fraction window, as PowerSeries
    stores it: leading and trailing zeros stripped."""
    dense = list(dense[:max(order - val, 0)])
    while dense and dense[-1] == 0:
        dense.pop()
    lo = 0
    while lo < len(dense) and dense[lo] == 0:
        lo += 1
    if lo == len(dense):
        return order, (), order
    return val + lo, tuple(dense[lo:]), order


def _inverse_reference(a):
    """Term-by-term recurrence for 1/a on plain Fractions."""
    L = a.order - a.val
    u = [_frac(c) for c in a.coeffs] + [Fraction(0)] * (L - len(a.coeffs))
    w = [1 / u[0]]
    for n in range(1, L):
        w.append(-sum(u[k] * w[n - k] for k in range(1, n + 1)) / u[0])
    return _normalised(-a.val, w, L - a.val)


def _exp_reference(f):
    """e' = f' e solved term by term: n e_n = sum_k k f_k e_(n-k)."""
    N = f.order
    fk = [_frac(f.coeff(k)) for k in range(N)]
    e = [Fraction(1)]
    for n in range(1, N):
        e.append(sum(k * fk[k] * e[n - k] for k in range(1, n + 1)) / n)
    return _normalised(0, e, N)


def _poly_mul(a, b, n):
    """Product of dense Fraction lists (index = exponent), cut below n."""
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n - i]):
            out[i + j] += x * y
    return out


def _revert_reference(f):
    """Solve f(g) = q one coefficient at a time: with g known below q^n,
    [q^n] f(g) = a_1 g_n + [q^n] sum_(k>=2) a_k g^k."""
    N = f.order
    a = [_frac(f.coeff(k)) for k in range(N)]
    g = [Fraction(0), 1 / a[1]]
    for n in range(2, N):
        rest, power = Fraction(0), g
        for k in range(2, n + 1):
            power = _poly_mul(power, g, n + 1)
            rest += a[k] * power[n]
        g.append(-rest / a[1])
    return _normalised(0, g, N)


def _as_tuple(s):
    return s.val, tuple(_frac(c) for c in s.coeffs), s.order


@st.composite
def _unit_series(draw, vals, max_len=9, max_extra=24):
    """Nonzero lowest coefficient (rarely 1), with orders that cut the
    stored window, just cover it, or run far past it."""
    lead = draw(_rationals.filter(lambda c: c != 0))
    rest = draw(st.lists(st.one_of(st.just(Fraction(0)), _rationals),
                         max_size=max_len - 1))
    coeffs = [lead] + rest
    val = draw(vals)
    order = val + draw(st.one_of(st.integers(1, len(coeffs)),
                                 st.integers(len(coeffs),
                                             len(coeffs) + max_extra)))
    return PowerSeries("z", val, [rat(c) for c in coeffs], order)


@settings(max_examples=150, deadline=None)
@given(_unit_series(st.integers(-4, 4)))
def test_inverse_matches_recurrence(a):
    assert _as_tuple(a.inverse()) == _inverse_reference(a)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_unit_series(st.integers(1, 3)),
                 st.integers(0, 20).map(lambda n: PowerSeries.zero("z", n))))
def test_exp_matches_recurrence(f):
    assert _as_tuple(f.exp()) == _exp_reference(f)


@pytest.mark.parametrize("n, orders", [
    (1, []), (2, [2]), (3, [2, 3]), (32, [2, 4, 8, 16, 32]),
    (33, [2, 3, 5, 9, 17, 33]), (101, [2, 4, 7, 13, 26, 51, 101])])
def test_newton_orders(n, orders):
    # ceil(n / 2^k) from the top: each step at most doubles the last, so
    # one Newton step per order keeps every coefficient exact
    assert _newton_orders(n) == orders


@pytest.mark.parametrize("n, orders", [
    (2, []), (3, [3]), (4, [3, 4]), (33, [3, 5, 9, 17, 33]),
    (101, [3, 5, 8, 14, 26, 51, 101]), (102, [3, 5, 8, 14, 27, 52, 102])])
def test_reversion_orders(n, orders):
    # revert's step from k reaches 2k - 1, from the start at 2
    assert _newton_orders(n, lag=1) == orders


def test_newton_steps_run_at_the_scheduled_orders(monkeypatch):
    # at order 33 only the last step runs at nearly full size: the step
    # before it is at 17, where doubling from 1 ran at 32 and then 33
    orders = []
    product = PowerSeries.__mul__

    def recorded(self, other):
        result = product(self, other)
        orders.append(result.order)
        return result

    monkeypatch.setattr(PowerSeries, "__mul__", recorded)
    monkeypatch.setattr(PowerSeries, "__rmul__", recorded)
    f = PowerSeries("z", 1, [1, -2, 3, Q(1, 2)], 33)
    (1 + f).inverse()
    assert orders == [n for n in [2, 3, 5, 9, 17, 33] for _ in range(2)]
    orders.clear()
    f.exp()
    assert max(orders) == 33 and max(n for n in orders if n < 33) == 17


@settings(max_examples=100, deadline=None)
@given(_unit_series(st.just(1), max_len=6, max_extra=12))
def test_revert_matches_coefficient_solve(f):
    assert _as_tuple(f.revert("z")) == _revert_reference(f)


@pytest.mark.parametrize("method", ["inverse", "exp", "revert"])
def test_order_less_input_is_rejected(method):
    exact = PowerSeries("z", 1, [1, 1], BIG_ORDER)
    with pytest.raises(ValueError):
        getattr(exact, method)()


def test_exactness_survives_shift_and_deriv():
    exact = PowerSeries("z", 0, [1, 2, 3], BIG_ORDER)
    for s in (exact.deriv(), exact.shift(-2), exact.shift(3),
              exact * PowerSeries.monomial("z", -1)):
        assert s.order == BIG_ORDER
        assert series_to_record(s)["order"] is None


def test_known_to_refuses_short_series():
    f = ps([1, 2, 3], order=5)
    assert f.known_to(3) == ps([1, 2, 3], order=3)
    assert f.known_to(3).order == 3
    with pytest.raises(TruncationError):
        f.known_to(6)


def test_cut_below_the_valuation_is_zero():
    f = PowerSeries("q", 10, [1, 1, 1], 13)
    for g in (f.known_to(8), f.truncate(8), PowerSeries("q", 10, [1], 8)):
        assert g.is_zero() and g.val == g.order == 8 and g.coeffs == ()
        with pytest.raises(TruncationError):
            g.coeff(8)


@settings(max_examples=200, deadline=None)
@given(_series(), st.integers(-6, 16))
def test_cut_keeps_every_coefficient_below_the_order(f, cut):
    # the window rule: val <= order and val + len(coeffs) <= order, with
    # the input's coefficients below the cut
    cuts = [f.truncate(cut)] + ([f.known_to(cut)] if cut <= f.order else [])
    for g in cuts:
        assert g.order == min(cut, f.order)
        assert g.val <= g.order and g.val + len(g.coeffs) <= g.order
        assert all(g.coeff(n) == f.coeff(n) for n in range(-6, g.order))


@st.composite
def _compose_pair(draw):
    """An outer power series (finite or exact) and an inner series of
    valuation >= 1, plus both with random coefficients past their orders."""
    ints = st.integers(-3, 3)
    oval = draw(st.integers(-3, 3))
    ocs = draw(st.lists(ints, min_size=1, max_size=5))
    exact = draw(st.booleans())
    oorder = BIG_ORDER if exact else oval + len(ocs) + draw(st.integers(0, 2))
    v = draw(st.integers(1, 2))
    ics = [draw(st.sampled_from([1, -2, 3]))] + draw(st.lists(ints,
                                                             max_size=5))
    iorder = v + len(ics) + draw(st.integers(0, 2))
    tail = draw(st.lists(ints, min_size=6, max_size=6))
    outer = PowerSeries("z", oval, ocs, oorder)
    inner = PowerSeries("q", v, ics, iorder)
    pad = [0] * (iorder - v - len(ics))
    longer_inner = PowerSeries("q", v, ics + pad + tail, iorder + 6)
    longer_outer = outer if exact else PowerSeries(
        "z", oval, ocs + [0] * (oorder - oval - len(ocs)) + tail, oorder + 6)
    return outer, inner, longer_outer, longer_inner


@settings(max_examples=100, deadline=None)
@given(_compose_pair())
def test_compose_order_is_honest(pair):
    """No coefficient inside the reported order depends on the unknown
    coefficients of either argument."""
    outer, inner, longer_outer, longer_inner = pair
    comp = outer.compose(inner)
    longer = longer_outer.compose(longer_inner)
    assert longer.order >= comp.order
    assert longer.truncate(comp.order) == comp


def _compose_reference(outer, inner):
    """outer(inner) on plain Fractions for a finite inner: sum_k c_k inner^k
    one term at a time, cut at the order rule of ``compose``; a Laurent
    outer is p(inner) * inner^val with p = outer / x^val."""
    v = inner.val
    shift, c = 0, []
    if outer.coeffs:
        shift = min(outer.val, 0)
        c = [Fraction(0)] * (outer.val - shift) + [_frac(x)
                                                   for x in outer.coeffs]
    bounds = [(outer.order - shift) * v]
    first = next((k for k in range(1, len(c)) if c[k]), None)
    if first is not None:
        bounds.append(inner.order + (first - 1) * v)
    N = min(min(bounds), BIG_ORDER)
    length = min(N, (len(c) - 1) * (v + len(inner.coeffs) - 1) + 1)
    b = [_frac(inner.coeff(n)) if n < inner.order else Fraction(0)
         for n in range(length)]
    total = [Fraction(0)] * length
    power = [Fraction(1)] + [Fraction(0)] * (length - 1)
    for k, ck in enumerate(c):
        if k * v >= length:   # inner^k starts at x^(k v)
            break
        total = [t + ck * p for t, p in zip(total, power)]
        power = _poly_mul(power, b, length)
    if not shift:
        return _normalised(0, total, N)
    # inner^val through the inverse of inner cut to T, as compose does
    T = min(N + v, inner.order)
    u = [_frac(inner.coeff(v + i)) for i in range(T - v)]
    w = [1 / u[0]]
    for n in range(1, T - v):
        w.append(-sum(u[k] * w[n - k] for k in range(1, n + 1)) / u[0])
    wk = [Fraction(1)] + [Fraction(0)] * (T - v - 1)
    for _ in range(-shift):
        wk = _poly_mul(wk, w, T - v)
    R = min(N, T - v)
    dense = _poly_mul(total + [Fraction(0)] * (R - len(total)), wk, R)
    return _normalised(shift * v, dense, R + shift * v)


@st.composite
def _long_compose_pair(draw):
    """An outer series of up to 30 terms, so several baby-step blocks and a
    ragged last block occur, and a short inner of valuation 1 or 2 whose
    order leaves room for the high powers."""
    oval = draw(st.integers(-3, 3))
    ocs = draw(st.lists(st.one_of(st.just(Fraction(0)), _rationals),
                        min_size=1, max_size=30))
    oorder = draw(st.one_of(st.just(BIG_ORDER), st.integers(0, 3).map(
        lambda extra: oval + len(ocs) + extra)))
    v = draw(st.integers(1, 2))
    small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    ics = [draw(small.filter(lambda x: x != 0))] + draw(
        st.lists(small, max_size=3))
    iorder = v + len(ics) + draw(st.integers(0, 28))
    return (PowerSeries("z", oval, [rat(x) for x in ocs], oorder),
            PowerSeries("q", v, [rat(x) for x in ics], iorder))


@settings(max_examples=80, deadline=None)
@given(_long_compose_pair())
def test_compose_matches_term_by_term(pair):
    outer, inner = pair
    assert _as_tuple(outer.compose(inner)) == _compose_reference(outer, inner)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 17, 26, 37, 50])
def test_revert_at_block_boundaries(n):
    """Orders 2 to 5, where the outer series has 2 to 5 terms and
    compose's blocks of m = isqrt(K) are full or ragged, and larger orders,
    some at or just below 2^k + 2, where the Newton schedule
    n -> n // 2 + 1 gains a step."""
    f = PowerSeries("z", 1, [Q(-3, 2), Q(1, 3), 0, Q(2, 5)], n)
    assert _as_tuple(f.revert("z")) == _revert_reference(f)


def test_revert_and_compose_product_counts(monkeypatch):
    """Paterson-Stockmeyer forms O(sqrt(N)) short products per composition,
    and revert's Newton steps one composition each at orders that halve;
    the term-by-term loops formed one product per coefficient."""
    calls = []
    product = series._convolve

    def counted(a, b, n):
        calls.append(n)
        return product(a, b, n)

    monkeypatch.setattr(series, "_convolve", counted)
    g = PowerSeries("z", 1, [1, -1, 2], 102).revert("q")
    assert len(calls) <= 40
    calls.clear()
    PowerSeries("z", 0, [1] * 102, 102).compose(g)
    assert len(calls) <= 3 * 11 + 5   # 3 ceil(sqrt(102)) + 5


def test_exact_monomial_inverse():
    inv = PowerSeries.monomial("z", 3, Q(2, 3)).inverse()
    assert (inv.val, inv.coeffs, inv.order) == (-3, (Q(3, 2),), BIG_ORDER)


def test_compose_laurent_outer_at_exact_inner():
    comp = PowerSeries("z", -1, [1], BIG_ORDER).compose(
        PowerSeries("q", 1, [1], BIG_ORDER))
    assert (comp.val, comp.coeffs, comp.order) == (-1, (1,), BIG_ORDER)
    # 2/z^2 + 3 at z = q/2 is 8/q^2 + 3
    comp = PowerSeries("z", -2, [2, 0, 3], BIG_ORDER).compose(
        PowerSeries.monomial("q", 1, Q(1, 2)))
    assert (comp.val, comp.coeffs, comp.order) == (-2, (8, 0, 3), BIG_ORDER)
    # 1/(q + q^2) has no exact (finite) expansion
    with pytest.raises(ValueError):
        PowerSeries("z", -1, [1], BIG_ORDER).compose(
            PowerSeries("q", 1, [1, 1], BIG_ORDER))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_series(), st.builds(PowerSeries.zero, st.just("z"),
                                      st.integers(-5, 20) | st.just(BIG_ORDER))))
def test_record_round_trip(f):
    g = series_from_record(series_to_record(f))
    assert (g.var, g.val, g.order, g.coeffs) == (f.var, f.val, f.order,
                                                 f.coeffs)


_JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=6) | st.sampled_from(["1/0", "-3/4", "7"]))
_JSON = st.recursive(_JSON_LEAF, lambda kids: st.lists(kids, max_size=4)
                     | st.dictionaries(st.text(max_size=6), kids, max_size=4),
                     max_leaves=12)
_WIRE_INT = (st.integers(-6, 6) | st.sampled_from(
    [BIG_ORDER >> 1, (BIG_ORDER >> 1) - 1, BIG_ORDER, 1 << 40]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_JSON, st.fixed_dictionaries({
    "variable": st.just("z") | _JSON_LEAF,
    "valuation": _WIRE_INT | _JSON_LEAF,
    "order": st.none() | _WIRE_INT | _JSON_LEAF,
    "coeffs": st.lists(st.integers(-9, 9) | _JSON_LEAF, max_size=6)
    | _JSON})))
def test_record_parses_or_raises_value_error(rec):
    try:
        f = series_from_record(rec)
    except ValueError:
        return
    assert isinstance(f, PowerSeries)
