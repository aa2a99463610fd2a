"""Coupled nonlinear identities and the quasi-homogeneous relation search."""

import random
from itertools import islice
from math import prod
from operator import mul

import pytest

from mirrormap import linalg, mirror, relations, yukawa
from mirrormap.linalg import nullspace
from mirrormap.mirror import mirror_data, verify_hodge_identity
from mirrormap.operators import (RationalFunction, fourth_order_normal_form,
                                 mirror_operator, poly,
                                 second_order_normal_form)
from mirrormap.relations import (P1_CHAINS, P2_CHAINS, a_quantities,
                                 b_quantities, rational_q, rational_q_tilde,
                                 relation_search, verify_duality,
                                 verify_eq_fourth, verify_eq_schwarzian,
                                 verify_eq_second)
from mirrormap.series import Q, PowerSeries, TruncationError, ladder, rat
from mirrormap.wronskian import (DiffPolynomial, chain_ring, coefficient_rows,
                                 monomial_value, schwarzian)
from mirrormap.yukawa import (verify_pandharipande, verify_yukawa_identity,
                              yukawa_coupling)

P2_SYMBOLS, P2_WEIGHTS = chain_ring(P2_CHAINS)
_, P1_WEIGHTS = chain_ring(P1_CHAINS)


def random_series(seed, order):
    """q * (random integers in [-9, 9], the first nonzero) + O(q^order)."""
    rng = random.Random(seed)
    coeffs = [rng.choice([c for c in range(-9, 10) if c])]
    coeffs += [rng.randint(-9, 9) for _ in range(order - 2)]
    return PowerSeries("q", 1, [rat(c) for c in coeffs], order)


class TestRationalData:
    def test_q_matches_normal_form(self):
        # the closed form equals Q2/10 from the reduced fourth-order shape
        q2, _ = fourth_order_normal_form(mirror_operator(5))
        assert 10 * rational_q() == q2

    def test_q_tilde_pole_structure(self):
        s = rational_q_tilde().series("z", 5)
        assert s.val == 1 and s.coeff(1) == -5750

    def test_q_tilde_is_the_laguerre_forsyth_invariant(self):
        # Q~ = 100 z^4 theta_4 with theta_4 = Q0 - (3/10)Q2'' - (9/100)Q2^2
        # of the quintic's normal form in d/dz, exactly
        q2, q0 = fourth_order_normal_form(mirror_operator(5))
        theta4 = q0 - Q(3, 10) * q2.deriv().deriv() - Q(9, 100) * q2 * q2
        z4 = RationalFunction(poly([0, 0, 0, 0, 100]))
        assert z4 * theta4 == rational_q_tilde()


def hand_a_quantities(z):
    """A2 = Q2(z)z'^2 + 5{z,t} and A4 expanded by hand in z', ..., z^(5),
    ' = delta_q, from the quintic's (Q2, Q0) in d/dz: the reference for
    the pullback that ``a_quantities`` reduces, and the certificate of its
    (z''/z')^4 coefficient -135/16."""
    q2, q0 = fourth_order_normal_form(mirror_operator(5))
    _, z1, z2, z3, z4, z5 = ladder(z, 5)
    q2z = q2.eval_series(z)
    a2 = q2z * z1 * z1 + 5 * schwarzian(z)
    a4 = (q0.eval_series(z) * z1 ** 4
          + Q(3, 2) * q2.deriv().eval_series(z) * z1 * z1 * z2
          - Q(3, 4) * q2z * z2 * z2
          + Q(3, 2) * q2z * z1 * z3
          - Q(135, 16) * (z2 / z1) ** 4
          + Q(75, 4) * z2 * z2 * z3 / z1 ** 3
          - Q(15, 4) * (z3 / z1) ** 2
          - Q(15, 2) * z2 * z4 / (z1 * z1)
          + Q(3, 2) * z5 / z1)
    return a2, a4


@pytest.mark.parametrize("source, n", [("mirror", n) for n in (9, 17, 21, 41)]
                         + [("random", seed) for seed in range(5)])
def test_a_quantities_match_the_hand_expansion(source, n):
    # the actual mirror map at order n; random order-40 inputs of seed n
    z = (mirror_data(5, n).z_of_q if source == "mirror"
         else random_series(n, 40))
    for derived, hand in zip(a_quantities(z), hand_a_quantities(z)):
        assert (derived.val, derived.order, derived.coeffs) == \
            (hand.val, hand.order, hand.coeffs)


class TestCoupledIdentities:
    @pytest.mark.parametrize("s", [3, 4])
    def test_schwarzian_identity(self, s):
        assert verify_eq_schwarzian(s, 24).is_zero()

    def test_second_order_identity(self):
        assert verify_eq_second(24).is_zero()

    def test_fourth_order_identity(self):
        assert verify_eq_fourth(24).is_zero()

    def test_duality(self):
        r2, r4 = verify_duality(20)
        assert r2.is_zero() and r4.is_zero()

    def test_eq16_and_eq25_are_the_duality(self):
        # eq16 is the second-order half of the duality divided by 5, and
        # eq25 is its Laguerre-Forsyth invariant
        # theta_4 = X4 - (3/10)X2'' - (9/100)X2^2, times 100, on each side
        z, K = relations._quintic_pair(24)
        a2, a4 = a_quantities(z)
        # the paper's printed right-hand sides are references for the
        # Yukawa side that eq16 and eq25 read
        u1, u2 = ladder(K.euler() / K, 1)
        eq16_rhs = Q(2, 5) * u2 - Q(1, 10) * u1 * u1
        _, k1, k2, k3, k4 = ladder(K, 4)
        eq25_rhs = (175 * k1 ** 4 - 280 * K * k1 * k1 * k2
                    + 49 * K * K * k2 * k2 + 70 * K * K * k1 * k3
                    - 10 * K ** 3 * k4) / K ** 4
        b2, b_theta4 = relations._yukawa_side(K)
        sides = [(5 * relations._schwarzian_form(rational_q(), z), a2),
                 (5 * eq16_rhs, b2), (eq25_rhs, 100 * b_theta4)]
        for side, value in sides:
            assert (side.val, side.order, side.coeffs) == \
                (value.val, value.order, value.coeffs)

        def theta4(x2, x4):
            return 100 * (x4 - Q(3, 10) * x2.euler(2) - Q(9, 100) * x2 * x2)

        z_side = rational_q_tilde().eval_series(z) * (z.euler() / z) ** 4
        assert z_side == theta4(a2, a4)
        assert not theta4(a2, a4).is_zero()

    @pytest.mark.parametrize("residual", [
        lambda: verify_eq_second(24),
        lambda: verify_eq_fourth(24),
        lambda: verify_duality(20)[0],
        lambda: verify_duality(20)[1],
    ], ids=["eq16", "eq25", "duality-2", "duality-4"])
    def test_yukawa_side_detects_mutation(self, monkeypatch, residual):
        # K + q^5 must break every coupled identity: the Yukawa side of
        # each residual is not vacuous
        real = yukawa_coupling

        def perturbed(order):
            K = real(order)
            return K + PowerSeries("q", 5, [rat(1)], K.order)

        monkeypatch.setattr(relations, "yukawa_coupling", perturbed)
        assert not residual().is_zero()

    def test_schwarzian_identity_detects_mutation(self):
        # perturbing the potential must break the identity: the check is
        # not vacuous
        q_rf = second_order_normal_form(mirror_operator(3))
        z = mirror_data(3, 20).z_of_q
        z1 = z.euler()
        good = 2 * q_rf.eval_series(z) * z1 * z1 + schwarzian(z)
        bad = good + z1 * z1 * Q(1, 7)
        assert good.truncate(12).is_zero()
        assert not bad.truncate(12).is_zero()

    def test_fourth_order_detects_mutation(self):
        # any change to the cubic numerator produces a nonzero residual
        z = mirror_data(5, 18).z_of_q
        lhs = rational_q_tilde().eval_series(z) * (z.euler() / z) ** 4
        perturbed = (rational_q_tilde().series("z", 12)
                     + PowerSeries("z", 1, [rat(1)], 12)).compose(z)
        bad = perturbed * (z.euler() / z) ** 4
        assert not (bad - lhs).truncate(10).is_zero()


@pytest.mark.parametrize("check", [
    lambda: verify_hodge_identity(3, 16),
    lambda: verify_yukawa_identity(8),
    lambda: verify_duality(8),
    lambda: verify_eq_schwarzian(4, 16),
    lambda: verify_eq_second(8),
    lambda: verify_eq_fourth(8),
    lambda: verify_pandharipande(20),
    lambda: relation_search("p2", order=24),
], ids=["hodge", "eq19", "duality", "eq9", "eq16", "eq25", "pandharipande",
        "search-dual"])
def test_verifier_refuses_short_bundle(monkeypatch, check):
    # a bundle known to fewer terms must not yield a silently short residual
    K = yukawa_coupling(20)
    for module in (mirror, yukawa, relations):
        monkeypatch.setattr(module, "mirror_data",
                            lambda s, order: mirror_data(s, order - 8))
    for module in (yukawa, relations):
        monkeypatch.setattr(module, "yukawa_coupling",
                            lambda order: K.truncate(order - 8))
    with pytest.raises(TruncationError):
        check()


@pytest.fixture(scope="module")
def result():
    return relation_search(mode="p2", weight_bound=12, order=40, seed=0)


class TestRelationSearch:
    def test_finds_weight_twelve(self, result):
        assert result.found and result.weight == 12

    def test_certified(self, result):
        assert result.verified_fresh and result.verified_dual

    def test_quasi_homogeneous(self, result):
        assert result.polynomial.is_quasi_homogeneous()
        assert result.polynomial.weight_set() == [12]

    def test_shape(self, result):
        assert result.stratum_size == 40
        assert len(result.polynomial.terms) == 25
        assert result.degree_set == (3, 4, 5)

    def test_deterministic(self, result):
        again = relation_search(mode="p2", weight_bound=12, order=40, seed=0)
        assert again.polynomial.terms == result.polynomial.terms

    def test_kills_actual_b_quantities(self, result):
        K = yukawa_coupling(21)
        b2, b4 = (b.known_to(20) for b in b_quantities(K.euler() / K))
        values = [b2]
        for _ in range(5):
            values.append(values[-1].euler())
        values.append(b4)
        for _ in range(3):
            values.append(values[-1].euler())
        assert result.polynomial.evaluate(values).is_zero()

    def test_p1_empty_through_low_weights(self):
        # the A-side has no relation in the strata the B-side already
        # fills; scan a cheap prefix to document that
        res = relation_search(mode="p1", weight_bound=7, order=24, seed=0)
        assert not res.found
        assert set(res.weights_scanned) == set(range(2, 8))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            relation_search(mode="p3")

    @pytest.mark.parametrize("weights", [P2_WEIGHTS, P1_WEIGHTS])
    def test_every_stratum_has_monomials(self, weights):
        # both rings hold symbols of weight 2 and 3, so no stratum the
        # search scans is empty
        assert all(relations._monomials(weights, w) for w in range(2, 31))

    @pytest.mark.parametrize("bound", [1, 0, -3])
    def test_weight_bound_below_two(self, bound):
        # quasi-weights start at 2: such a bound would scan nothing
        with pytest.raises(ValueError, match="weight bound"):
            relation_search(mode="p2", weight_bound=bound)

    def test_p1_order_sets_only_the_dual_certificate(self):
        # p1 is decided at rational points of the z-jet ring, so a low
        # order leaves no truncation artifact to refuse at any weight
        res = relation_search(mode="p1", weight_bound=24, order=16)
        assert not res.found
        assert res.weights_scanned == tuple(range(2, 25))


def test_stacking_forms_each_monomial_once(monkeypatch):
    """Row stacking makes at most one jet-polynomial product per monomial
    of degree >= 2 and point: a monomial extends its parent, which has a
    lower weight, and each point keeps its monomials across strata."""
    products, stacking, largest = 0, False, {}
    real_mul, real_stack = DiffPolynomial.__mul__, relations._stack_rows

    def counted(self, other):
        nonlocal products
        if stacking and isinstance(other, DiffPolynomial):
            products += 1
        return real_mul(self, other)

    def stack(monos, values, memo):
        nonlocal stacking
        largest[id(values)] = sum(map(mul, P1_WEIGHTS, monos[0]))
        stacking = True
        try:
            return real_stack(monos, values, memo)
        finally:
            stacking = False

    monkeypatch.setattr(DiffPolynomial, "__mul__", counted)
    monkeypatch.setattr(DiffPolynomial, "__rmul__", counted)
    monkeypatch.setattr(relations, "_stack_rows", stack)
    relation_search(mode="p1", weight_bound=12, seed=0)

    def products_through(weight):
        return sum(sum(e) > 1 for w in range(2, weight + 1)
                   for e in relations._monomials(P1_WEIGHTS, w))

    assert 0 < products <= sum(map(products_through, largest.values()))


def test_search_screens_each_stratum_once(monkeypatch):
    """The search's screen is the only one: p2 to weight 12 screens each
    of its 11 strata once, and hands the stalled stratum 12 to the exact
    nullspace, which eliminates it without screening it again."""
    calls = {"_rank_mod_prime": 0, "nullspace": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(linalg, name))
        monkeypatch.setattr(linalg, name, wrapper)
        monkeypatch.setattr(relations, name, wrapper)
    assert relation_search(mode="p2", weight_bound=12).found
    assert calls == {"_rank_mod_prime": 11, "nullspace": 1}


def test_unlucky_prime_leaves_the_summary_unchanged(monkeypatch):
    """A screen that under-reports a full-rank stratum, as an unlucky prime
    would, hands it to the exact nullspace, which finds no relation there:
    the search goes on to the same result."""
    expected = relation_search("p2", 12).summary()
    screen, real_nullspace = relations._rank_mod_prime, relations.nullspace
    under_reported, bases = [], []

    def unlucky(rows, ncols, echelon=None):
        rank = screen(rows, ncols, echelon)
        if rank == ncols and not under_reported:
            under_reported.append(ncols)
            return rank - 1
        return rank

    def recorded(rows, ncols):
        bases.append(real_nullspace(rows, ncols))
        return bases[-1]

    monkeypatch.setattr(relations, "_rank_mod_prime", unlucky)
    monkeypatch.setattr(relations, "nullspace", recorded)
    assert relation_search("p2", 12).summary() == expected
    assert under_reported and bases[0] == [] and len(bases) == 2


#: The p2 relation at quasi-weight 12, as ``relation_search`` prints it.
P2_RELATION = (
    "(-256)*B4^3 + (-128)*B2''*B4^2 + (48)*B2''^2*B4 + (448)*B2'*B4*B4' "
    "+ (-64)*B2'*B2'''*B4 + (-48)*B2'*B2''*B4' + (-48)*B2'^2*B4'' "
    "+ (12)*B2'^2*B2'''' + (15)*B2'^4 + (-256)*B2*B4'^2 + (128)*B2*B4*B4'' "
    "+ (-32)*B2*B2''''*B4 + (96)*B2*B2'''*B4' + (-8)*B2*B2'''^2 "
    "+ (-240)*B2*B2'^2*B4 + (48)*B2*B2'^2*B2'' + (128)*B2^2*B4^2 "
    "+ (-12)*B2^2*B2''^2 + (144)*B2^2*B2'*B4' + (-32)*B2^2*B2'*B2''' "
    "+ (-32)*B2^3*B4'' + (8)*B2^3*B2'''' + (-4)*B2^3*B2'^2 "
    "+ (-16)*B2^4*B4 + (8)*B2^4*B2''")


class TestJetRing:
    """The p2 symbols as differential polynomials in u', u'', ..."""

    @pytest.mark.parametrize("seed", range(3))
    def test_jet_symbols_match_series_symbols(self, seed):
        # differential test against the series reference: the ten jet
        # values at u^(k) = the k-th delta_q derivative of a random u
        rng = random.Random(seed)
        u = PowerSeries("q", 1, [rat(rng.randint(-9, 9)) for _ in range(23)],
                        24)
        values = relations._jet_symbol_values()
        jets = ladder(u.euler(), len(values[0].symbols) - 1)
        reference = relations._chain_values(P2_CHAINS,
                                            b_quantities(u.euler()))
        assert len(values) == len(reference) == 10
        for poly, series in zip(values, reference):
            value = poly.evaluate(jets)
            assert value.order == series.order and value == series

    def test_exact_nullities(self):
        # strata 2-11 carry no relation; stratum 12 (40 monomials over 64
        # u-monomials) carries exactly one
        values, memo = relations._jet_symbol_values(), {}
        for weight in range(2, 13):
            monos = relations._monomials(P2_WEIGHTS, weight)
            rows = relations._stack_rows(monos, values, memo)
            basis = nullspace(rows, len(monos))
            assert len(basis) == (weight == 12), weight
        assert (len(rows), len(monos)) == (64, 40)
        poly = DiffPolynomial(P2_SYMBOLS, P2_WEIGHTS,
                              dict(zip(monos, map(rat, basis[0]))))
        assert len(poly.terms) == 25 and repr(poly) == P2_RELATION
        assert poly.evaluate(values).is_zero()

    def test_past_the_first_relation(self):
        # strata 12-16: nullity, monomials and rows (u-monomials)
        values, memo = relations._jet_symbol_values(), {}
        table, kernels = [], {}
        for weight in range(12, 17):
            monos = relations._monomials(P2_WEIGHTS, weight)
            rows = relations._stack_rows(monos, values, memo)
            basis = nullspace(rows, len(monos))
            kernels[weight] = monos, basis
            table.append((len(basis), len(monos), len(rows)))
        assert table == [(1, 40, 64), (1, 48, 81), (3, 68, 104),
                         (4, 84, 129), (9, 114, 163)]
        monos, basis = kernels[12]
        r12 = DiffPolynomial(P2_SYMBOLS, P2_WEIGHTS,
                             dict(zip(monos, map(rat, basis[0]))))
        # R12 stops at B2'''' and B4'', so R12' stays inside the chains,
        # vanishes on the jets and spans stratum 13's one-dimensional kernel
        d1 = r12.total_derivative()
        assert len(d1.terms) == 38 and d1.weight_set() == [13]
        assert d1.evaluate(values).is_zero()
        monos, (kernel,) = kernels[13]
        coords = [d1.terms.get(e, 0) for e in monos]
        i = next(i for i, k in enumerate(kernel) if k)
        assert coords[i] and all(a * kernel[i] == k * coords[i]
                                 for a, k in zip(coords, kernel))
        # R12'' needs B4'''' (and B2^(6)), past the ends of the chains
        with pytest.raises(TruncationError, match="of B4''' is"):
            d1.total_derivative()

    def test_search_returns_the_jet_relation(self, result):
        assert repr(result.polynomial) == P2_RELATION

    def test_jacobian_rank(self):
        # the ten symbols are polynomials in the seven jets u' .. u^(7);
        # their Jacobian has rank 7 at one point, hence generically, so
        # they have transcendence degree 7 and at least 3 independent
        # relations: the transposed Jacobian has nullity 3
        def partial(terms, i):
            return {e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * c
                    for e, c in terms.items() if e[i]}

        def value(terms, point):
            return sum(c * prod(map(pow, point, e)) for e, c in terms.items())

        rng = random.Random(0)
        point = [rng.randint(-9, 9) for _ in range(7)]
        jac = [[value(partial(v.terms, i), point) for i in range(7)]
               for v in relations._jet_symbol_values()]
        assert nullspace(jac, 7) == []
        assert len(nullspace([list(col) for col in zip(*jac)], 10)) == 3


class TestZJetRing:
    """The p1 symbols over Q(z), Laurent polynomials in z', ..., z''''."""

    @pytest.mark.parametrize("source", ["random 0", "random 1", "mirror"])
    def test_jet_symbols_match_series_symbols(self, source):
        # differential test against the series reference: z^(k) = the k-th
        # delta_q derivative of z, and each coefficient c(z) by eval_series
        z = (mirror_data(5, 30).z_of_q if source == "mirror"
             else random_series(int(source[-1]), 30))
        jets = ladder(z.euler(), 3)
        values = relations._z_jet_symbol_values()
        reference = relations._chain_values(P1_CHAINS,
                                            relations._mirror_side(z))
        assert len(values) == len(reference) == 6
        for poly, series in zip(values, reference):
            value = sum(c.eval_series(z) * prod(j ** k for j, k in
                                                zip(jets, e) if k)
                        for e, c in poly.terms.items())
            assert (value.val, value.order, value.coeffs) == \
                (series.val, series.order, series.coeffs)

    def test_nullities_per_point(self):
        # the nullity modulo the prime after 1, 2, ... points: one point
        # decides every stratum through weight 19; from weight 20 on, a
        # point adds relations that hold there only, and the next one
        # removes them
        points = relations._z_points(relations._z_jet_symbol_values())
        value_sets, table = [], {}
        for weight in range(2, 23):
            monos = relations._monomials(P1_WEIGHTS, weight)
            echelon, nullities = {}, []
            while len(nullities) < 4 and (not nullities or nullities[-1]):
                k = len(nullities)
                if k == len(value_sets):
                    value_sets.append((next(points), {}))
                rows = relations._stack_rows(monos, *value_sets[k])
                rank = linalg._rank_mod_prime(rows, len(monos), echelon)
                nullities.append(len(monos) - rank)
            table[weight] = nullities
        assert table == {**{w: [0] for w in range(2, 20)},
                         20: [1, 0], 21: [0], 22: [2, 0]}

    def test_i1_relation_holds_over_q_z_and_at_points(self):
        # I1 = N1^2/(1024theta_4^5) is f(z) (see below), so over Q(z)
        # N1^2 = 1024f(z)theta_4^5 exactly; with f(r) for f(z) it is a
        # relation of weight 20 that holds at the point z = r only: the
        # one-point kernel at weight 20, which the next point removes
        ring = relations._z_jet_symbol_values()
        a2, _, t4, t41, t42, _ = ring
        n1 = 32 * a2 * t4 * t4 - 40 * t4 * t42 + 45 * t41 * t41
        t4_5 = t4 * t4 * t4 * t4 * t4
        assert (n1 * n1 - t4_5.map_coeffs(lambda c: 1024 * I1_OF_Z * c)
                ).is_zero()
        symbols, weights = chain_ring(P1_CHAINS)
        e = ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
             (0, 0, 0, 0, 1, 0))
        s_a2, s_t4, s_t41, s_t42 = (
            DiffPolynomial.monomial(symbols, weights, x) for x in e)
        s_n1 = 32 * s_a2 * s_t4 * s_t4 - 40 * s_t4 * s_t42 + 45 * s_t41 * s_t41
        f = relations._value_at(I1_OF_Z, Q(1, 7))
        at_r = s_n1 * s_n1 - 1024 * f * s_t4 * s_t4 * s_t4 * s_t4 * s_t4
        first, second = islice(relations._z_points(ring), 2)
        assert at_r.evaluate(first).is_zero()
        assert not at_r.evaluate(second).is_zero()

    def test_relation_at_the_points_only_is_not_verified(self, monkeypatch):
        # points where A2' vanishes: the rank stops growing at weight 3,
        # whose kernel A2' is a relation there, not over Q(z) and not on
        # the actual data, so the search reports it unverified
        chains, ring, points, dual = relations._SEARCH_MODES["p1"]

        def degenerate(values):
            for point in points(values):
                yield [point[0], 0 * point[1], *point[2:]]

        monkeypatch.setitem(relations._SEARCH_MODES, "p1",
                            (chains, ring, degenerate, dual))
        res = relation_search(mode="p1", weight_bound=12)
        assert res.found and res.weight == 3
        assert res.polynomial.terms == {(0, 1, 0, 0, 0, 0): 1}
        assert not res.verified_fresh and not res.verified_dual


@pytest.mark.parametrize("source", [f"random {n}" for n in range(4)]
                         + ["mirror"])
def test_p1_closed_forms_are_the_pullback(source):
    # the mirror side takes A2 = 5(2Q(z)z'^2 + {z,t}) and theta_4 =
    # Qtilde(z)(z'/z)^4/100 from the closed forms: they equal A2 and
    # theta_4 of the full pullback on the common window
    z = (mirror_data(5, 30).z_of_q if source == "mirror"
         else random_series(int(source[-1]), 40))
    pulled = relations._theta4_pair(*a_quantities(z))
    for closed, full in zip(relations._mirror_side(z), pulled):
        n = min(closed.order, full.order)
        assert n - full.val >= 27
        assert (closed.val, closed.known_to(n).coeffs) == \
            (full.val, full.known_to(n).coeffs)


@pytest.mark.parametrize("mode", ["p1", "p2"])
def test_dual_bases_are_the_mirror_side_closed_forms(mode):
    # each mode's dual certificate builds its own side only; through the
    # duality its values are the mirror map's A2 and theta_4 (and A4)
    *_, dual_bases = relations._SEARCH_MODES[mode]
    z = mirror_data(5, 17).z_of_q
    a2, theta4 = relations._mirror_side(z)
    want = ((a2, theta4) if mode == "p1" else
            (a2, theta4 + Q(3, 10) * a2.euler(2) + Q(9, 100) * a2 * a2))
    for got, closed in zip(dual_bases(16), want):
        assert (got.val, got.known_to(16).coeffs) == \
            (closed.val, closed.known_to(16).coeffs)


@pytest.mark.parametrize("order", [6, 40])
def test_p1_draw_rows_follow_the_lowest_degree_monomials(order):
    # every symbol has valuation 1, and theta_4's closed form knows one
    # term more than A2's on a series z of order N: a monomial of degree d
    # is known on q^d .. q^(N - 3 + d), one term further without an A2
    # factor. A random z gives N - 2 coefficient rows where a
    # lowest-degree monomial of the stratum has an A2 factor, N - 1 where
    # none has (theta_4, theta_4' ...): the window that limited sampling z
    z = random_series(0, order)
    a2, theta4 = relations._mirror_side(z)
    assert (a2.val, a2.order, theta4.val, theta4.order) == \
        (1, order - 1, 1, order)
    values = relations._chain_values(P1_CHAINS, (a2, theta4))
    counts = set()
    for weight in range(2, 21):
        monos = relations._monomials(P1_WEIGHTS, weight)
        low = min(map(sum, monos))
        a2_bound = any(e[0] or e[1] for e in monos if sum(e) == low)
        memo = {}
        rows = len(coefficient_rows([monomial_value(e, values, memo)
                                     for e in monos]))
        assert rows == order - 2 + (not a2_bound), weight
        counts.add(rows)
    assert counts == {order - 2, order - 1}


_P = poly([529, -49484500, 45050781250, -2326733398437500,
           988330841064453125, -1326560974121093750000,
           21457672119140625000000])
#: f(z), the weight-0 invariant I1 of any z (see the test below).
I1_OF_Z = RationalFunction(-5 * _P * _P, poly([0, 16])
                           * poly([46, 509375, 156250000]) ** 5)


@pytest.mark.parametrize("source", ["random 0", "random 1", "mirror"])
def test_p1_absolute_invariant_is_a_function_of_z(source):
    # theta_4 = A4 - (3/10)A2'' - (9/100)A2^2, N1 = 32A2theta_4^2
    # - 40theta_4theta_4'' + 45theta_4'^2 (weight 10) and the weight-0
    # I1 = N1^2/(1024theta_4^5) is f(z) = -5p^2/(16z(156250000z^2 + 509375z
    # + 46)^5) on any input z: on a random one as on the mirror map
    z = (mirror_data(5, 30).z_of_q if source == "mirror"
         else random_series(int(source[-1]), 30))
    f = I1_OF_Z
    a2, a4 = a_quantities(z)
    theta4 = a4 - Q(3, 10) * a2.euler(2) - Q(9, 100) * a2 * a2
    t1, t2 = theta4.euler(), theta4.euler(2)
    n1 = 32 * a2 * theta4 * theta4 - 40 * theta4 * t2 + 45 * t1 * t1
    i1, fz = n1 * n1 / (1024 * theta4 ** 5), f.eval_series(z)
    assert i1 == fz
    assert min(i1.order, fz.order) - min(i1.val, fz.val) >= 27


class TestYukawaSideSanity:
    def test_log_derivative_start(self):
        K = yukawa_coupling(6)
        u1 = K.euler() / K
        assert u1.coeff(0) == 0 and u1.coeff(1) == 575
