"""Modularity of s = 3, 4: the mirror-map bundle against eta products, the
cubic theta function and Eisenstein series, coefficient by coefficient.

For s = 3 and s = 4 mirror symmetry is usual modularity (PAPER.md):
f0~(q) is a modular form of weight 1 (s = 3) or 2 (s = 4), and z(q) a
modular function of level 3 or 2. Every series here is written with its
q^(n/24) prefactors collected, so eta(tau)^24 is q * prod (1 - q^n)^24.
"""

from math import isqrt

from mirrormap.mirror import mirror_data
from mirrormap.series import PowerSeries

#: Coefficients through q^100.
N = 101


def series(coeffs, order=N):
    return PowerSeries("q", 0, coeffs, order)


def eta_product(k, e, order=N):
    """prod_{n >= 1} (1 - q^(kn))^e below q^order."""
    c = [1] + [0] * (order - 1)
    for step in range(k, order, k):
        for i in range(order - 1, step - 1, -1):
            c[i] -= c[i - step]
    return series(c, order) ** e


def cubic_theta(order=N):
    """a(q) = sum over m, n in Z of q^(m^2 + mn + n^2)."""
    c = [0] * order
    bound = isqrt(2 * order) + 1  # m^2 + mn + n^2 >= (m^2 + n^2) / 2
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            k = m * m + m * n + n * n
            if k < order:
                c[k] += 1
    return series(c, order)


def eisenstein(k, factor, order):
    """1 + factor * sum_{n >= 1} sigma_{k-1}(n) q^n."""
    return series([1] + [factor * sum(d ** (k - 1) for d in range(1, n + 1)
                                      if n % d == 0)
                         for n in range(1, order)], order)


def test_s3_f0_tilde_is_the_cubic_theta_function():
    assert mirror_data(3, N).f0_tilde.known_to(N) == cubic_theta()


def test_s3_z_is_the_cubed_cubic_theta_quotient():
    # z = c^3 / (27 a^3), with c^3 / 27 = q prod (1 - q^3n)^9 / (1 - q^n)^3
    c3_27 = (eta_product(3, 9) * eta_product(1, -3)).shift(1)
    z = c3_27 / cubic_theta() ** 3
    assert mirror_data(3, N).z_of_q.known_to(N) == z.known_to(N)


def test_s3_eisenstein_series():
    order = 61  # through q^60
    md = mirror_data(3, N)
    f, z = md.f0_tilde.known_to(order), md.z_of_q.known_to(order)
    assert eisenstein(4, 240, order) == f ** 4 * (1 + 216 * z)
    assert eisenstein(6, -504, order) == \
        f ** 6 * (1 - 540 * z - 5832 * z * z)


def test_s4_z_and_f0_tilde_are_eta_quotients():
    # eta(tau)^24 = q P1 and eta(2 tau)^24 = q^2 P2
    p1, p2 = eta_product(1, 24), eta_product(2, 24)
    hauptmodul_denominator = p1 + 64 * p2.shift(1)
    md = mirror_data(4, N)
    z = (p1 * p2).shift(1) / hauptmodul_denominator ** 2
    assert md.z_of_q.known_to(N) == z.known_to(N)
    f0_squared = hauptmodul_denominator / (eta_product(1, 8)
                                           * eta_product(2, 8))
    assert (md.f0_tilde ** 2).known_to(N) == f0_squared.known_to(N)
