"""Independent oracles used to derive the frozen expected values in the
tests.

Each oracle is deliberately kept independent of the implementation path it
checks: quadrature where the package uses Lanczos, direct series where the
package uses Euler-Maclaurin corrections, brute-force enumeration where the
package uses multiplicative formulas, closed-form root counts where the
package generates roots by reflection, and a doubled-resolution trapezoid rule
for the K-Bessel integral.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from fractions import Fraction
from math import gcd

import numpy as np


def gamma_quadrature(s: complex, h: float = 0.05, u_min: float = -160.0, u_max: float = 8.0) -> complex:
    """Gamma(s) = int_0^inf t^(s-1) e^-t dt via t = e^u and the trapezoid
    rule; doubly-exponential right decay makes the rule spectrally accurate.
    Needs Re(s) > 0; the left cutoff leaves a tail below e^(Re(s) u_min)."""
    s = complex(s)
    us = np.arange(u_min, u_max, h)
    integrand = np.exp(s * us - np.exp(us))
    return complex(h * integrand.sum())


def zeta_series_with_integral_tail(s: float, n_terms: int = 10**7) -> float:
    """Direct Dirichlet series plus the integral tail int_N^inf x^-s dx;
    the first omitted trapezoid correction N^-s / 2 bounds the error.
    Real s > 1 only."""
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    return float(np.sum(ns**-s)) + n_terms ** (1.0 - s) / (s - 1.0)


def bernoulli_exact(m: int) -> list[Fraction]:
    """B_0, B_1, ..., B_m as exact rationals by the Akiyama-Tanigawa
    recurrence (which gives B_1 = +1/2)."""
    row: list[Fraction] = []
    bernoulli: list[Fraction] = []
    for j in range(m + 1):
        row.append(Fraction(1, j + 1))
        for i in range(j, 0, -1):
            row[i - 1] = i * (row[i - 1] - row[i])
        bernoulli.append(row[0])
    return bernoulli


def zeta_euler_maclaurin_highorder(s: complex, n_terms: int = 64, corrections: int = 30) -> complex:
    """Independent Euler-Maclaurin evaluation at fixed high order, written
    directly from the summation formula (no adaptivity, exact Bernoulli
    numbers from ``bernoulli_exact``)."""
    s = complex(s)
    bernoulli = bernoulli_exact(2 * corrections)
    total = sum(complex(n) ** (-s) for n in range(1, n_terms))
    total += complex(n_terms) ** (1.0 - s) / (s - 1.0)
    total += 0.5 * complex(n_terms) ** (-s)
    poch = s
    factorial = 2.0
    for k in range(1, corrections + 1):
        term = float(bernoulli[2 * k]) / factorial * poch * complex(n_terms) ** (1.0 - s - 2 * k)
        total += term
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        factorial *= (2 * k + 1) * (2 * k + 2)
    return total


def zeta_euler_product(s: complex, limit: int) -> complex:
    """Truncated Euler product over primes < limit."""
    s = complex(s)
    sieve = bytearray(b"\x01") * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    value = 1.0 + 0.0j
    for p in range(2, limit):
        if sieve[p]:
            value *= 1.0 / (1.0 - complex(p) ** (-s))
    return value


def bessel_k_quadrature(order: complex, y: float, h: float = 0.02, t_max: float = 40.0) -> complex:
    """K_order(y) by brute trapezoid on [0, t_max] at fixed fine resolution
    (far more nodes than the package ever uses)."""
    order = complex(order)
    t = np.arange(0.0, t_max, h)
    c = -y * np.cosh(t)
    keep = c > -745.0  # exp underflow guard
    t = t[keep]
    c = c[keep]
    a, b = order.real, order.imag
    e_plus = np.exp(c + a * t)
    e_minus = np.exp(c - a * t)
    f = 0.5 * (e_plus + e_minus) * np.cos(b * t) + 0.5j * (e_plus - e_minus) * np.sin(b * t)
    f[0] *= 0.5
    return complex(h * f.sum())


def bessel_k_node_sum(order: complex, y: float, h: float, nsteps: int) -> complex:
    """h (f(0)/2 + f(h) + ... + f(nsteps h)) for f(t) = exp(-y cosh t)
    cosh(order t): the trapezoid sum over exactly those nodes, as a plain
    loop on the complex cosh."""
    order = complex(order)
    total = 0.5 * cmath.exp(-y)
    for k in range(1, nsteps + 1):
        t = k * h
        total += cmath.exp(-y * cmath.cosh(t)) * cmath.cosh(order * t)
    return h * total


def divisor_sum_brute(n: int, s: complex) -> complex:
    """sigma_s(n) by direct enumeration of every divisor."""
    s = complex(s)
    return sum(complex(d) ** s for d in range(1, n + 1) if n % d == 0)


def det_laplace(matrix: list[list[complex]]) -> complex:
    """Small-matrix determinant by Laplace expansion along the first row."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = 0j
    for col in range(size):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        total += (-1) ** col * matrix[0][col] * det_laplace(minor)
    return total



def positive_root_count_closed_form(cartan_type: str, rank: int) -> int:
    """|Phi+| of a simple type from the classical closed forms."""
    n = rank
    if cartan_type == "A":
        return n * (n + 1) // 2
    if cartan_type in ("B", "C"):
        return n * n
    if cartan_type == "D":
        return n * (n - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[(cartan_type, n)]


def levi_positive_roots(p) -> tuple[tuple[int, ...], ...]:
    """Positive roots of a ParabolicDatum's Levi: coefficient zero at the
    removed node."""
    k = p.removed_index
    return tuple(v for v in p.system.positive_roots if v[k] == 0)


def _pairing(cartan):
    """pair(u, v) = 2 (u, v) for coefficient vectors over the simple roots,
    from the integer Gram matrix C[i][j] d_j = 2 (alpha_i, alpha_j), whose
    symmetrizer d_i in {1, 2, 3} is found by search."""
    n = len(cartan)
    d = next(
        d for d in itertools.product((1, 2, 3), repeat=n)
        if all(cartan[i][j] * d[j] == cartan[j][i] * d[i] for i in range(n) for j in range(n))
    )
    gram = [[cartan[i][j] * d[j] for j in range(n)] for i in range(n)]

    def pair(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) if u[i] for j in range(n) if v[j])

    return pair


def coroot_levels(p) -> dict[tuple[int, ...], Fraction]:
    """Level <alpha~, beta^vee> of each nilradical root beta of a
    ParabolicDatum, from the definition: <rho_P, beta^vee> / <rho_P, alpha_k^vee>
    with rho_P half the sum of the nilradical's roots, which is a multiple of
    the fundamental weight of the removed node k.  Each level is one exact
    Fraction.
    """
    k, n = p.removed_index, p.system.rank
    pair = _pairing(p.system.cartan)
    nilradical = [v for v in p.system.positive_roots if v[k] >= 1]
    two_rho = [sum(v[i] for v in nilradical) for i in range(n)]
    alpha_k = [int(i == k) for i in range(n)]
    # <rho_P, beta^vee> = 2 (rho_P, beta) / (beta, beta) = pair(2 rho_P, beta) / pair(beta, beta)
    unit = Fraction(pair(two_rho, alpha_k), pair(alpha_k, alpha_k))
    return {v: Fraction(pair(two_rho, v), pair(v, v)) / unit for v in nilradical}


def coroots_from_lengths(system) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Coroot 2 beta / (beta, beta) of each positive root beta over the simple
    coroots alpha_i^vee = 2 alpha_i / (alpha_i, alpha_i): coefficient i is
    v_i (alpha_i, alpha_i) / (beta, beta), exact in integers, from the Gram
    matrix rather than from reflections."""
    n = system.rank
    pair = _pairing(system.cartan)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    simple_norms = [pair(e, e) for e in units]
    coroots = {}
    for v in system.positive_roots:
        norm = pair(v, v)
        assert all(v[i] * simple_norms[i] % norm == 0 for i in range(n)), v
        coroots[v] = tuple(v[i] * simple_norms[i] // norm for i in range(n))
    return coroots


def level_highest_weights_and_dimensions(p, levels):
    """For each level, given as roots, of a ParabolicDatum: the Levi-highest
    coroots u (no u + alpha_i^vee, i != k, in the level) and, for each, the
    dimension Weyl's formula gives the irreducible representation of the dual
    Levi ^L M with highest weight u,

        prod_beta <2u + 2 rho, beta> / prod_beta <2 rho, beta>,

    over M's positive roots beta, 2 rho the sum of their coroots and
    <x, beta> = sum_{i,j} x_j beta_i C[i][j] for a coroot-coefficient x.
    """
    cartan, k, n = p.system.cartan, p.removed_index, p.system.rank
    coroot = coroots_from_lengths(p.system)
    levi = [v for v in p.system.positive_roots if v[k] == 0]
    two_rho = [sum(coroot[v][i] for v in levi) for i in range(n)]

    def pairing(x, beta):
        return sum(x[j] * beta[i] * cartan[i][j] for i in range(n) if beta[i] for j in range(n) if x[j])

    denominator = 1
    for beta in levi:
        denominator *= pairing(two_rho, beta)
    result = []
    for roots in levels:
        level = {coroot[v] for v in roots}
        highest = [
            u for u in level
            if not any(u[:i] + (u[i] + 1,) + u[i + 1 :] in level for i in range(n) if i != k)
        ]
        dims = []
        for u in highest:
            shifted = [2 * u[i] + two_rho[i] for i in range(n)]
            numerator = 1
            for beta in levi:
                numerator *= pairing(shifted, beta)
            assert numerator % denominator == 0, (u, numerator, denominator)
            dims.append(numerator // denominator)
        result.append((highest, dims))
    return result


def eisenstein_brute(z: complex, s: complex, radius: int) -> complex:
    """E(z, s) straight from the folded coprime definition: a plain double
    loop independent of the kernel implementations."""
    z = complex(z)
    s = complex(s)
    x, y = z.real, z.imag
    total = 1.0 + 0.0j  # folded (0, +-1) term
    for m in range(1, radius + 1):
        my2 = (m * y) ** 2
        for n in range(-radius, radius + 1):
            if gcd(m, abs(n)) != 1:
                continue
            w = (m * x + n) ** 2 + my2
            total += w ** (-s)
    return cmath.exp(s * cmath.log(y)) * total


def eisenstein_lattice_numpy(xs, y: float, s: complex, radius: int):
    """E(x + i y, s) on a panel of x values: an independent vectorized
    coprime lattice sum for quadrature-extraction oracles."""
    s = complex(s)
    xs = np.asarray(xs, dtype=np.float64)
    ms = np.arange(1, radius + 1, dtype=np.int64)
    ns = np.arange(-radius, radius + 1, dtype=np.int64)
    coprime = np.gcd(ms[:, None], np.abs(ns)[None, :]) == 1
    mm, nn = np.broadcast_arrays(ms[:, None], ns[None, :])
    mf = mm[coprime].astype(np.float64)
    nf = nn[coprime].astype(np.float64)
    my2 = (mf * y) ** 2
    out = np.empty(xs.shape[0], dtype=np.complex128)
    for i, x in enumerate(xs):
        u = mf * x + nf
        out[i] = np.exp(-s * np.log(u * u + my2)).sum()
    return (out + 1.0) * complex(y) ** s


@functools.cache
def _least_prime_factors(radius: int) -> tuple[int, ...]:
    # p(r) for r = 0..radius, p(0) = p(1) = 1; r is prime where p(r) = r
    least = list(range(radius + 1))
    for p in range(2, math.isqrt(radius) + 1):
        if least[p] == p:
            for m in range(p * p, radius + 1, p):
                least[m] = min(least[m], p)
    return tuple(least)


@functools.cache
def _totients(radius: int) -> tuple[int, ...]:
    # phi(r) for r = 1..radius, phi(p^e m) = p^(e-1) (p - 1) phi(m)
    least = _least_prime_factors(radius)
    phi = [0, 1]
    for r in range(2, radius + 1):
        p, m = least[r], r // least[r]
        phi.append(phi[m] * (p if m % p == 0 else p - 1))
    return tuple(phi[1:])


@functools.cache
def coprime_tail(s: complex, radius: int):
    """(T, zeta(2s - 1) / zeta(2s)) as mpmath numbers (Re s > 1), with

        T = sum_{r > R} phi(r) r^(-2s) = zeta(2s - 1) / zeta(2s) - sum_{r <= R} phi(r) r^(-2s)

    (Hardy & Wright, An Introduction to the Theory of Numbers, Thm 288),
    T to 30 digits: the difference cancels about 2 Re s log10(R) digits,
    which the working precision adds."""
    import mpmath

    with mpmath.workdps(35 + int(2 * complex(s).real * math.log10(radius))):
        s = mpmath.mpc(s)
        ratio = mpmath.zeta(2 * s - 1) / mpmath.zeta(2 * s)
        # r^(-2s) multiplicatively: a power per prime, a product per composite
        least = _least_prime_factors(radius)
        powers = [mpmath.mpf(1)] * (radius + 1)
        for r in range(2, radius + 1):
            p = least[r]
            powers[r] = mpmath.power(r, -2 * s) if p == r else powers[p] * powers[r // p]
        head = mpmath.fsum(phi * power for phi, power in zip(_totients(radius), powers[1:]))
        return +(ratio - head), +ratio


def lattice_tail_correction(z: complex, s: complex, radius: int, dps: int = 30) -> complex:
    """y^s C, the coprime-density estimate of the lattice sum's tail past
    max-norm ``radius``, at ``dps`` digits (Re s > 1):

        C = T / (2 y) * sum over the four edges AB
            of int_0^1 |A + t (B - A)|^(-2s) |A x B| dt,

    AB running over the parallelogram with corners z + 1, z - 1, -z - 1,
    -z + 1, and T = sum_{r > R} phi(r) r^(-2s) the weighted count of the
    shells past R (coprime_tail).  Each edge integral is closed: with u the
    coordinate along the edge from the foot of the perpendicular and d the
    line's distance from 0, |w|^2 = u^2 + d^2 and int_0^u (t^2 + d^2)^(-s) dt =
    u d^(-2s) 2F1(1/2, s; 3/2; -u^2 / d^2) (DLMF 15.6.1), with mpmath's
    hyp2f1.  Walks all four edges in the edge parameter, where the package
    doubles two edges and integrates numerically in another variable.
    """
    import mpmath

    tail, _ = coprime_tail(s, radius)
    with mpmath.workdps(dps):
        z, s = mpmath.mpc(z), mpmath.mpc(s)
        corners = [z + 1, z - 1, -z - 1, -z + 1]
        total = mpmath.mpf(0)
        for a, b in zip(corners, corners[1:] + corners[:1]):
            length = abs(b - a)
            cross = abs(mpmath.im(mpmath.conj(a) * b))
            d = cross / length
            u_a = mpmath.re(mpmath.conj(b - a) * a) / length  # coordinate of A along AB

            def primitive(u):
                return u * d ** (-2 * s) * mpmath.hyp2f1(0.5, s, 1.5, -((u / d) ** 2))

            total += cross / length * (primitive(u_a + length) - primitive(u_a))
        y = mpmath.im(z)
        return complex(y**s * tail * total / (2 * y))


def extract_mode_brute(n: int, y: float, s: complex, nodes: int, radius: int) -> complex:
    """Trapezoid extraction of a_n from the independent lattice panel."""
    xs = np.arange(nodes) / nodes
    values = eisenstein_lattice_numpy(xs - np.round(xs), y, s, radius)
    weights = np.exp(-2j * np.pi * n * xs)
    return complex(np.mean(values * weights))


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d / n) for n >= 1, in exact integers: multiplicative
    in n, with Euler's criterion at odd primes and (d / 2) = 0 for even d,
    1 for d = +-1 mod 8 and -1 for d = +-3 mod 8."""
    value, p = 1, 2
    while n > 1:
        while n % p == 0:
            n //= p
            if p == 2:
                value *= 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
            else:
                residue = pow(d, (p - 1) // 2, p)
                value *= -1 if residue == p - 1 else residue
        p += 1
    return value


def cm_point(d: int) -> complex:
    """z_D = (-1 + sqrt D)/2 for D = 1 mod 4, sqrt(D/4) otherwise; y_D = sqrt|D|/2."""
    y = abs(d) ** 0.5 / 2.0
    return complex(-0.5 if d % 4 == 1 else 0.0, y)


def eisenstein_cm(d: int, s: complex, dps: int = 30) -> complex:
    """E(z_D, s) at the CM point of a fundamental discriminant D < 0 of class
    number one, in closed form at ``dps`` digits:

        E(z_D, s) = (w/2) y_D^s zeta(s) L(s, chi_D) / zeta(2s),

    since |m z_D + n|^2 is the principal form of discriminant D, which
    represents each ideal norm w times, and the Epstein zeta of the one
    class is w zeta(s) L(s, chi_D) = zeta(2s) times the coprime sum.  w is
    6, 4 or 2 for D = -3, -4 and the rest, and
    L(s, chi_D) = |D|^(-s) sum_a chi_D(a) zeta(s, a/|D|) with mpmath's
    Hurwitz zeta.  Shares no code with the package.
    """
    import mpmath

    with mpmath.workdps(dps):
        s = mpmath.mpc(s)
        q = abs(d)
        w = {-3: 6, -4: 4}.get(d, 2)
        l_value = mpmath.fsum(
            kronecker(d, a) * mpmath.zeta(s, mpmath.mpf(a) / q) for a in range(1, q + 1) if gcd(a, q) == 1
        ) * mpmath.mpf(q) ** (-s)
        y = mpmath.sqrt(q) / 2
        return complex(w / 2 * y**s * mpmath.zeta(s) * l_value / mpmath.zeta(2 * s))


def sl2z_pullback(z: complex, dps: int = 20):
    """Image of z in the fundamental domain |x| <= 1/2, |z| >= 1, as an mpmath
    complex, by plain translate/invert steps at ``dps`` digits (the binary
    inputs are taken exactly).  Shares no code with the package."""
    import mpmath

    with mpmath.workdps(dps):
        w = mpmath.mpc(z.real, z.imag)
        while True:
            w -= mpmath.nint(w.real)
            if abs(w) >= 1:
                return w
            w = -1 / w


def _xi_mpmath(u):
    """xi(u) = pi^(-u/2) Gamma(u/2) zeta(u) at mpmath's working precision,
    through xi(1 - u) left of 0, where gamma(u / 2) has its poles."""
    import mpmath

    if u.real < 0:
        u = 1 - u
    return mpmath.pi ** (-u / 2) * mpmath.gamma(u / 2) * mpmath.zeta(u)


def _mode_mpmath(n: int, y, s):
    """xi(2s) a_n(y, s) = 2 n^(s-1/2) sigma_(1-2s)(n) sqrt(y) K_(s-1/2)(2 pi n y)
    at mpmath's working precision, sigma by enumerating the divisors."""
    import mpmath

    sigma = mpmath.fsum(mpmath.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
    return 2 * mpmath.mpf(n) ** (s - 0.5) * sigma * mpmath.sqrt(y) * mpmath.besselk(s - 0.5, 2 * mpmath.pi * n * y)


def fourier_coefficient_mpmath(n: int, y: float, s: complex, dps: int = 30) -> complex:
    """a_n(y, s), n >= 1, from the closed form in mpmath at ``dps`` digits.
    Shares no code with the package."""
    import mpmath

    with mpmath.workdps(dps):
        s = mpmath.mpc(s)
        return complex(_mode_mpmath(n, mpmath.mpf(y), s) / _xi_mpmath(2 * s))


def eisenstein_mpmath(z: complex, s: complex, dps: int = 20) -> complex:
    """E(z, s) from its Fourier expansion in mpmath at ``dps`` digits.

    z is first pulled back by ``sl2z_pullback``, then the expansion is summed
    at the image with mpmath's own gamma, zeta and K-Bessel until a mode
    falls below 10^-dps of the total; xi(u) is taken as xi(1 - u) for
    Re u < 0.  Shares no code with the package.
    """
    import mpmath

    with mpmath.workdps(dps):
        w = sl2z_pullback(z, dps)
        x, y = w.real, w.imag
        s = mpmath.mpc(s)

        xi_2s = _xi_mpmath(2 * s)
        total = y**s + _xi_mpmath(2 * s - 1) / xi_2s * y ** (1 - s)
        n = 0
        while True:
            n += 1
            a_n = _mode_mpmath(n, y, s) / xi_2s
            total += 2 * a_n * mpmath.cos(2 * mpmath.pi * n * x)
            if abs(a_n) < mpmath.mpf(10) ** -dps * abs(total):
                return complex(total)
