"""Elementary integer arithmetic: sieves, factorization, prime powers."""

from __future__ import annotations

from .errors import DomainError

FACTOR_LIMIT = 10**12


def primes_up_to(n: int) -> list[int]:
    """All primes p <= n by Eratosthenes sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] by trial division, p ascending.

    Supports n up to FACTOR_LIMIT (trial division to sqrt(n) is cheap there).
    """
    if not 1 <= n <= FACTOR_LIMIT:
        raise DomainError(f"factorize: need 1 <= n <= {FACTOR_LIMIT}, got {n}")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # remaining prime factors are of the form 6k +- 1
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def prime_power_base(q: int) -> int | None:
    """Return p if q = p^k for a prime p and k >= 1, else None."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    return fac[0][0]

