"""Integer number theory: Baillie-PSW primality and small-modulus helpers."""

from __future__ import annotations

import itertools
import math

__all__ = [
    "is_probable_prime",
    "euler_phi",
    "carmichael_lambda",
    "multiplicative_order",
]

_SMALL_PRIME_BOUND = 1000


def _sieve(bound: int) -> tuple[int, ...]:
    """The primes below bound, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * bound
    flags[:2] = b"\0\0"
    for f in range(2, math.isqrt(bound - 1) + 1):
        if flags[f]:
            flags[f * f :: f] = bytes(len(range(f * f, bound, f)))
    return tuple(itertools.compress(range(bound), flags))


_SMALL_PRIMES = _sieve(_SMALL_PRIME_BOUND)
# trial division by every small prime at once: one gcd with their product
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _strong_probable_prime(n: int, a: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _half(x: int, n: int) -> int:
    """x / 2 mod odd n, by integer halving."""
    x %= n
    return (x + n if x % 2 else x) // 2


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd non-square n.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D) / 4.  With n + 1 = k 2^s, k odd, n passes when U_k = 0 or
    V_(k 2^r) = 0 mod n for some 0 <= r < s.
    """
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    k = n + 1
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # U_1 = 1, V_1 = P = 1; U_2j = U_j V_j, V_2j = V_j^2 - 2 Q^j,
    # U_(j+1) = (U_j + V_j) / 2, V_(j+1) = (D U_j + V_j) / 2
    u, v, qk = 1, 1, Q % n
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = _half(u + v, n), _half(D * u + v, n)
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: trial division, a strong base-2 test, a strong Lucas test.

    Trial division is one gcd with the product of the primes below 1000.
    Deterministic.  It is exact below 2**64 (checked exhaustively), and no
    composite passing it is known at any size.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return n < _SMALL_PRIME_BOUND and n in _SMALL_PRIMES
    if math.isqrt(n) ** 2 == n:
        return False
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("m must be positive")
    total = 1
    for p, k in _factorize(m).items():
        total *= p ** (k - 1) * (p - 1)
    return total


def carmichael_lambda(m: int) -> int:
    """Exponent of the unit group mod m (the largest attainable order)."""
    if m < 1:
        raise ValueError("m must be positive")
    parts = []
    for p, k in _factorize(m).items():
        if p == 2 and k >= 3:
            parts.append(1 << (k - 2))
        else:
            parts.append(p ** (k - 1) * (p - 1))
    return math.lcm(*parts) if parts else 1


def multiplicative_order(a: int, m: int) -> int:
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError("order undefined: arguments not coprime")
    order = 1
    x = a
    while x != 1:
        x = x * a % m
        order += 1
    return order
