"""Field presets and prime-element search.

Two preset families expose rings whose integers are plain coefficient
vectors over a power basis: quadratic fields Q(sqrt(d)) for square-free
d = 2, 3 mod 4 (so the ring of integers is Z[sqrt(d)]), and cyclotomic
fields Q(zeta_m).  A generic descriptor wraps an arbitrary caller-supplied
modulus.  Key material comes from either rational primes embedded as
scalars or from ring elements whose norm is a rational prime; a prime
norm forces the quotient by the element to be a prime field, so such an
element generates a prime ideal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import AssociatePrimesError, SearchExhaustedError
from .lattice import contains, hnf
from .primes import carmichael_lambda, euler_phi, is_probable_prime, multiplicative_order
from .ring import RingContext, RingElement, ideal_matrix, make_ring, norm

__all__ = [
    "FieldDescriptor",
    "PrimeElement",
    "quadratic_field",
    "cyclotomic_field",
    "generic_field",
    "parse_field_spec",
    "unramified",
    "is_inert_prime",
    "find_inert_prime",
    "find_prime_norm_element",
    "totient_of_product",
]

_SQUARE_FREE_TRIAL_BOUND = 10**6
_SEARCH_ATTEMPT_BOUND = 10**5
# Largest ring degree a field spec may ask for, four times the largest
# benchmarked degree (32): key files are untrusted, and the norm and HNF
# work of parsing a key grows at least as n^3.
_MAX_DEGREE = 128


@dataclass(frozen=True)
class FieldDescriptor:
    kind: str
    ring: RingContext
    param: int | None = None

    def __post_init__(self):
        if self.kind not in ("quadratic", "cyclotomic", "generic"):
            raise ValueError("unknown field kind")

    def spec_string(self) -> str:
        if self.kind == "quadratic":
            return f"quadratic:d={self.param}"
        if self.kind == "cyclotomic":
            return f"cyclotomic:m={self.param}"
        return "generic:phi=" + ",".join(str(c) for c in self.ring.phi_coeffs)


@dataclass(frozen=True)
class PrimeElement:
    """An element meant to generate a prime ideal; totient_of_product refuses units.

    norm_abs is computed on first read and kept; equality and hashing see
    only the element.
    """

    element: RingElement

    @cached_property
    def norm_abs(self) -> int:
        return abs(norm(self.element.context, self.element))


def _is_square_free(d: int) -> bool:
    """Trial division up to 10**6, then a square test on the cofactor.

    A cofactor below 10**18 left by the trial division has at most two
    prime factors, all above 10**6, so it has a square factor exactly
    when it is a perfect square.  Larger cofactors are refused.
    """
    x = abs(d)
    f = 2
    while f <= _SQUARE_FREE_TRIAL_BOUND and f * f <= x:
        if x % f == 0:
            x //= f
            if x % f == 0:
                return False
        f += 1 if f == 2 else 2
    if x >= _SQUARE_FREE_TRIAL_BOUND**3:
        raise ValueError("cannot decide whether d is square-free (cofactor >= 10**18)")
    return x <= 1 or math.isqrt(x) ** 2 != x


def quadratic_field(d: int) -> FieldDescriptor:
    """Q(sqrt(d)) with integers Z[sqrt(d)], requiring d = 2, 3 mod 4."""
    if d in (0, 1):
        raise ValueError("d must not be 0 or 1")
    if not _is_square_free(d):
        raise ValueError("not square-free")
    if d % 4 not in (2, 3):
        raise ValueError("NC-property violated (d = 1 mod 4)")
    return FieldDescriptor("quadratic", make_ring((d, 0)), d)


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            out[k - dn] = c
            for j, dj in enumerate(den):
                num[k - dn + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division not exact")
    return out


def _cyclotomic_poly(m: int, cache: dict[int, list[int]]) -> list[int]:
    if m in cache:
        return cache[m]
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divexact(poly, _cyclotomic_poly(d, cache))
    cache[m] = poly
    return poly


def cyclotomic_field(m: int) -> FieldDescriptor:
    """Q(zeta_m): ring modulus is the m-th cyclotomic polynomial."""
    if m < 3:
        raise ValueError("m must be at least 3")
    poly = _cyclotomic_poly(m, {})
    assert len(poly) - 1 == euler_phi(m)
    ring = make_ring(tuple(-c for c in poly[:-1]))
    return FieldDescriptor("cyclotomic", ring, m)


def generic_field(phi_coeffs: Sequence[int]) -> FieldDescriptor:
    return FieldDescriptor("generic", make_ring(phi_coeffs))


def parse_field_spec(spec: str) -> FieldDescriptor:
    """Parse quadratic:d=<int> | cyclotomic:m=<int> | generic:phi=<csv>.

    Specs come from untrusted key files, so a degree above _MAX_DEGREE is
    refused before any polynomial is built.
    """
    kind, sep, rest = spec.partition(":")
    name, eq, value = rest.partition("=")
    bad = ValueError(f"bad field spec: {spec!r}")
    too_large = ValueError(f"field degree above the limit of {_MAX_DEGREE}")
    if not sep or not eq:
        raise bad
    try:
        numbers = [int(c) for c in value.split(",")]
    except ValueError:
        raise bad from None
    if kind == "generic" and name == "phi":
        if len(numbers) > _MAX_DEGREE:
            raise too_large
        return generic_field(numbers)
    if len(numbers) == 1 and kind == "quadratic" and name == "d":
        return quadratic_field(numbers[0])
    if len(numbers) == 1 and kind == "cyclotomic" and name == "m":
        m = numbers[0]
        # euler_phi(m) >= sqrt(m / 2), so no larger m passes the cap, and
        # refusing it first keeps euler_phi's trial division short
        if m > 2 * _MAX_DEGREE**2 or (m >= 3 and euler_phi(m) > _MAX_DEGREE):
            raise too_large
        return cyclotomic_field(m)
    raise bad


def unramified(field: FieldDescriptor, p: int) -> bool:
    """p is coprime to 4d (quadratic) or to m (cyclotomic).

    For a prime p this says p does not ramify in the ring.  A generic
    field has no known discriminant, so no p counts as unramified there.
    """
    if field.kind == "quadratic":
        return math.gcd(p, 4 * field.param) == 1
    if field.kind == "cyclotomic":
        return math.gcd(p, field.param) == 1
    return False


def _inert(field: FieldDescriptor, p: int) -> bool:
    """is_inert_prime for a p already known to be prime."""
    if field.kind == "generic":
        raise ValueError("no inert-prime criterion for generic fields")
    if not unramified(field, p):
        return False
    if field.kind == "quadratic":
        return pow(field.param % p, (p - 1) // 2, p) == p - 1
    m = field.param
    return multiplicative_order(p, m) == carmichael_lambda(m)


def is_inert_prime(field: FieldDescriptor, p: int) -> bool:
    """Test whether the rational prime p stays prime-like in the field.

    Quadratic: p is unramified and d is a quadratic non-residue mod p.
    Cyclotomic: p is unramified and the multiplicative order of p mod m
    is the largest attainable (the Carmichael function of m); when the
    unit group mod m is cyclic this is exactly the inert condition, and
    in every case p*q generates a square-free ideal whose totient
    divides (p^n - 1)(q^n - 1), which is what key generation needs.
    """
    if not is_probable_prime(p):
        raise ValueError("p must be prime")
    return _inert(field, p)


def _scalar_element(field: FieldDescriptor, p: int) -> PrimeElement:
    return PrimeElement(field.ring.element((p,) + (0,) * (field.ring.degree - 1)))


def find_inert_prime(
    field: FieldDescriptor,
    bits: int,
    rng,
    exclude: int | None = None,
) -> PrimeElement:
    """Random search for an inert rational prime of the given bit length."""
    if bits < 2:
        raise ValueError("bits must be at least 2")
    lo, hi = 1 << (bits - 1), 1 << bits
    for _ in range(_SEARCH_ATTEMPT_BOUND):
        cand = rng.randrange(lo, hi)
        # primality first: trial division rejects most candidates before
        # the residue test would spend a modexp on them
        if cand != exclude and is_probable_prime(cand) and _inert(field, cand):
            return _scalar_element(field, cand)
    raise SearchExhaustedError("search exhausted: no inert prime found")


def find_prime_norm_element(
    field: FieldDescriptor,
    coeff_bound: int,
    rng,
) -> PrimeElement:
    """Random search for an element whose norm is a rational prime.

    Resamples scalar vectors whenever the degree allows a non-scalar
    generator, so the resulting ideals are not forced to be rational.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    ctx = field.ring
    n = ctx.degree
    for _ in range(_SEARCH_ATTEMPT_BOUND):
        coeffs = tuple(rng.randrange(-coeff_bound, coeff_bound + 1) for _ in range(n))
        if n > 1 and not any(coeffs[1:]):
            continue
        cand = PrimeElement(ctx.element(coeffs))
        if is_probable_prime(cand.norm_abs):
            return cand
    raise SearchExhaustedError("search exhausted: no prime-norm element found")


def totient_of_product(ctx: RingContext, alpha: PrimeElement, beta: PrimeElement) -> int:
    """(|N(alpha)| - 1) * (|N(beta)| - 1) for non-associate prime elements.

    Units and zero (norm at most 1) are refused.  Associates have equal
    norms; with equal norms, (beta) is inside (alpha) exactly when the
    two ideals are equal, since both have index |N(alpha)| in the ring.
    """
    if alpha.norm_abs <= 1 or beta.norm_abs <= 1:
        raise ValueError("norm at most 1: a unit or zero is not a prime element")
    if alpha.norm_abs == beta.norm_abs and contains(
        hnf(ideal_matrix(ctx, alpha.element).entries), beta.element.coeffs
    ):
        raise AssociatePrimesError("associate prime elements generate the same ideal")
    return (alpha.norm_abs - 1) * (beta.norm_abs - 1)

