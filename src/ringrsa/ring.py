"""Exact arithmetic in Z[x]/(phi(x)) on integer coefficient vectors.

The monic modulus of degree n is stored through the tuple
(phi_0, ..., phi_{n-1}) of

    phi(x) = x^n - phi_{n-1} x^{n-1} - ... - phi_1 x - phi_0

so its companion ("rotation") matrix H carries an identity block below the
top row and (phi_0, ..., phi_{n-1}) as its last column.  A ring element is
the column vector of polynomial coefficients; multiplication by x is
multiplication by H, and the ideal matrix of f stacks f, Hf, ..., H^{n-1}f
as columns, which equals f(H).  H is never stored: multiplying by x is a
shift plus one substitution of x^n, which costs O(n).  All arithmetic is
exact over the integers (or Fractions for the rational helpers); no
floating point anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .lattice import determinant

__all__ = [
    "RingContext",
    "RingElement",
    "RationalRingElement",
    "IdealMatrix",
    "make_ring",
    "ideal_matrix",
    "conv_mul",
    "conv_pow",
    "trace",
    "norm",
    "rational_inverse",
]

_ROOT_SCREEN_BOUND = 10**6


def _phi_eval(phi_coeffs: tuple[int, ...], t: int) -> int:
    acc = 1
    for c in reversed(phi_coeffs):
        acc = acc * t - c
    return acc


def _rational_root_screen(phi_coeffs: tuple[int, ...]) -> None:
    c0 = phi_coeffs[0]
    if c0 == 0:
        raise ValueError("reducible minimal polynomial (x divides phi)")
    bound = min(_ROOT_SCREEN_BOUND, abs(c0))
    for cand in range(1, bound + 1):
        if c0 % cand:
            continue
        if _phi_eval(phi_coeffs, cand) == 0 or _phi_eval(phi_coeffs, -cand) == 0:
            raise ValueError("reducible minimal polynomial (rational root found)")


@dataclass(frozen=True)
class RingContext:
    """Z[x]/(phi) given by the modulus coefficients; build it with make_ring."""

    phi_coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.phi_coeffs)

    def element(self, coeffs: Sequence[int]) -> "RingElement":
        return RingElement(self, tuple(operator.index(c) for c in coeffs))

    def rational_element(self, coeffs: Sequence) -> "RationalRingElement":
        return RationalRingElement(self, tuple(Fraction(c) for c in coeffs))

    def zero(self) -> "RingElement":
        return RingElement(self, (0,) * self.degree)

    def one(self) -> "RingElement":
        return RingElement(self, (1,) + (0,) * (self.degree - 1))


def make_ring(phi_coeffs: Sequence[int]) -> RingContext:
    """Build Z[x]/(phi), rejecting moduli with an integer root.

    The screen tests every divisor of phi_0 up to 10**6, both signs; it
    catches linear factors only, so the caller still asserts
    irreducibility for exotic moduli.
    """
    coeffs = tuple(operator.index(c) for c in phi_coeffs)
    if not coeffs:
        raise ValueError("degree must be at least 1")
    if len(coeffs) > 1:
        _rational_root_screen(coeffs)
    return RingContext(coeffs)


@dataclass(frozen=True)
class RingElement:
    context: RingContext
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.context.degree:
            raise ValueError("coefficient vector has wrong length")

    def __add__(self, other: "RingElement") -> "RingElement":
        _claim(self.context, other)
        return RingElement(
            self.context, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        _claim(self.context, other)
        return RingElement(
            self.context, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "RingElement":
        return RingElement(self.context, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "RingElement") -> "RingElement":
        return conv_mul(self.context, self, other)

    def __pow__(self, m: int) -> "RingElement":
        return conv_pow(self.context, self, m)


@dataclass(frozen=True)
class RationalRingElement:
    context: RingContext
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.context.degree:
            raise ValueError("coefficient vector has wrong length")


Element = Union[RingElement, RationalRingElement]


@dataclass(frozen=True)
class IdealMatrix:
    """Columns f, Hf, ..., H^{n-1}f of a generator f; equals f(H)."""

    entries: tuple[tuple[int, ...], ...]


def _claim(ctx: RingContext, elem: Element) -> None:
    if elem.context != ctx:
        raise ValueError("context mismatch")


def _times_x(phi: tuple[int, ...], v: Sequence[int]) -> tuple[int, ...]:
    """x * v: shift every coefficient up one degree, then substitute x^n."""
    top = v[-1]
    return (top * phi[0],) + tuple(c + top * p for c, p in zip(v, phi[1:]))


def ideal_matrix(ctx: RingContext, f: RingElement) -> IdealMatrix:
    """Ideal matrix of f: the k-th column is H^k f = x^k f."""
    _claim(ctx, f)
    cols = [f.coeffs]
    for _ in range(ctx.degree - 1):
        cols.append(_times_x(ctx.phi_coeffs, cols[-1]))
    return IdealMatrix(tuple(zip(*cols)))


def _conv(phi: tuple[int, ...], a: Sequence, b: Sequence) -> list:
    n = len(phi)
    if n == 1:
        return [a[0] * b[0]]
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    # substitute x^k = x^(k-n) * (phi_0 + phi_1 x + ... + phi_{n-1} x^{n-1})
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        if c:
            base = k - n
            for j, pj in enumerate(phi):
                if pj:
                    prod[base + j] += c * pj
    return prod[:n]


def conv_mul(ctx: RingContext, f: Element, g: Element) -> Element:
    """Product in Z[x]/(phi): schoolbook multiply, then reduce by phi."""
    _claim(ctx, f)
    _claim(ctx, g)
    raw = _conv(ctx.phi_coeffs, f.coeffs, g.coeffs)
    if isinstance(f, RationalRingElement) or isinstance(g, RationalRingElement):
        return RationalRingElement(ctx, tuple(Fraction(c) for c in raw))
    return RingElement(ctx, tuple(raw))


def conv_pow(
    ctx: RingContext,
    f: RingElement,
    m: int,
    step_reducer: Callable[[Sequence[int]], tuple[int, ...]] | None = None,
) -> RingElement:
    """f to the m-th convolution power by square and multiply.

    m = 0 yields the multiplicative identity even for f = 0.  When a
    step_reducer is given it runs on the base and after every squaring and
    multiplication; if the reducer preserves congruence (lattice coset
    reduction, coefficient mod arithmetic) the result equals the unreduced
    power pushed once through the reducer.
    """
    m = operator.index(m)
    if m < 0:
        raise ValueError("negative exponent")
    _claim(ctx, f)
    if m == 0:
        one = (1,) + (0,) * (ctx.degree - 1)
        return RingElement(ctx, step_reducer(one) if step_reducer else one)
    base = f.coeffs
    if step_reducer:
        base = step_reducer(base)
    phi = ctx.phi_coeffs
    acc = base
    for bit in bin(m)[3:]:
        acc = tuple(_conv(phi, acc, acc))
        if step_reducer:
            acc = step_reducer(acc)
        if bit == "1":
            acc = tuple(_conv(phi, acc, base))
            if step_reducer:
                acc = step_reducer(acc)
    return RingElement(ctx, acc)


def trace(ctx: RingContext, f: RingElement) -> int:
    """Matrix trace of the ideal matrix of f."""
    return sum(row[i] for i, row in enumerate(ideal_matrix(ctx, f).entries))


def norm(ctx: RingContext, f: RingElement) -> int:
    """Signed determinant of the ideal matrix of f, computed exactly."""
    return determinant(ideal_matrix(ctx, f).entries)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    out = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    dlead = den[-1]
    for k in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[k] / dlead
        if c:
            out[k - (len(den) - 1)] = c
            for j, dj in enumerate(den):
                rem[k - (len(den) - 1) + j] -= c * dj
    return out, _poly_trim(rem)


def rational_inverse(ctx: RingContext, f: Element) -> RationalRingElement:
    """Inverse of f over the rationals: u with u * f = 1 mod phi.

    Runs the extended Euclidean algorithm against phi.  A nonzero f has an
    inverse whenever gcd(f, phi) is constant, which always holds over an
    irreducible phi; a nonconstant gcd therefore signals a reducible
    modulus and is reported as such.
    """
    _claim(ctx, f)
    n = ctx.degree
    if not any(f.coeffs):
        raise ValueError("not invertible (zero element)")
    phi_poly = [-Fraction(c) for c in ctx.phi_coeffs] + [Fraction(1)]
    r0 = phi_poly
    r1 = _poly_trim([Fraction(c) for c in f.coeffs])
    u0: list[Fraction] = []
    u1: list[Fraction] = [Fraction(1)]
    while len(r1) > 1:
        q, r2 = _poly_divmod(r0, r1)
        u2 = list(u0) + [Fraction(0)] * max(0, len(u1) + len(q) - 1 - len(u0))
        for i, qi in enumerate(q):
            if qi:
                for j, uj in enumerate(u1):
                    u2[i + j] -= qi * uj
        r0, r1 = r1, r2
        u0, u1 = u1, _poly_trim(u2)
    if not r1:
        raise ValueError("reducible minimal polynomial (nonconstant gcd with phi)")
    c = r1[0]
    inv = [ui / c for ui in u1]
    inv += [Fraction(0)] * (n - len(inv))
    return RationalRingElement(ctx, tuple(inv[:n]))
