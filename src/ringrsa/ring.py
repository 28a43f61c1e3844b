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
exact over the integers; no floating point anywhere.

Powers are taken modulo a lattice given by its HNF basis and reduced into
its coset box after every step.  The lattices used (ideal matrices, and
p * I) are ideals, closed under multiplication by x, so congruence mod
the lattice survives every product and reducing per step gives the same
point as reducing the full power once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .lattice import HnfBasis, determinant, reduce_mod_lattice

__all__ = [
    "RingContext",
    "RingElement",
    "IdealMatrix",
    "make_ring",
    "ideal_matrix",
    "conv_mul",
    "conv_pow",
    "norm",
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


@dataclass(frozen=True)
class IdealMatrix:
    """Columns f, Hf, ..., H^{n-1}f of a generator f; equals f(H)."""

    entries: tuple[tuple[int, ...], ...]


def _claim(ctx: RingContext, elem: RingElement) -> None:
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


def _conv(phi: tuple[int, ...], a: Sequence[int], b: Sequence[int]) -> list[int]:
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


def conv_mul(ctx: RingContext, f: RingElement, g: RingElement) -> RingElement:
    """Product in Z[x]/(phi): schoolbook multiply, then reduce by phi."""
    _claim(ctx, f)
    _claim(ctx, g)
    return RingElement(ctx, tuple(_conv(ctx.phi_coeffs, f.coeffs, g.coeffs)))


def conv_pow(ctx: RingContext, f: RingElement, m: int, basis: HnfBasis) -> RingElement:
    """f to the m-th convolution power modulo the lattice of basis.

    Square and multiply, reducing the base and every square and product
    into the coset box.  basis must span an ideal (an ideal matrix's HNF,
    or p * I): then each reduction changes a factor by a lattice point
    whose products stay in the lattice, so the result equals the
    unreduced power reduced once.  m = 0 yields the reduced identity even
    for f = 0.
    """
    m = operator.index(m)
    if m < 0:
        raise ValueError("negative exponent")
    _claim(ctx, f)
    if m == 0:
        one = (1,) + (0,) * (ctx.degree - 1)
        return RingElement(ctx, reduce_mod_lattice(basis, one))
    phi = ctx.phi_coeffs
    base = reduce_mod_lattice(basis, f.coeffs)
    acc = base
    for bit in bin(m)[3:]:
        acc = reduce_mod_lattice(basis, _conv(phi, acc, acc))
        if bit == "1":
            acc = reduce_mod_lattice(basis, _conv(phi, acc, base))
    return RingElement(ctx, acc)


def norm(ctx: RingContext, f: RingElement) -> int:
    """Signed determinant of the ideal matrix of f, computed exactly."""
    return determinant(ideal_matrix(ctx, f).entries)

