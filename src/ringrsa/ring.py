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
point as reducing the full power once.  One square-and-multiply loop,
conv_multi_pow, raises several bases to their own exponents at once by
interleaved sliding windows over one shared squaring chain; conv_pow is
its single-base case.  Squares go through _sqr, which needs n(n+1)/2
coefficient products where the general _conv needs n^2.
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
    "conv_multi_pow",
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


def _reduce_by_phi(phi: tuple[int, ...], prod: list[int]) -> list[int]:
    """Fold a product of degree up to 2n - 2 back to degree n - 1."""
    n = len(phi)
    # substitute x^k = x^(k-n) * (phi_0 + phi_1 x + ... + phi_{n-1} x^{n-1})
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        if c:
            base = k - n
            for j, pj in enumerate(phi):
                if pj:
                    prod[base + j] += c * pj
    return prod[:n]


def _conv(phi: tuple[int, ...], a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = len(phi)
    if n == 1:
        return [a[0] * b[0]]
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _reduce_by_phi(phi, prod)


def _sqr(phi: tuple[int, ...], a: Sequence[int]) -> list[int]:
    """_conv(phi, a, a) with n(n+1)/2 coefficient products instead of n^2."""
    n = len(phi)
    if n == 1:
        return [a[0] * a[0]]
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            prod[2 * i] += ai * ai
            twice = ai << 1
            for j in range(i + 1, n):
                prod[i + j] += twice * a[j]
    return _reduce_by_phi(phi, prod)


def conv_mul(ctx: RingContext, f: RingElement, g: RingElement) -> RingElement:
    """Product in Z[x]/(phi): schoolbook multiply, then reduce by phi."""
    _claim(ctx, f)
    _claim(ctx, g)
    return RingElement(ctx, tuple(_conv(ctx.phi_coeffs, f.coeffs, g.coeffs)))


def _window_width(bits: int) -> int:
    """Sliding-window width for an exponent of the given bit length.

    OpenSSL's thresholds (BN_window_bits_for_exponent_size), capped at 5
    so a table holds at most 16 odd powers per base.
    """
    return 5 if bits >= 240 else 4 if bits >= 80 else 3 if bits >= 24 else 1


def _windows(m: int, w: int) -> list[tuple[int, int]]:
    """Recode m > 0 as (bit position, odd value < 2**w) with m = sum v * 2**pos.

    Right to left: skip zero bits, then take the next w bits as one window.
    """
    events = []
    pos = 0
    while m:
        if m & 1:
            events.append((pos, m & ((1 << w) - 1)))
            m >>= w
            pos += w
        else:
            zeros = (m & -m).bit_length() - 1
            m >>= zeros
            pos += zeros
    return events


def conv_multi_pow(
    ctx: RingContext,
    bases: Sequence[RingElement],
    exponents: Sequence[int],
    basis: HnfBasis,
) -> RingElement:
    """Product of bases[i] ** exponents[i] modulo the lattice of basis.

    Interleaved sliding windows (HAC Alg. 14.85; Moller, "Algorithms for
    multi-exponentiation", SAC 2001): each exponent is recoded once into
    windows, odd values below 2**w at the bit where the window ends, with
    w from the exponent's bit length (_window_width).  Each base gets a
    table of the odd powers it needs, f, f^3, ..., at most 16 of them,
    and one squaring chain (_sqr) from the highest window down to bit 0
    multiplies in a table entry wherever a window ends.  With w = 1 this
    is the plain binary ladder.  Every square and product is reduced into
    the coset box.  basis must span an ideal (an ideal matrix's HNF, or
    p * I): then each reduction changes a factor by a lattice point whose
    products stay in the lattice, so the result equals the unreduced
    product reduced once.  Bases with exponent 0 are skipped; if every
    exponent is 0 the result is the reduced identity.
    """
    phi = ctx.phi_coeffs
    events = []
    for f, m in zip(bases, exponents, strict=True):
        m = operator.index(m)
        if m < 0:
            raise ValueError("negative exponent")
        _claim(ctx, f)
        if not m:
            continue
        windows = _windows(m, _window_width(m.bit_length()))
        # table[k] is f^(2k + 1), up to the largest window value
        table = [reduce_mod_lattice(basis, f.coeffs)]
        size = max(v for _, v in windows) // 2 + 1
        if size > 1:
            square = reduce_mod_lattice(basis, _sqr(phi, table[0]))
            while len(table) < size:
                table.append(reduce_mod_lattice(basis, _conv(phi, table[-1], square)))
        events += [(pos, table[v >> 1]) for pos, v in windows]
    events.sort(key=lambda event: event[0], reverse=True)
    if not events:
        return RingElement(ctx, reduce_mod_lattice(basis, (1,) + (0,) * (ctx.degree - 1)))
    (at, acc), *rest = events
    for pos, factor in rest:
        for _ in range(at - pos):
            acc = reduce_mod_lattice(basis, _sqr(phi, acc))
        at = pos
        acc = reduce_mod_lattice(basis, _conv(phi, acc, factor))
    for _ in range(at):
        acc = reduce_mod_lattice(basis, _sqr(phi, acc))
    return RingElement(ctx, acc)


def conv_pow(ctx: RingContext, f: RingElement, m: int, basis: HnfBasis) -> RingElement:
    """f to the m-th convolution power modulo the lattice of basis.

    The single-base case of conv_multi_pow: a sliding-window power whose
    base, squares and products are all reduced into the coset box.  At
    m = 65537 the window is 1 bit wide: 16 squarings and 1 multiply.
    m = 0 yields the reduced identity even for f = 0.
    """
    return conv_multi_pow(ctx, (f,), (m,), basis)


def norm(ctx: RingContext, f: RingElement) -> int:
    """Signed determinant of the ideal matrix of f, computed exactly."""
    return determinant(ideal_matrix(ctx, f).entries)

