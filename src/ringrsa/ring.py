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

Powers are taken in (Z/m)[x]/(phi) for an integer modulus m: every step
takes each coefficient % m, and the result has its coefficients in
[0, m), the coset box of m I.  One square-and-multiply loop,
conv_multi_pow, raises several bases to their own exponents at once by
interleaved sliding windows over one shared squaring chain; conv_pow is
its single-base case.  Its squares and products run through two
straight-line kernels, sqr and mul, whose source _kernels writes and
compiles once per modulus: sqr takes n(n+1)/2 coefficient products where
mul takes n^2, and neither pays for a Python loop.  The only other
product is conv_mul over Z, f(H) times the vector of g, which no command
calls.

The norm of f is det f(H); since phi is monic it equals the resultant
Res(phi, f), which the subresultant PRS gives exactly over Z in O(n^2)
integer steps, against the O(n^3) of an n x n determinant.  Over a
binomial phi = x^n - c (quadratic fields, and cyclotomic ones of m = 2^k),
norm first halves the degree while n is even, N(f) = N'(f(x) f(-x)) over
y = x^2 (the field-norm tower of Pornin and Prest, PKC 2019), at one
half-size square per step.  The PRS, norm_and_linear, also yields its
member of degree 1, from which fields reads the integer that x is
congruent to modulo f.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Sequence

from ._record import record

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
    "norm_and_linear",
    "norm_bound_bits",
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


@record
class RingContext:
    """Z[x]/(phi) given by the modulus coefficients; build it with make_ring."""

    phi_coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.phi_coeffs)

    def element(self, coeffs: Sequence[int]) -> "RingElement":
        return RingElement(self, tuple(map(operator.index, coeffs)))

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


@record
class RingElement:
    context: RingContext
    coeffs: tuple[int, ...]


@record
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


def _fold_source(phi: Sequence[int], terms: list[list[str]]) -> list[str]:
    """Lines that fold the product terms of x^(2n-2), ..., x^n by phi.

    From the top down, each high coefficient is summed into a temporary
    h<k> once and added, times phi_j, to the terms of x^(k-n+j); the last
    line returns the n folded coefficients, each taken % m, as a tuple.
    """
    n = len(phi)
    lines = []
    for k in range(2 * n - 2, n - 1, -1):
        lines.append(f"    h{k} = {' + '.join(terms[k])}")
        for j, c in enumerate(phi):
            if c:
                terms[k - n + j].append(f"h{k}" if c == 1 else f"h{k} * {c:#x}")
    sums = (" + ".join(t) for t in terms[:n])
    lines.append(f"    return ({', '.join(f'({c}) % m' for c in sums)},)")
    return lines


def _kernel_source(phi_coeffs: Sequence[int]) -> str:
    """Source of sqr(a, m) and mul(a, b, m), straight-line products in
    Z[x]/(phi) with every coefficient reduced mod the integer m.

    Both unpack the coefficients into locals a<i> (and b<i>) and write
    every coefficient product; sqr takes the n(n+1)/2 distinct ones, with
    the cross terms doubled through d<i> = a<i> + a<i>.  The only text
    not made here is the phi coefficients, formatted as exact ints after
    operator.index, because field specs come from untrusted key files.
    They are written in hex, which has no digit limit, unlike decimal.
    """
    phi = [operator.index(c) for c in phi_coeffs]
    n = len(phi)
    a = ", ".join(f"a{i}" for i in range(n))
    b = ", ".join(f"b{i}" for i in range(n))
    sqr_terms = [[] for _ in range(2 * n - 1)]
    mul_terms = [[] for _ in range(2 * n - 1)]
    for i in range(n):
        sqr_terms[2 * i].append(f"a{i} * a{i}")
        for j in range(i + 1, n):
            sqr_terms[i + j].append(f"d{i} * a{j}")
        for j in range(n):
            mul_terms[i + j].append(f"a{i} * b{j}")
    return "\n".join([
        "def sqr(a, m):",
        f"    {a}, = a",
        *(f"    d{i} = a{i} + a{i}" for i in range(n - 1)),
        *_fold_source(phi, sqr_terms),
        "",
        "def mul(a, b, m):",
        f"    {a}, = a",
        f"    {b}, = b",
        *_fold_source(phi, mul_terms),
        "",
    ])


@functools.lru_cache(maxsize=16)
def _kernels(phi_coeffs: tuple[int, ...]) -> tuple[Callable, Callable]:
    """(sqr, mul) for Z[x]/(phi): _kernel_source compiled once per phi.

    sqr(a, m) and mul(a, b, m) are a^2 and a b in Z[x]/(phi) with every
    coefficient taken % m, as tuples, with no loop to interpret.  The
    functions see no builtins.  A pair holds at most a few MiB at the
    degree cap of 128, and the build peaks at tens of MiB there.
    """
    namespace = {"__builtins__": {}}
    exec(compile(_kernel_source(phi_coeffs), "<ring kernels>", "exec"), namespace)
    return namespace["sqr"], namespace["mul"]


def conv_mul(ctx: RingContext, f: RingElement, g: RingElement) -> RingElement:
    """f g in Z[x]/(phi) over Z: the ideal matrix f(H) times the vector of g."""
    _claim(ctx, g)
    rows = ideal_matrix(ctx, f).entries
    return RingElement(ctx, tuple(sum(map(operator.mul, row, g.coeffs)) for row in rows))


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
    m: int,
) -> RingElement:
    """Product of bases[i] ** exponents[i] in (Z/m)[x]/(phi), coefficients in [0, m).

    Interleaved sliding windows (HAC Alg. 14.85; Moller, "Algorithms for
    multi-exponentiation", SAC 2001): each exponent is recoded once into
    windows, odd values below 2**w at the bit where the window ends, with
    w from the exponent's bit length (_window_width).  Each base gets a
    table of the odd powers it needs, f, f^3, ..., at most 16 of them,
    and one squaring chain from the highest window down to bit 0
    multiplies in a table entry wherever a window ends.  With w = 1 this
    is the plain binary ladder.  The bases are taken as given, reduced or
    not; the kernels _kernels builds for phi take every table entry,
    square and product % m, and the last product is taken % m too.
    Bases with exponent 0 are skipped; if every exponent is 0 the result
    is the identity % m.
    """
    sqr, mul = _kernels(ctx.phi_coeffs)
    events = []
    for f, k in zip(bases, exponents, strict=True):
        k = operator.index(k)
        if k < 0:
            raise ValueError("negative exponent")
        _claim(ctx, f)
        if not k:
            continue
        windows = _windows(k, _window_width(k.bit_length()))
        # table[j] is f^(2j + 1), up to the largest window value
        table = [f.coeffs]
        size = max(v for _, v in windows) // 2 + 1
        if size > 1:
            square = sqr(table[0], m)
            while len(table) < size:
                table.append(mul(table[-1], square, m))
        events += [(pos, table[v >> 1]) for pos, v in windows]
    events.sort(key=lambda event: event[0], reverse=True)
    (at, acc), *rest = events or [(0, ctx.one().coeffs)]
    for pos, factor in rest:
        for _ in range(at - pos):
            acc = sqr(acc, m)
        at = pos
        acc = mul(acc, factor, m)
    for _ in range(at):
        acc = sqr(acc, m)
    return RingElement(ctx, tuple(c % m for c in acc))


def conv_pow(ctx: RingContext, f: RingElement, k: int, m: int) -> RingElement:
    """f to the k-th convolution power in (Z/m)[x]/(phi), coefficients in [0, m).

    The single-base case of conv_multi_pow: a sliding-window power whose
    squares and products are taken coefficientwise % m.  At k = 65537
    the window is 1 bit wide: 16 squarings and 1 multiply.  k = 0 yields
    the identity % m even for f = 0.
    """
    return conv_multi_pow(ctx, (f,), (k,), m)


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, trimmed.

    Each step scales the remainder by lc(b) and cancels its top term with
    a shifted b, so every coefficient stays an integer.
    """
    lc = b[-1]
    db = len(b) - 1
    low = b[:db]
    r = list(a)
    while len(r) > db:
        c = r.pop()
        shift = len(r) - db
        r[:shift] = [lc * x for x in r[:shift]]
        r[shift:] = [lc * x - c * y for x, y in zip(r[shift:], low)]
    while r and not r[-1]:
        r.pop()
    return r


def _resultant(a: list[int], b: list[int]) -> tuple[int, list[int] | None]:
    """Res(a, b) by the subresultant PRS, exact over Z, and its member of degree 1.

    a and b are coefficient lists, lowest degree first, with nonzero
    leading coefficients and deg a > deg b >= 0.  Content is divided out
    once; every later division is an exact // (Collins 1967; Brown and
    Traub 1971; Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 3.3.7).  The resultant is 0 when a and b share a factor.  Every
    member is a rational multiple of the subresultant of its degree, so
    the one of degree 1, if any, is a multiple of S_1(a, b); None when
    the sequence has none.
    """
    ca, cb = math.gcd(*a), math.gcd(*b)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    sign, g, h = 1, 1, 1
    scale = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    linear = None
    while len(b) > 1:
        if len(b) == 2:
            linear = b
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0, linear
        div = g * h**delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1)
    da = len(a) - 1
    return sign * scale * (b[0] ** da // h ** (da - 1)), linear


def _square_mod_binomial(a: list[int], c: int) -> list[int]:
    """a^2 in Z[y]/(y^m - c), m = len(a), from the m(m+1)/2 distinct products, as sqr takes them."""
    m = len(a)
    prod = [0] * (2 * m)
    for i, ai in enumerate(a):
        if ai:
            prod[2 * i] += ai * ai
            di = ai + ai
            for j in range(i + 1, m):
                prod[i + j] += di * a[j]
    return [lo + c * hi for lo, hi in zip(prod[:m], prod[m:])]


def _prs_norm(phi: Sequence[int], coeffs: list[int]) -> tuple[int, list[int] | None]:
    """Res(phi, f) and its member of degree 1 by _resultant, f given by coeffs, trimmed here."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        return 0, None
    return _resultant([-c for c in phi] + [1], coeffs)


def norm(ctx: RingContext, f: RingElement) -> int:
    """N(f) = det f(H), the signed determinant of the ideal matrix of f.

    phi is monic, so this is the resultant Res(phi, f); no ideal matrix is
    built.  While phi = x^n - c with n even, f = e(y) + x o(y), y = x^2,
    is replaced by f(x) f(-x) = e(y)^2 - y o(y)^2 in Z[y]/(y^(n/2) - c):
    the roots of y^(n/2) - c are the squares of the pairs +-t of roots of
    phi, so the resultant, sign included, stays the same for every c.  At
    n = 1 the norm is the constant; any other phi, or an odd n > 1, goes
    to the subresultant PRS, exact over Z in O(n^2) integer steps.  It is
    0 for f = 0 and when f shares a factor with phi.
    """
    _claim(ctx, f)
    phi, coeffs = ctx.phi_coeffs, list(f.coeffs)
    if not any(phi[1:]):  # phi = x^n - c
        c = phi[0]
        while len(coeffs) % 2 == 0:
            even = _square_mod_binomial(coeffs[::2], c)
            odd = _square_mod_binomial(coeffs[1::2], c)
            coeffs = [e - o for e, o in zip(even, [c * odd[-1]] + odd[:-1])]
        if len(coeffs) == 1:
            return coeffs[0]
        phi = (c,) + (0,) * (len(coeffs) - 1)
    return _prs_norm(phi, coeffs)[0]


def norm_and_linear(ctx: RingContext, f: RingElement) -> tuple[int, list[int] | None]:
    """N(f) and, from the subresultant PRS, its member c0 + c1 x of degree 1 as [c0, c1].

    That member is a rational multiple of the subresultant S_1(phi, f),
    which lies in the ideal (phi, f) of Z[x]; None when there is none.
    """
    _claim(ctx, f)
    return _prs_norm(ctx.phi_coeffs, list(f.coeffs))


def norm_bound_bits(ctx: RingContext, f: RingElement) -> int:
    """A b with |N(f)| < 2^b, in O(n) integer operations and no norm.

    Hadamard's inequality on the Sylvester matrix of phi and f gives
    |Res(phi, f)| <= ||phi||_2^deg f * ||f||_2^n; both squared norms are
    below 2 to their bit lengths.
    """
    deg = max((i for i, c in enumerate(f.coeffs) if c), default=0)
    phi2 = 1 + sum(c * c for c in ctx.phi_coeffs)
    f2 = sum(c * c for c in f.coeffs)
    return (deg * phi2.bit_length() + ctx.degree * f2.bit_length() + 1) // 2
