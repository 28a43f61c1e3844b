"""Field presets and prime-element search.

Two preset families expose rings whose integers are plain coefficient
vectors over a power basis: quadratic fields Q(sqrt(d)) for square-free
d = 2, 3 mod 4 (so the ring of integers is Z[sqrt(d)]), and cyclotomic
fields Q(zeta_m).  A generic descriptor wraps an arbitrary caller-supplied
modulus.  Key material comes from either rational primes embedded as
scalars or from ring elements whose norm is a rational prime; a prime
norm forces the quotient by the element to be a prime field, so such an
element generates a prime ideal.  That ideal is (N, x - r), where N is
the norm and r the root of x modulo the element.  _ideal_basis writes the
Hermite normal form of either key lattice, m I or (N, x - r), by formula,
as an HnfBasis, whose diag is the box, for product_lattice and for the
public-key check ideal_lattice.  A PrimeElement keeps what a key derives
from its prime, for a scalar p the Frobenius matrix of R/pR too, which
scheme's admission rule and decryption read.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Sequence
from functools import cached_property

from ._record import record
from .errors import SearchExhaustedError
from .primes import (
    _jacobi,
    carmichael_lambda,
    euler_phi,
    is_probable_prime,
    multiplicative_order,
)
from .ring import (
    RingContext, RingElement, _kernels, conv_pow, make_ring, norm, norm_and_linear,
    norm_bound_bits,
)

__all__ = [
    "FieldDescriptor",
    "PrimeElement",
    "quadratic_field",
    "cyclotomic_field",
    "generic_field",
    "parse_field_spec",
    "find_inert_prime",
    "find_prime_norm_element",
    "HnfBasis",
    "product_lattice",
    "ideal_lattice",
]

_SQUARE_FREE_TRIAL_BOUND = 10**6
# Largest |d| of a quadratic spec and |phi_i| of a generic spec, in decimal
# digits: both come from untrusted key files, and each trial division of the
# square-free test or the root screen costs time in their size.
_MAX_SPEC_DIGITS = 100
_SEARCH_ATTEMPT_BOUND = 10**5
# Largest ring degree a field spec may ask for, four times the largest
# benchmarked degree (32): key files are untrusted, and parsing a key takes
# two norms, each O(n^2) big-integer steps that also yield the root (at this
# cap and the norm budget of a key file, one norm takes up to 4 s).
_MAX_DEGREE = 128
# Bits the bound on N(alpha) N(beta) may exceed what a key file carries by: on
# keygen's keys it overshoots by up to 1036 (cyclotomic:m=255, the worst measured).
_NORM_BOUND_SLACK_BITS = 2048
# Bits for N(alpha) N(beta), or a key lattice's determinant: the 4300 decimal
# digits of the default int-to-str limit (log2(10) < 3.322) plus the slack,
# 16332.  A constant, so that raising the digit limit (PYTHONINTMAXSTRDIGITS)
# raises no bound on untrusted input.
_KEY_BUDGET_BITS = 4300 * 3322 // 1000 + _NORM_BOUND_SLACK_BITS


def _check_norm_budget(ctx, alpha, beta) -> None:
    """Refuse alpha and beta whose norms may not fit a key file, before any norm.

    keygen refuses a key whose N(alpha) N(beta) (the lattice corner, or
    about d) has more digits than the int-to-str limit; this bounds the
    work of the two norms a parse computes.  Each norm may take half the
    digits plus the slack, which bounds the primality test of one norm.
    Each prime search runs it first on its largest candidate, twice, so a
    mode whose keys may not fit is refused before any draw.
    """
    _check_budget_bits(norm_bound_bits(ctx, alpha), norm_bound_bits(ctx, beta))


def _check_budget_bits(alpha_bits: int, beta_bits: int) -> None:
    """_check_norm_budget's rule on the two norm bounds, given in bits."""
    budget = _KEY_BUDGET_BITS
    each = (budget + _NORM_BOUND_SLACK_BITS) // 2
    if alpha_bits + beta_bits > budget or max(alpha_bits, beta_bits) > each:
        raise ValueError(
            f"alpha and beta too large (norm bounds above {budget} bits, or one above {each})"
        )


@record
class FieldDescriptor:
    kind: str
    ring: RingContext
    param: int | None = None

    def spec_string(self) -> str:
        if self.kind == "quadratic":
            return f"quadratic:d={self.param}"
        if self.kind == "cyclotomic":
            return f"cyclotomic:m={self.param}"
        return "generic:phi=" + ",".join(str(c) for c in self.ring.phi_coeffs)


@record
class PrimeElement:
    """An element meant to generate a prime ideal P; the admission rule refuses it if not.

    norm_abs comes from ring.norm, which halves the degree over a binomial
    phi, and root from the subresultant PRS, which also gives the norm: a
    prime search reads norm_abs of every candidate and root of the primes
    it keeps, and a parsed key, root first, takes one PRS per prime.  Each
    is computed on first read and kept, and so are p, p_is_prime and
    frobenius, the whole of what a key derives from its prime; equality
    and hashing see only the element.
    """

    element: RingElement

    @cached_property
    def p(self) -> int:
        """The rational integer under the ideal: |a| for a scalar a, else norm_abs."""
        return abs(self.element.coeffs[0]) if _is_scalar(self) else self.norm_abs

    @cached_property
    def p_is_prime(self) -> bool:
        return is_probable_prime(self.p)

    @cached_property
    def frobenius(self) -> tuple[tuple[int, ...], ...]:
        """For a scalar p, the matrix of a -> a^p on R/P = (Z/p)[x]/(phi): see _frobenius.

        An element's R/P is F_p, its value at root, and needs no matrix.
        """
        return _frobenius(self.element.context, self.p)

    @cached_property
    def _norm_and_linear(self) -> tuple[int, list[int] | None]:
        return norm_and_linear(self.element.context, self.element)

    @cached_property
    def norm_abs(self) -> int:
        known = vars(self).get("_norm_and_linear")  # root has taken the PRS
        return abs(known[0] if known else norm(self.element.context, self.element))

    @cached_property
    def root(self) -> int | None:
        """The r in [0, N) with x = r modulo the element, N = norm_abs; None for a scalar.

        Raises ValueError when there is none, that is when R/(element) is
        not Z/N.  If it is, then for every prime p | N the gcd of phi and
        the element mod p is x - r, so the first subresultant is
        s1 (x - r) mod N with s1 a unit; the resultant's member of degree
        1 is a rational multiple of it, which gives r.  r is kept only if
        phi(r) = element(r) = 0 (mod N): then (N, x - r) is an ideal of
        index N holding the element, so (element) = (N, x - r) exactly.
        """
        if _is_scalar(self):
            return None
        linear = self._norm_and_linear[1]  # the PRS first, whose norm norm_abs then reads
        n_abs = self.norm_abs
        not_cyclic = ValueError("the quotient by an element is not Z/N(element)")
        if linear is None:
            raise not_cyclic
        c0, c1 = (c // math.gcd(*linear) for c in linear)
        try:
            r = -c0 * pow(c1, -1, n_abs) % n_abs
        except ValueError:
            raise not_cyclic from None
        phi = [-c for c in self.element.context.phi_coeffs] + [1]
        if _eval_mod(phi, r, n_abs) or _eval_mod(self.element.coeffs, r, n_abs):
            raise not_cyclic
        return r


def _eval_mod(coeffs: Sequence[int], t: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % modulus
    return acc


def _frobenius(ctx, p: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the matrix of a -> a^p = a(x^p) on (Z/p)[x]/(phi).

    Column j is (x^p)^j, by the kernel mul that conv_pow builds for phi.
    ValueError unless x^(p^n) = x, that is unless phi is square-free mod p
    with every irreducible factor of a degree f | n, so that the ring is a
    product of fields F_{p^f}.  The matrix applied n times to x tells.
    """
    n = ctx.degree
    x = (0, 1) + (0,) * (n - 2) if n > 1 else ctx.phi_coeffs
    x_p = conv_pow(ctx, ctx.element(x), p, p).coeffs
    mul = _kernels(ctx.phi_coeffs)[1]
    cols = [ctx.one().coeffs]
    while len(cols) < n:
        cols.append(mul(cols[-1], x_p, p))
    rows = tuple(zip(*cols))
    image = x = tuple(c % p for c in x)
    for _ in range(n):
        image = _mat_vec_mod(rows, image, p)
    if image != x:
        raise ValueError("for a scalar p, R/pR is not a product of fields of degree dividing n")
    return rows


def _mat_vec_mod(rows: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> tuple[int, ...]:
    return tuple(sum(map(operator.mul, row, vec)) % p for row in rows)


def _is_scalar(elem: PrimeElement) -> bool:
    return not any(elem.element.coeffs[1:])


def _is_square_free(d: int) -> bool:
    """Trial division up to 10**6, then a square test on the cofactor.

    A cofactor below 10**18 left by the trial division has at most two
    prime factors, all above 10**6, so it has a square factor exactly
    when it is a perfect square.  Larger cofactors are refused, and so is
    a d of more than _MAX_SPEC_DIGITS digits, before any division.
    """
    x = abs(d)
    if x >= 10**_MAX_SPEC_DIGITS:
        raise ValueError(
            f"cannot decide whether d is square-free (more than {_MAX_SPEC_DIGITS} digits)"
        )
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

    Specs come from untrusted key files, so a degree above _MAX_DEGREE and
    a generic phi coefficient of more than _MAX_SPEC_DIGITS digits are
    refused before any polynomial is built.  Within that cap make_ring's
    root screen still tries up to 10**6 divisors of phi_0: 0.05-0.08 s at
    8 digits and 0.12-0.15 s at 100.
    """
    kind, sep, rest = spec.partition(":")
    name, eq, value = rest.partition("=")
    bad = ValueError(f"bad field spec: {spec[:40]!r}{'...' if len(spec) > 40 else ''}")
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
        if any(abs(c) >= 10**_MAX_SPEC_DIGITS for c in numbers):
            raise ValueError(
                f"generic phi coefficient above the limit of {_MAX_SPEC_DIGITS} digits"
            )
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


def _inert(field: FieldDescriptor, p: int) -> bool:
    """Test whether p stays prime-like in the field.

    The answer is meaningful only for a prime p, but it takes no modular
    exponentiation and raises nothing on any positive integer, so the
    search runs it before the primality test.  Quadratic: p is odd and
    the Jacobi symbol (d/p) is -1, which for a prime p is Euler's
    criterion (d is a non-residue mod p, and p is unramified).
    Cyclotomic: p is unramified and the multiplicative order of p mod m
    is the largest attainable (the Carmichael function of m); when the
    unit group mod m is cyclic this is exactly the inert condition, and
    in every case p*q generates a square-free ideal whose totient
    divides (p^n - 1)(q^n - 1), which is what key generation needs.
    """
    if field.kind == "quadratic":
        return p % 2 == 1 and _jacobi(field.param, p) == -1
    if field.kind == "cyclotomic":
        m = field.param
        return math.gcd(p, m) == 1 and multiplicative_order(p, m) == carmichael_lambda(m)
    raise ValueError("no inert-prime criterion for generic fields")


def _check_key_digits(corner_bits: int) -> None:
    """Refuse a key whose corner, below 2^corner_bits, may pass the int-to-str limit (0: none)."""
    limit = sys.get_int_max_str_digits()
    if limit and 1 << corner_bits > 10**limit:
        raise ValueError(
            f"key too large for a key file: integers are limited to {limit} decimal digits"
        )


def _scalar_element(field: FieldDescriptor, p: int) -> PrimeElement:
    return PrimeElement(field.ring.element((p,) + (0,) * (field.ring.degree - 1)))


def find_inert_prime(
    field: FieldDescriptor,
    bits: int,
    rng,
    exclude: int | None = None,
) -> PrimeElement:
    """Random search for an inert rational prime of the given bit length.

    Refused before any draw: a size past the norm budget, then one whose d
    (below (pq)^n < 2^(2 n bits)) may pass the int-to-str limit (0: none).
    The budget takes n * bits, the norm bound of the scalar 2^bits - 1.
    """
    if bits < 2:
        raise ValueError("bits must be at least 2")
    _check_budget_bits(field.ring.degree * bits, field.ring.degree * bits)
    _check_key_digits(2 * field.ring.degree * bits)
    lo, hi = 1 << (bits - 1), 1 << bits
    for _ in range(_SEARCH_ATTEMPT_BOUND):
        cand = rng.randrange(lo, hi)
        # the residue test first: it needs no modexp and refuses most
        # candidates, so only those that can still be accepted reach one
        if cand != exclude and _inert(field, cand):
            prime = _scalar_element(field, cand)
            if prime.p_is_prime:
                return prime
    raise SearchExhaustedError("search exhausted: no inert prime found")


def find_prime_norm_element(
    field: FieldDescriptor,
    coeff_bound: int,
    rng,
) -> PrimeElement:
    """Random search for an element whose norm is a rational prime.

    Resamples scalar vectors whenever the degree allows a non-scalar
    generator, so the resulting ideals are not forced to be rational.
    Refused before any draw: a bound past the norm budget; at the first
    candidate: a corner, taken as its norm squared, that may pass the
    int-to-str limit (a rule about a sample, not a bound).
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    ctx = field.ring
    n = ctx.degree
    largest = ctx.element((coeff_bound,) * n)
    _check_norm_budget(ctx, largest, largest)
    sampled = False
    for _ in range(_SEARCH_ATTEMPT_BOUND):
        coeffs = tuple(rng.randrange(-coeff_bound, coeff_bound + 1) for _ in range(n))
        if n > 1 and not any(coeffs[1:]):
            continue
        cand = PrimeElement(ctx.element(coeffs))
        if not sampled:  # p_is_prime reads this norm next
            _check_key_digits(2 * cand.norm_abs.bit_length())
            sampled = True
        if cand.p_is_prime:
            return cand
    raise SearchExhaustedError("search exhausted: no prime-norm element found")


@record
class HnfBasis:
    entries: tuple[tuple[int, ...], ...]

    @cached_property
    def diag(self) -> tuple[int, ...]:
        return tuple(row[i] for i, row in enumerate(self.entries))

    @cached_property
    def cyclic(self) -> int:
        """N if the box is (N, 1, ..., 1), whose points (c, 0, ..., 0) are Z/N; else 0."""
        corner, *rest = self.diag
        return 0 if any(b != 1 for b in rest) else corner


def _ideal_basis(n: int, m: int, r: int | None = None) -> HnfBasis:
    """The Hermite normal form of m I, or of the ideal (m, x - r) of Z[x]/(phi).

    (m, x - r) has the diagonal (m, 1, ..., 1), and its column j >= 1 is
    x^j - r^j with row 0 taken % m: row 0 reads (m, -r, -r^2, ...) mod m.
    """
    if r is None:
        return HnfBasis(tuple(tuple(m * (i == j) for j in range(n)) for i in range(n)))
    row, power = [m], 1
    for _ in range(1, n):
        power = power * r % m
        row.append(-power % m)
    ones = (tuple(int(i == j) for j in range(n)) for i in range(1, n))
    return HnfBasis((tuple(row), *ones))


def product_lattice(alpha: PrimeElement, beta: PrimeElement) -> HnfBasis:
    """The Hermite normal form of the ideal (alpha * beta), from norms and roots.

    - scalars a, b with p = |a|, q = |b|: (ab) = pq R, so pq I;
    - elements of norms p != q: (pq, x - r), r the CRT of the roots.

    alpha and beta must be an admitted key, as the admission rule
    (scheme._admit) checks before every call: then p != q are primes;
    nothing here checks it.
    """
    n, p, q, r_a, r_b = alpha.element.context.degree, alpha.p, beta.p, alpha.root, beta.root
    if r_a is None:
        return _ideal_basis(n, p * q)
    return _ideal_basis(n, p * q, r_b + q * ((r_a - r_b) * pow(q, -1, p) % p))


def ideal_lattice(ctx: RingContext, entries: tuple[tuple[int, ...], ...]) -> HnfBasis:
    """The n x n entries as a public key lattice, m I or HNF(N, x - r); ValueError unless one.

    The diagonal's bits are bounded by the key budget first.  The inverse of
    _ideal_basis: a diagonal of n equal entries m is m I, and any other is
    (N, x - r), with r read off row 0.  The basis must be _ideal_basis(n, m, r).
    m I is an ideal, and (N, x - r) is one exactly when phi(r) = 0 (mod N).
    """
    n, basis = ctx.degree, HnfBasis(entries)
    diag, budget = basis.diag, _KEY_BUDGET_BITS
    if sum(c.bit_length() for c in diag) > budget:
        raise ValueError(f"lattice too large (determinant above {budget} bits)")
    m = diag[0]
    r = None if m < 1 or diag.count(m) == n else -entries[0][1] % m
    if m < 1 or _ideal_basis(n, m, r) != basis:
        raise ValueError("lattice is not the basis of an ideal m I or (N, x - r)")
    if r is not None and _eval_mod([-c for c in ctx.phi_coeffs] + [1], r, m):
        raise ValueError("lattice is not an ideal (x times its last column lies outside it)")
    return basis
