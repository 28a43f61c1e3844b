"""Key generation, block encryption, and the byte codec.

A key pair is built from two non-associate prime elements alpha, beta:
the public lattice is the Hermite normal form of the ideal (alpha * beta),
which fields.product_lattice writes down from the norms and the roots of
x modulo alpha and beta, the public exponent e is invertible modulo
phi = (|N(alpha)| - 1) * (|N(beta)| - 1), and d is its inverse.  Messages
are points of the public coset box.  Encryption raises them to the e-th
convolution power modulo the public lattice, reduced into the box.
Decryption raises a block to d in each factor, or half, of
R/(alpha beta) = R/(alpha) x R/(beta), and recombines the two powers by
the idempotent of (alpha).  Building the halves is the admission rule,
_admit, and every key pair passes it: keygen, parsing and decryption.
The byte codec frames a payload with an 8-byte big-endian length header
and packs fixed-size chunks into mixed-radix box coordinates.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Iterable, Sequence
from functools import cached_property

from ._record import record
from .errors import (
    AssociatePrimesError,
    CapacityError,
    CiphertextFormatError,
    SearchExhaustedError,
)
from .fields import (
    FieldDescriptor,
    PrimeElement,
    _eval_mod,
    find_inert_prime,
    find_prime_norm_element,
    key_class_of,
    product_lattice,
)
from .lattice import HnfBasis, reduce_mod_lattice
from .ring import RingElement, conv_mul, conv_multi_pow, conv_pow

__all__ = [
    "InertPrimeMode",
    "PrimeNormElementMode",
    "PublicKey",
    "PrivateKey",
    "CiphertextBlock",
    "keygen",
    "keypair_from_primes",
    "encrypt_block",
    "decrypt_block",
    "encode_bytes",
    "decode_blocks",
    "validate_keypair",
]

_MIN_CODEC_CAPACITY = 1 << 16
_EQUAL_NORM_RETRY_BOUND = 64
_DEFAULT_E = 65537
# Largest public exponent, in bits: encryption costs a squaring per bit, and
# public keys are untrusted (Go's crypto/rsa caps e at 31 bits).
_MAX_E_BITS = 32


@record
class InertPrimeMode:
    bits: int


@record
class PrimeNormElementMode:
    coeff_bound: int


KeygenMode = InertPrimeMode | PrimeNormElementMode


@record
class PublicKey:
    field: FieldDescriptor
    lattice: HnfBasis
    e: int


@record
class PrivateKey:
    """The secret primes and exponent, unchecked; the totient, halves and lattice follow."""

    field: FieldDescriptor
    alpha: RingElement
    beta: RingElement
    d: int

    @cached_property
    def _primes(self) -> tuple[PrimeElement, PrimeElement]:
        """alpha and beta, each with its norm and root computed once."""
        return PrimeElement(self.alpha), PrimeElement(self.beta)

    @cached_property
    def phi(self) -> int:
        """(|N(alpha)| - 1) * (|N(beta)| - 1), the totient of an admitted key."""
        return math.prod(prime.norm_abs - 1 for prime in self._primes)

    @cached_property
    def lattice(self) -> HnfBasis:
        """product_lattice of alpha and beta, once _crt admits them: the public modulus."""
        self._crt
        return product_lattice(*self._primes)

    @property
    def key_class(self) -> str:
        """"scalar", "mixed" or "prime-norm", as product_lattice classifies the key."""
        return key_class_of(*self._primes)

    @cached_property
    def _crt(self) -> tuple[_PrimeHalf, _PrimeHalf, tuple[int, ...]]:
        """_admit of alpha and beta: the admission rule, run once per key."""
        return _admit(self.field.ring, *self._primes)

    @cached_property
    def _digits(self) -> tuple[tuple[int, ...], ...]:
        """The base-p digits of d in each half, computed once per key, not per block."""
        n, halves = self.field.ring.degree, self._crt[:2]
        return tuple(_base_p_digits(self.d, h.p, n if h.root is None else 1) for h in halves)


@record
class _PrimeHalf:
    """R/P for a prime ideal P of a key, over the rational prime p.

    An element of prime norm p and root r gives R/P = F_p, where a block
    is its value at r.  A scalar p (root None) gives (Z/p)[x]/(phi), a
    product of fields F_{p^f}, f | n; lattice is pZ^n and frobenius the
    matrix of a -> a^p.
    """

    p: int
    root: int | None
    lattice: HnfBasis | None = None
    frobenius: tuple[tuple[int, ...], ...] = ()


def _admit(ctx, alpha: PrimeElement, beta: PrimeElement) -> tuple[_PrimeHalf, _PrimeHalf, tuple]:
    """The admission rule, the only refusal of a key's alpha and beta: two coprime prime ideals.

    Returns the halves and eps = 1 mod (alpha), 0 mod (beta): q (q^-1 mod p)
    over rational primes p != q, (x - r_b) (r_a - r_b)^-1 mod p over one p.
    ValueError unless _prime_half builds both halves; AssociatePrimesError
    for associates, or a scalar p beside an element of norm p.
    """
    half_a, half_b = _prime_half(ctx, alpha), _prime_half(ctx, beta)
    (p, r_a), (q, r_b) = (half_a.p, half_a.root), (half_b.p, half_b.root)
    pad = (0,) * ctx.degree
    if p != q:
        return half_a, half_b, (q * pow(q, -1, p),) + pad[1:]
    if r_a is None or r_b is None or r_a == r_b:
        raise AssociatePrimesError("alpha and beta lie over one prime and are not coprime")
    inv = pow(r_a - r_b, -1, p)
    return half_a, half_b, (-r_b * inv % p, inv) + pad[2:]


def _prime_half(ctx, prime: PrimeElement) -> _PrimeHalf:
    """The half of the ideal prime generates; ValueError unless p is prime."""
    root, p = prime.root, prime.p
    if not prime.p_is_prime:
        raise ValueError("alpha or beta is not prime (a unit, zero, composite scalar or norm)")
    if root is not None:
        return _PrimeHalf(p, root)
    n = ctx.degree
    lattice = HnfBasis(tuple(tuple(p * (i == j) for j in range(n)) for i in range(n)))
    return _PrimeHalf(p, None, lattice, _frobenius(ctx, p, lattice))


def _base_p_digits(d: int, p: int, n: int) -> tuple[int, ...]:
    """Base-p digits, least significant first, of d_p = d mod p^n - 1 in [1, p^n - 1].

    a^d = a^d_p on a product of fields F_{p^f}, f | n; d_p is never 0, so zero divisors map to 0.
    """
    d_p = (d - 1) % (p**n - 1) + 1
    digits = []
    while d_p:
        d_p, digit = divmod(d_p, p)
        digits.append(digit)
    return tuple(digits)


def _frobenius(ctx, p: int, lattice: HnfBasis) -> tuple[tuple[int, ...], ...]:
    """Rows of the matrix of a -> a^p = a(x^p) on (Z/p)[x]/(phi), lattice = pZ^n.

    ValueError unless x^(p^n) = x, that is unless phi is square-free mod p
    with every irreducible factor of a degree f | n, so that the ring is a
    product of fields F_{p^f}.  The matrix applied n times to x tells.
    """
    n = ctx.degree
    x = (0, 1) + (0,) * (n - 2) if n > 1 else ctx.phi_coeffs
    x_p = conv_pow(ctx, ctx.element(x), p, lattice)
    cols = [ctx.one()]
    while len(cols) < n:
        cols.append(ctx.element(c % p for c in conv_mul(ctx, cols[-1], x_p).coeffs))
    rows = tuple(zip(*(c.coeffs for c in cols)))
    image = x = tuple(c % p for c in x)
    for _ in range(n):
        image = _mat_vec_mod(rows, image, p)
    if image != x:
        raise ValueError("for a scalar p, R/pR is not a product of fields of degree dividing n")
    return rows


def _mat_vec_mod(rows: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> tuple[int, ...]:
    return tuple(sum(map(operator.mul, row, vec)) % p for row in rows)


def _power_mod_prime(
    ctx, half: _PrimeHalf, digits: Sequence[int], vec: Sequence[int]
) -> tuple[int, ...]:
    """vec^d in R/P, lifted to a coefficient vector; digits are _base_p_digits of d.

    For an element, the constant (w, 0, ..., 0), w = vec(root)^d_p % p.
    For a scalar, the product of the Frobenius images vec^(p^i) % p to
    the i-th digits, so the squaring chain is one digit long;
    conv_multi_pow reduces it into the box of pZ^n.
    """
    p = half.p
    if half.root is not None:
        w = pow(_eval_mod(vec, half.root, p), digits[0], p)
        return (w,) + (0,) * (len(vec) - 1)
    images = [tuple(c % p for c in vec)]
    for _ in digits[1:]:
        images.append(_mat_vec_mod(half.frobenius, images[-1], p))
    bases = [ctx.element(image) for image in images]
    return conv_multi_pow(ctx, bases, digits, half.lattice).coeffs


@record
class CiphertextBlock:
    vector: RingElement


def _select_e(phi: int, e_choice: int | None) -> int:
    if phi <= 2:
        raise ValueError("no valid e (totient too small)")
    if e_choice is not None:
        if not 2 <= e_choice < phi:
            raise ValueError("requested public exponent out of range")
        if math.gcd(e_choice, phi) != 1:
            raise ValueError("requested public exponent not coprime to the totient")
        _check_e(e_choice, (phi,))  # the cap on its bits
        return e_choice
    if _DEFAULT_E < phi and math.gcd(_DEFAULT_E, phi) == 1:
        return _DEFAULT_E
    for e in range(3, phi):
        if math.gcd(e, phi) == 1:
            return e
    raise ValueError("no valid e (totient too small)")


def keypair_from_primes(
    field: FieldDescriptor,
    alpha: PrimeElement,
    beta: PrimeElement,
    e_choice: int | None = None,
) -> tuple[PublicKey, PrivateKey]:
    """Assemble a key pair from two prime elements, found or built by hand.

    _admit runs before e is chosen, so a pair it refuses is refused even
    where phi leaves no e.  The private key keeps alpha, beta and the halves.
    """
    crt = _admit(field.ring, alpha, beta)
    phi = math.prod(prime.norm_abs - 1 for prime in (alpha, beta))
    e = _select_e(phi, e_choice)
    priv = PrivateKey(field, alpha.element, beta.element, pow(e, -1, phi))
    vars(priv)["_primes"] = alpha, beta
    vars(priv)["_crt"] = crt
    return PublicKey(field, priv.lattice, e), priv


def keygen(
    field: FieldDescriptor,
    mode: KeygenMode,
    e_choice: int | None = None,
    rng=None,
) -> tuple[PublicKey, PrivateKey]:
    """Generate a key pair in the given field.

    InertPrimeMode draws two distinct rational inert primes of the given
    bit length; PrimeNormElementMode draws two prime-norm elements with
    bounded coefficients, drawing again up to an internal bound while their
    norms are equal (associates, or a lattice (p, p, 1, ...) giving phi away).
    """
    if rng is None:
        rng = random.SystemRandom()
    for _ in range(_EQUAL_NORM_RETRY_BOUND):
        if isinstance(mode, InertPrimeMode):
            alpha = find_inert_prime(field, mode.bits, rng)
            beta = find_inert_prime(
                field, mode.bits, rng, exclude=alpha.element.coeffs[0]
            )
        elif isinstance(mode, PrimeNormElementMode):
            alpha = find_prime_norm_element(field, mode.coeff_bound, rng)
            beta = find_prime_norm_element(field, mode.coeff_bound, rng)
        else:
            raise ValueError("unknown keygen mode")
        if alpha.p != beta.p:
            return keypair_from_primes(field, alpha, beta, e_choice)
    raise SearchExhaustedError("search exhausted: could not find primes of distinct norms")


def _in_box(radices: Sequence[int], vec: Sequence[int]) -> bool:
    return len(vec) == len(radices) and min(vec) >= 0 and all(map(operator.lt, vec, radices))


def encrypt_block(pub: PublicKey, block: Sequence[int]) -> CiphertextBlock:
    """e-th convolution power of a box point modulo the lattice, in the box.

    Raises TypeError for a coordinate that is not an integer (a float,
    Fraction or str) and ValueError for a point outside the box.
    """
    ctx, lattice = pub.field.ring, pub.lattice
    vec = tuple(map(operator.index, block))
    if not _in_box(lattice.diag, vec):
        raise ValueError("message outside coset box")
    if lattice.cyclic:  # box points (m, 0, ..., 0) multiply as m mod N
        return CiphertextBlock(RingElement(ctx, (pow(vec[0], pub.e, lattice.cyclic),) + vec[1:]))
    return CiphertextBlock(conv_pow(ctx, RingElement(ctx, vec), pub.e, lattice))


def decrypt_block(priv: PrivateKey, block: Sequence[int]) -> RingElement:
    """d-th convolution power of a ciphertext point modulo the lattice.

    The powers a and b in the halves R/(alpha) and R/(beta) recombine as
    b + eps (a - b), reduced into the box; on a box (pq, 1, ..., 1) they
    are integers, RSA-CRT on c mod p and c mod q.  Raises TypeError for a
    coordinate that is not an integer (a float, Fraction or str), and
    ValueError for a point outside the box or a key _admit refuses.
    """
    ctx, lattice = priv.field.ring, priv.lattice
    vec = tuple(map(operator.index, block))
    if not _in_box(lattice.diag, vec):
        raise ValueError("ciphertext outside coset box")
    (half_a, half_b, eps), digits = priv._crt, priv._digits
    if lattice.cyclic:  # R/(alpha beta) = Z/pq, where each d_p is one digit
        c, p, q, ((d_p,), (d_q,)) = vec[0], half_a.p, half_b.p, digits
        b = pow(c % q, d_q, q)
        w = (b + eps[0] * (pow(c % p, d_p, p) - b)) % lattice.cyclic
        return RingElement(ctx, (w,) + vec[1:])
    a, b = (_power_mod_prime(ctx, h, ds, vec) for h, ds in zip((half_a, half_b), digits))
    # eps is an integer unless both halves are F_p, and then a - b is one
    k, v = (eps[0], map(operator.sub, a, b)) if half_a.p != half_b.p else (a[0] - b[0], eps)
    return ctx.element(reduce_mod_lattice(lattice, [y + k * c for y, c in zip(b, v)]))


def _chunk_bytes(radices: Sequence[int]) -> int:
    if any(r < 1 for r in radices):
        raise ValueError("radices must be positive")
    capacity = math.prod(radices)
    if capacity < _MIN_CODEC_CAPACITY:
        raise CapacityError("modulus too small for byte encoding")
    return (capacity.bit_length() - 1) // 8


def encode_bytes(radices: Sequence[int], payload: bytes) -> list[tuple[int, ...]]:
    """Frame payload bytes as points of the box with the given radices.

    The stream is an 8-byte big-endian payload length followed by the
    payload, zero-padded to whole chunks of k = (bitlen(capacity) - 1) // 8
    bytes, where the capacity is the product of the radices; each chunk,
    read big-endian, is written in that mixed-radix system.
    """
    k = _chunk_bytes(radices)
    stream = len(payload).to_bytes(8, "big") + bytes(payload)
    if len(stream) % k:
        stream += b"\x00" * (k - len(stream) % k)
    blocks = []
    for pos in range(0, len(stream), k):
        value = int.from_bytes(stream[pos : pos + k], "big")
        digits = []
        for radix in radices:
            value, digit = divmod(value, radix)
            digits.append(digit)
        blocks.append(tuple(digits))
    return blocks


def decode_blocks(radices: Sequence[int], blocks: Iterable[Sequence[int]]) -> bytes:
    """Invert encode_bytes, validating box membership and the header."""
    k = _chunk_bytes(radices)
    places = [i for i, r in enumerate(radices) if r > 1]  # a radix-1 digit is 0 in the box
    scales = [math.prod(radices[:i]) for i in places]
    out = bytearray()
    count = 0
    for block in blocks:
        count += 1
        if not _in_box(radices, block):
            raise CiphertextFormatError("block outside box")
        value = sum(map(operator.mul, map(block.__getitem__, places), scales))
        if value >> (8 * k):
            raise CiphertextFormatError("block value out of codec range")
        out += value.to_bytes(k, "big")
    if len(out) < 8:
        raise CiphertextFormatError("corrupt length header")
    length = int.from_bytes(out[:8], "big")
    if 8 + length > len(out) or count != -(-(8 + length) // k):
        raise CiphertextFormatError("corrupt length header")
    return bytes(out[8 : 8 + length])


def _check_e(e: int, diag: Iterable[int]) -> None:
    """ValueError unless e is a public exponent for the lattice of this diagonal."""
    if e.bit_length() > _MAX_E_BITS:
        raise ValueError(f"public exponent above the limit of {_MAX_E_BITS} bits")
    if not 2 <= e < math.prod(diag):
        raise ValueError("public exponent out of range")


def _exponent_fault(priv: PrivateKey, e: int) -> str | None:
    """Why d and e are not inverse exponents of the key, or None if they are."""
    if not 1 <= priv.d < priv.phi:
        return "private exponent out of range"
    return None if e * priv.d % priv.phi == 1 else "e does not invert d modulo the totient"


def validate_keypair(pub: PublicKey, priv: PrivateKey) -> bool:
    """Consistency of a key pair: field, lattice, and exponents.

    The lattice determinant needs no check of its own: priv.lattice is
    product_lattice of alpha and beta, the canonical basis of the ideal
    (alpha * beta), whose determinant is N(alpha) N(beta).  Raises
    ValueError for a key the admission rule refuses, as parse_private does.
    """
    if pub.field != priv.field or pub.lattice != priv.lattice:
        return False
    return _exponent_fault(priv, pub.e) is None
