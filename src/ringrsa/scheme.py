"""Key generation, block encryption, and the byte codec.

A key pair is built from two non-associate prime elements alpha, beta:
the public lattice is the Hermite normal form of the ideal (alpha * beta),
which fields.product_lattice writes down from the norms and the roots of
x modulo alpha and beta, the public exponent e is invertible modulo
phi = (|N(alpha)| - 1) * (|N(beta)| - 1), and d is its inverse.  Messages
are points of the public coset box; encryption raises them to the e-th
convolution power modulo the public lattice, reduced into the box, and
decryption applies d the same way.  Two key shapes give the same result more
cheaply: an HNF diagonal (N, 1, ..., 1) makes the box Z/N, so the power is
an integer pow mod N; and alpha = p, beta = q for distinct unramified
rational primes let decryption work modulo the lattices pZ^n and qZ^n of
the two prime ideals and recombine by CRT.  Modulo p the block is raised
to d_p with the Frobenius map a -> a^p = a(x^p), a linear map cached per
prime: with d_p = sum d_i p^i in base p, the power is the product of the
images Frob^i(block)^(d_i), taken by interleaved sliding windows over one
squaring chain as long as a single digit.
The byte codec frames a payload with an 8-byte big-endian length header
and packs fixed-size chunks into mixed-radix box coordinates.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (
    AssociatePrimesError,
    CapacityError,
    CiphertextFormatError,
    SearchExhaustedError,
)
from .fields import (
    FieldDescriptor,
    PrimeElement,
    find_inert_prime,
    find_prime_norm_element,
    key_class_of,
    product_lattice,
    totient_of_product,
    unramified,
)
from .lattice import HnfBasis
from .primes import is_probable_prime
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
_ASSOCIATE_RETRY_BOUND = 64
_DEFAULT_E = 65537
# Largest public exponent, in bits: encryption costs a squaring per bit, and
# public keys are untrusted (Go's crypto/rsa caps e at 31 bits).
_MAX_E_BITS = 32


@dataclass(frozen=True)
class InertPrimeMode:
    bits: int


@dataclass(frozen=True)
class PrimeNormElementMode:
    coeff_bound: int


KeygenMode = Union[InertPrimeMode, PrimeNormElementMode]


@dataclass(frozen=True)
class PublicKey:
    field: FieldDescriptor
    lattice: HnfBasis
    e: int

    def __post_init__(self):
        if self.lattice.dimension != self.field.ring.degree:
            raise ValueError("lattice dimension does not match the field degree")
        if self.e.bit_length() > _MAX_E_BITS:
            raise ValueError(f"public exponent above the limit of {_MAX_E_BITS} bits")
        if not 2 <= self.e < math.prod(self.lattice.diag):
            raise ValueError("public exponent out of range")


@dataclass(frozen=True)
class PrivateKey:
    """The secret primes and exponent, unchecked; the totient and lattice follow."""

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
        """totient_of_product of alpha and beta; refuses units, zero and associates."""
        return totient_of_product(*self._primes)

    @cached_property
    def lattice(self) -> HnfBasis:
        """product_lattice of alpha and beta: the public modulus."""
        return product_lattice(*self._primes)

    @property
    def key_class(self) -> str:
        """"scalar", "mixed" or "prime-norm", as product_lattice classifies the key."""
        return key_class_of(*self._primes)

    @cached_property
    def decrypt_path(self) -> str:
        """Exponentiation decrypt_block runs: "scalar", "crt" or "lattice"."""
        if _scalar_modulus(self.lattice) is not None:
            return "scalar"
        if self._crt is not None:
            return "crt"
        return "lattice"

    @cached_property
    def _crt(self) -> tuple[_PrimeHalf, _PrimeHalf, int] | None:
        """(the half for p, the half for q, q^-1 mod p) for alpha = p, beta = q.

        Needs p != q prime and unramified, so that O/pO is a product of
        fields F_{p^f} with f | n and x^(p^n) = x on it.  None for any
        other key.
        """
        (p, *a_rest), (q, *b_rest) = self.alpha.coeffs, self.beta.coeffs
        if any(a_rest) or any(b_rest) or p == q:
            return None
        if not (unramified(self.field, p) and unramified(self.field, q)):
            return None
        if not (is_probable_prime(p) and is_probable_prime(q)):
            return None
        ctx = self.field.ring
        return _prime_half(ctx, p, self.d), _prime_half(ctx, q, self.d), pow(q, -1, p)


@dataclass(frozen=True)
class _PrimeHalf:
    """Decryption modulo one unramified prime p, in O/pO = (Z/p)[x]/(phi).

    digits are those of d_p in base p, least significant first, where
    d_p is d reduced mod p^n - 1 into [1, p^n - 1], never 0, so that zero
    divisors still map to 0.  lattice is pZ^n, for the box reduction of the
    power.  frobenius holds the rows of the matrix whose j-th column is
    (x^p)^j % p: in characteristic p, a^p = a(x^p), so the matrix maps a
    block to its p-th power.
    """

    p: int
    digits: tuple[int, ...]
    lattice: HnfBasis
    frobenius: tuple[tuple[int, ...], ...]


def _prime_half(ctx, p: int, d: int) -> _PrimeHalf:
    n = ctx.degree
    d_p = (d - 1) % (p**n - 1) + 1
    digits = []
    while d_p:
        d_p, digit = divmod(d_p, p)
        digits.append(digit)
    lattice = HnfBasis(tuple(tuple(p * (i == j) for j in range(n)) for i in range(n)))
    x_p = conv_pow(ctx, ctx.element((0, 1) + (0,) * (n - 2)), p, lattice)
    cols = [ctx.one()]
    while len(cols) < n:
        cols.append(ctx.element(c % p for c in conv_mul(ctx, cols[-1], x_p).coeffs))
    return _PrimeHalf(p, tuple(digits), lattice, tuple(zip(*(c.coeffs for c in cols))))


def _power_mod_prime(ctx, half: _PrimeHalf, vec: Sequence[int]) -> tuple[int, ...]:
    """vec^(d_p) mod p as the product of Frob^i(vec)^(digit i).

    Frob^i(vec) = vec^(p^i), so the exponentiation runs over the bits of
    one base-p digit instead of all of d_p.  The block and each image are
    taken % p, into the box of pZ^n; conv_multi_pow reduces the product.
    """
    p = half.p
    images = [tuple(c % p for c in vec)]
    for _ in half.digits[1:]:
        prev = images[-1]
        images.append(tuple(sum(map(operator.mul, row, prev)) % p for row in half.frobenius))
    bases = [ctx.element(image) for image in images]
    return conv_multi_pow(ctx, bases, half.digits, half.lattice).coeffs


@dataclass(frozen=True)
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
    """Assemble a key pair from two already-found prime elements.

    The totient and the public lattice come from the norms and roots that
    alpha and beta cache, so a search that has read the norms pays for none.
    """
    phi = totient_of_product(alpha, beta)
    e = _select_e(phi, e_choice)
    priv = PrivateKey(field, alpha.element, beta.element, pow(e, -1, phi))
    return PublicKey(field, product_lattice(alpha, beta), e), priv


def keygen(
    field: FieldDescriptor,
    mode: KeygenMode,
    e_choice: int | None = None,
    rng=None,
) -> tuple[PublicKey, PrivateKey]:
    """Generate a key pair in the given field.

    InertPrimeMode draws two distinct rational inert primes of the given
    bit length; PrimeNormElementMode draws two prime-norm elements with
    bounded coefficients, retrying associates up to an internal bound.
    """
    if rng is None:
        rng = random.SystemRandom()
    for _ in range(_ASSOCIATE_RETRY_BOUND):
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
        try:
            return keypair_from_primes(field, alpha, beta, e_choice)
        except AssociatePrimesError:
            continue
    raise SearchExhaustedError("search exhausted: could not find non-associate primes")


def _vector_of(arg, ctx) -> tuple[int, ...]:
    if isinstance(arg, CiphertextBlock):
        arg = arg.vector
    if isinstance(arg, RingElement):
        if arg.context != ctx:
            raise ValueError("context mismatch")
        return arg.coeffs
    return tuple(operator.index(c) for c in arg)


def _in_box(radices: Sequence[int], vec: Sequence[int]) -> bool:
    return len(vec) == len(radices) and all(0 <= c < r for c, r in zip(vec, radices))


def _scalar_modulus(basis: HnfBasis) -> int | None:
    """N when the HNF diagonal is (N, 1, ..., 1), else None.

    HNF reduction then forces every off-diagonal entry to 0, so the box
    points are (m, 0, ..., 0), and they multiply as the integers m mod N.
    """
    first, *rest = basis.diag
    return first if all(b == 1 for b in rest) else None


def _scalar_pow(ctx, modulus: int, vec: Sequence[int], exponent: int) -> RingElement:
    return ctx.element((pow(vec[0], exponent, modulus),) + (0,) * (ctx.degree - 1))


def encrypt_block(pub: PublicKey, block) -> CiphertextBlock:
    """e-th convolution power of a box point modulo the lattice, in the box.

    Raises TypeError for a coordinate that is not an integer (a float,
    Fraction or str) and ValueError for a point outside the box.
    """
    ctx = pub.field.ring
    vec = _vector_of(block, ctx)
    if not _in_box(pub.lattice.diag, vec):
        raise ValueError("message outside coset box")
    modulus = _scalar_modulus(pub.lattice)
    if modulus is not None:
        return CiphertextBlock(_scalar_pow(ctx, modulus, vec, pub.e))
    return CiphertextBlock(conv_pow(ctx, ctx.element(vec), pub.e, pub.lattice))


def decrypt_block(priv: PrivateKey, block) -> RingElement:
    """d-th convolution power of a ciphertext point modulo the lattice.

    The path follows priv.decrypt_path; all three give the same point.
    Raises TypeError for a coordinate that is not an integer (a float,
    Fraction or str) and ValueError for a point outside the box.
    """
    ctx = priv.field.ring
    vec = _vector_of(block, ctx)
    if not _in_box(priv.lattice.diag, vec):
        raise ValueError("ciphertext outside coset box")
    path = priv.decrypt_path
    if path == "scalar":
        return _scalar_pow(ctx, priv.lattice.diag[0], vec, priv.d)
    if path == "crt":
        p_half, q_half, q_inv = priv._crt
        p, q = p_half.p, q_half.p
        by_p = _power_mod_prime(ctx, p_half, vec)
        by_q = _power_mod_prime(ctx, q_half, vec)
        # Garner: the unique c in [0, pq) with c = c_p mod p and c = c_q mod q
        return ctx.element(
            tuple(cq + q * ((cp - cq) * q_inv % p) for cp, cq in zip(by_p, by_q))
        )
    return conv_pow(ctx, ctx.element(vec), priv.d, priv.lattice)


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
    out = bytearray()
    count = 0
    for block in blocks:
        count += 1
        if not _in_box(radices, block):
            raise CiphertextFormatError("block outside box")
        value = 0
        scale = 1
        for digit, radix in zip(block, radices):
            value += digit * scale
            scale *= radix
        if value >> (8 * k):
            raise CiphertextFormatError("block value out of codec range")
        out += value.to_bytes(k, "big")
    if len(out) < 8:
        raise CiphertextFormatError("corrupt length header")
    length = int.from_bytes(out[:8], "big")
    if 8 + length > len(out) or count != -(-(8 + length) // k):
        raise CiphertextFormatError("corrupt length header")
    return bytes(out[8 : 8 + length])


def validate_keypair(pub: PublicKey, priv: PrivateKey) -> bool:
    """Consistency of a key pair: field, exponents, and lattice.

    The lattice determinant needs no check of its own: priv.lattice is
    product_lattice of alpha and beta, the canonical basis of the ideal
    (alpha * beta), whose determinant is N(alpha) N(beta).
    """
    return (
        pub.field == priv.field
        and 1 <= priv.d < priv.phi
        and pub.e * priv.d % priv.phi == 1
        and pub.lattice == priv.lattice
    )
