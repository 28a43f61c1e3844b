"""Key generation, block encryption, and the byte codec.

A key pair is built from two prime elements alpha, beta over distinct
rational primes, both scalars or both of prime norm: the public lattice
is the Hermite normal form of the ideal (alpha * beta), which
fields.product_lattice writes down from the norms and the roots of x
modulo alpha and beta, the public exponent e is invertible modulo
phi = (|N(alpha)| - 1) * (|N(beta)| - 1), and d is its inverse.  Messages
are points of the public coset box.  Encryption raises them to the e-th
convolution power in (Z/m)[x]/(phi), m the lattice's corner.  Decryption
raises a block to d in each factor, or half, of R/(alpha beta) =
R/(alpha) x R/(beta), and recombines the two powers by the idempotent
of (alpha).  The admission rule, _admit, computes it, and every key
pair passes the rule: keygen, parsing and decryption.  The byte
codec frames a payload with an 8-byte big-endian length header and
packs fixed-size chunks into mixed-radix box coordinates.
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
    HnfBasis,
    PrimeElement,
    _mat_vec_mod,
    find_inert_prime,
    find_prime_norm_element,
    product_lattice,
)
from .ring import RingElement, conv_multi_pow, conv_pow

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
    """The secret PrimeElements and exponent, unchecked; the totient, eps and lattice follow."""

    field: FieldDescriptor
    alpha: PrimeElement
    beta: PrimeElement
    d: int

    @cached_property
    def phi(self) -> int:
        """(|N(alpha)| - 1) * (|N(beta)| - 1), the totient of an admitted key."""
        return (self.alpha.norm_abs - 1) * (self.beta.norm_abs - 1)

    @cached_property
    def lattice(self) -> HnfBasis:
        """product_lattice of alpha and beta, once _eps admits them: the public modulus."""
        self._eps
        return product_lattice(self.alpha, self.beta)

    @property
    def key_class(self) -> str:
        """"scalar" or "prime-norm", read off the primes _eps admits."""
        self._eps
        return "scalar" if self.alpha.root is None else "prime-norm"

    @cached_property
    def _eps(self) -> int:
        """_admit of alpha and beta: the admission rule, run once per key."""
        return _admit(self.alpha, self.beta)

    @cached_property
    def _digits(self) -> tuple[tuple[int, ...], ...]:
        """The base-p digits of d in each half, computed once per key, not per block."""
        self._eps
        return tuple(
            _base_p_digits(self.d, prime.p, prime.norm_abs - 1) for prime in (self.alpha, self.beta)
        )


def _admit(alpha: PrimeElement, beta: PrimeElement) -> int:
    """The admission rule, the only refusal of a key's alpha and beta; returns eps.

    Two scalars or two elements over rational primes p != q pass, with
    eps = q (q^-1 mod p), 1 mod p and 0 mod q.  Each prime's root, then
    p_is_prime, then a scalar's frobenius refuse it with ValueError; so
    does a scalar beside an element, and p = q raises AssociatePrimesError.
    Either refused pair's public lattice, of diagonal (s m, s, ..., s) or
    (p, p, 1, ..., 1), gives the totient away.
    """
    for prime in alpha, beta:
        scalar = prime.root is None
        if not prime.p_is_prime:
            raise ValueError("alpha or beta is not prime (a unit, zero, composite scalar or norm)")
        if scalar:
            prime.frobenius
    p, q = alpha.p, beta.p
    if p == q:
        raise AssociatePrimesError("alpha and beta lie over one prime: not coprime, or equal norms")
    if (alpha.root is None) != (beta.root is None):
        raise ValueError("a scalar beside an element: the public lattice gives the totient away")
    return q * pow(q, -1, p)


def _base_p_digits(d: int, p: int, order: int) -> tuple[int, ...]:
    """Base-p digits, least significant first, of d_p = d mod order in [1, order].

    order is |N(P)| - 1, which the order of every unit of R/P divides:
    p^n - 1 for a scalar p, whose R/P is a product of fields F_{p^f}, f | n,
    and p - 1 for an element, whose R/P is F_p.  So a^d = a^d_p on R/P;
    d_p is never 0, so zero divisors map to 0.
    """
    d_p = (d - 1) % order + 1
    digits = []
    while d_p:
        d_p, digit = divmod(d_p, p)
        digits.append(digit)
    return tuple(digits)


def _power_mod_prime(
    ctx, prime: PrimeElement, digits: Sequence[int], vec: Sequence[int]
) -> tuple[int, ...]:
    """vec^d in R/pR for a scalar p, lifted to a coefficient vector; digits are _base_p_digits of d.

    The product of the Frobenius images vec^(p^i) % p to the i-th digits,
    so the squaring chain is one digit long, in (Z/p)[x]/(phi) by
    conv_multi_pow.  An element's half is F_p, which only the integer path
    of decrypt_block reaches.
    """
    p = prime.p
    images = [tuple(c % p for c in vec)]
    for _ in digits[1:]:
        images.append(_mat_vec_mod(prime.frobenius, images[-1], p))
    bases = [ctx.element(image) for image in images]
    return conv_multi_pow(ctx, bases, digits, p).coeffs


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
    where phi leaves no e.  The private key keeps alpha and beta, with
    what the rule computed on them.
    """
    _admit(alpha, beta)
    phi = (alpha.norm_abs - 1) * (beta.norm_abs - 1)
    e = _select_e(phi, e_choice)
    priv = PrivateKey(field, alpha, beta, pow(e, -1, phi))
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
    bounded coefficients, drawing again up to an internal bound while the
    admission rule finds their norms equal (AssociatePrimesError).
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
        try:
            return keypair_from_primes(field, alpha, beta, e_choice)
        except AssociatePrimesError:
            pass
    raise SearchExhaustedError("search exhausted: could not find primes of distinct norms")


def _in_box(radices: Sequence[int], vec: Sequence[int]) -> bool:
    return len(vec) == len(radices) and min(vec) >= 0 and all(map(operator.lt, vec, radices))


def encrypt_block(pub: PublicKey, block: Sequence[int]) -> CiphertextBlock:
    """e-th convolution power of a box point modulo the lattice, in the box.

    pub.lattice must be a key lattice, as keygen and parse_public give:
    (N, x - r), whose box is Z/N, or m I, whose box is (Z/m)[x]/(phi).
    A hand-built PublicKey of any other lattice is not supported.  Raises
    TypeError for a coordinate that is not an integer (a float, Fraction
    or str) and ValueError for a point outside the box.
    """
    ctx, lattice = pub.field.ring, pub.lattice
    vec = tuple(map(operator.index, block))
    if not _in_box(lattice.diag, vec):
        raise ValueError("message outside coset box")
    if lattice.cyclic:  # box points (m, 0, ..., 0) multiply as m mod N
        return CiphertextBlock(RingElement(ctx, (pow(vec[0], pub.e, lattice.cyclic),) + vec[1:]))
    return CiphertextBlock(conv_pow(ctx, RingElement(ctx, vec), pub.e, lattice.diag[0]))


def decrypt_block(priv: PrivateKey, block: Sequence[int]) -> RingElement:
    """d-th convolution power of a ciphertext point modulo the lattice.

    The powers a and b in the halves R/(alpha) and R/(beta) recombine as
    b + eps (a - b) mod pq.  priv.lattice is a key lattice, product_lattice
    of the admitted key.  On a box (pq, 1, ..., 1) the powers are
    integers, RSA-CRT on c mod p and c mod q; otherwise both halves are
    scalar, (Z/p)[x]/(phi) and (Z/q)[x]/(phi), and the lattice is pq I,
    whose box is every coefficient mod pq.  Raises TypeError for a
    coordinate that is not an integer (a float, Fraction or str),
    CiphertextFormatError (a ValueError) for a point outside the box, and
    ValueError for a key _admit refuses.
    """
    ctx, lattice = priv.field.ring, priv.lattice
    vec = tuple(map(operator.index, block))
    if not _in_box(lattice.diag, vec):
        raise CiphertextFormatError("ciphertext outside coset box")
    eps, alpha, beta, digits = priv._eps, priv.alpha, priv.beta, priv._digits
    if lattice.cyclic:  # R/(alpha beta) = Z/pq, where each d_p is one digit
        c, p, q, ((d_p,), (d_q,)) = vec[0], alpha.p, beta.p, digits
        b = pow(c % q, d_q, q)
        w = (b + eps * (pow(c % p, d_p, p) - b)) % lattice.cyclic
        return RingElement(ctx, (w,) + vec[1:])
    a, b = (_power_mod_prime(ctx, prime, ds, vec) for prime, ds in zip((alpha, beta), digits))
    return ctx.element((y + eps * (x - y)) % lattice.diag[0] for x, y in zip(a, b))


def _chunking(radices: Sequence[int]) -> tuple[int, list[int]]:
    """Bytes per chunk, and the coordinates of radix above 1 (a radix-1 digit is 0 in the box)."""
    if any(r < 1 for r in radices):
        raise ValueError("radices must be positive")
    capacity = math.prod(radices)
    if capacity < _MIN_CODEC_CAPACITY:
        raise CapacityError("modulus too small for byte encoding")
    return (capacity.bit_length() - 1) // 8, [i for i, r in enumerate(radices) if r > 1]


def encode_bytes(radices: Sequence[int], payload: bytes) -> list[tuple[int, ...]]:
    """Frame payload bytes as points of the box with the given radices.

    The stream is an 8-byte big-endian payload length followed by the
    payload, zero-padded to whole chunks of k = (bitlen(capacity) - 1) // 8
    bytes, where the capacity is the product of the radices; each chunk,
    read big-endian, is written in that mixed-radix system.
    """
    k, places = _chunking(radices)
    stream = len(payload).to_bytes(8, "big") + bytes(payload)
    if len(stream) % k:
        stream += b"\x00" * (k - len(stream) % k)
    blocks = []
    for pos in range(0, len(stream), k):
        value = int.from_bytes(stream[pos : pos + k], "big")
        digits = [0] * len(radices)
        for i in places:
            value, digits[i] = divmod(value, radices[i])
        blocks.append(tuple(digits))
    return blocks


def decode_blocks(radices: Sequence[int], blocks: Iterable[Sequence[int]]) -> bytes:
    """Invert encode_bytes, validating box membership and the header."""
    k, places = _chunking(radices)
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
