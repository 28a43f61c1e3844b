"""RSA-style public-key encryption over rings of algebraic integers.

Ring elements are integer coefficient vectors, multiplication is the
convolution product modulo a monic polynomial, and the public modulus is
the Hermite-normal-form basis of the ideal lattice generated by the
product of two secret prime elements.  Messages live in the lattice coset
box, and encryption/decryption are convolution powers reduced into that
box.  Everything is exact integer arithmetic.
"""

from .errors import (
    CapacityError,
    CiphertextFormatError,
    FingerprintMismatchError,
    KeyFileError,
    SearchExhaustedError,
)
from .fields import (
    PrimeElement,
    cyclotomic_field,
    generic_field,
    parse_field_spec,
    quadratic_field,
)
from .scheme import (
    InertPrimeMode,
    PrimeNormElementMode,
    PrivateKey,
    PublicKey,
    decode_blocks,
    decrypt_block,
    encode_bytes,
    encrypt_block,
    keygen,
    keypair_from_primes,
    validate_keypair,
)

__all__ = [
    # fields and prime elements
    "quadratic_field", "cyclotomic_field", "generic_field", "parse_field_spec", "PrimeElement",
    # keys
    "InertPrimeMode", "PrimeNormElementMode", "PublicKey", "PrivateKey",
    "keygen", "keypair_from_primes", "validate_keypair",
    # blocks and the byte codec
    "encrypt_block", "decrypt_block", "encode_bytes", "decode_blocks",
    # the exceptions the CLI maps to exit codes
    "CapacityError", "CiphertextFormatError", "FingerprintMismatchError",
    "KeyFileError", "SearchExhaustedError",
]
