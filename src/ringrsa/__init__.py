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
    FieldDescriptor,
    PrimeElement,
    cyclotomic_field,
    find_inert_prime,
    find_prime_norm_element,
    generic_field,
    is_inert_prime,
    parse_field_spec,
    quadratic_field,
    totient_of_product,
)
from .lattice import (
    CosetBox,
    HnfBasis,
    contains,
    coset_box,
    determinant,
    hnf,
    reduce_mod_lattice,
)
from .ring import (
    IdealMatrix,
    RingContext,
    RingElement,
    conv_mul,
    conv_pow,
    ideal_matrix,
    make_ring,
    norm,
)
from .scheme import (
    CiphertextBlock,
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

__version__ = "0.1.0"
