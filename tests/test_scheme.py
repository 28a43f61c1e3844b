"""Key generation, block encryption, and key pair validation."""

import collections
import importlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import ringrsa
from ringrsa import (
    InertPrimeMode,
    KeyFileError,
    PrimeElement,
    PrimeNormElementMode,
    PrivateKey,
    PublicKey,
    SearchExhaustedError,
    cyclotomic_field,
    decrypt_block,
    encrypt_block,
    generic_field,
    keygen,
    keypair_from_primes,
    quadratic_field,
    validate_keypair,
)
from ringrsa import fields, lattice, primes, scheme
from ringrsa.errors import AssociatePrimesError, CiphertextFormatError
from ringrsa.fields import find_prime_norm_element
from ringrsa.keyfiles import parse_private, parse_public, render_private, render_public
from ringrsa.lattice import HnfBasis
from ringrsa.ring import conv_pow, norm
from ringrsa.scheme import CiphertextBlock
from support import power_mod_lattice

FIELD = quadratic_field(2)


def toy_keypair(e_choice=5):
    alpha = PrimeElement(FIELD.ring.element((3, 0)))
    beta = PrimeElement(FIELD.ring.element((5, 0)))
    return keypair_from_primes(FIELD, alpha, beta, e_choice=e_choice)


class TestToyKeypair:
    """The Q(sqrt(2)) key with rational primes 3 and 5 and e = 5."""

    def test_exact_values(self):
        pub, priv = toy_keypair()
        assert pub.lattice.entries == ((15, 0), (0, 15))
        assert pub.e == 5
        assert priv.phi == 192
        assert priv.d == 77
        assert validate_keypair(pub, priv)

    def test_block_roundtrip(self):
        pub, priv = toy_keypair()
        ct = encrypt_block(pub, (1, 1))
        assert ct.vector.coeffs == (11, 14)
        assert decrypt_block(priv, ct.vector.coeffs).coeffs == (1, 1)

    def test_default_e_falls_back_below_65537(self):
        pub, _ = toy_keypair(e_choice=None)
        assert pub.e == 5  # smallest exponent >= 3 coprime to 192


class TestExponentSelection:
    def test_requested_e_must_be_coprime(self):
        with pytest.raises(ValueError, match="not coprime"):
            toy_keypair(e_choice=4)

    @pytest.mark.parametrize("e", [0, 1, -5, 192, 500])
    def test_requested_e_must_be_in_range(self, e):
        with pytest.raises(ValueError, match="out of range"):
            toy_keypair(e_choice=e)

    def test_tiny_totient_has_no_exponent(self):
        field = quadratic_field(3)
        alpha = PrimeElement(field.ring.element((1, 1)))
        beta = PrimeElement(field.ring.element((0, 1)))
        # phi = (2-1)(3-1) = 2 leaves no candidate e
        with pytest.raises(ValueError, match="no valid e"):
            keypair_from_primes(field, alpha, beta)

    def test_exponent_capped_at_32_bits(self):
        pub, priv = keygen(FIELD, InertPrimeMode(bits=48), rng=random.Random(4))
        text = render_public(pub)
        assert parse_public(text.replace(f"e = {pub.e}", f"e = {(1 << 32) - 1}")).e == (1 << 32) - 1
        with pytest.raises(KeyFileError, match="above the limit of 32 bits"):
            parse_public(text.replace(f"e = {pub.e}", f"e = {(1 << 32) + 15}"))
        # keygen's _select_e takes the cap: 2^32 + 15 is a prime below phi
        with pytest.raises(ValueError, match="above the limit of 32 bits"):
            keypair_from_primes(FIELD, priv.alpha, priv.beta, e_choice=(1 << 32) + 15)

    def test_default_is_65537_when_totient_allows(self):
        rng = random.Random(3)
        pub, priv = keygen(FIELD, InertPrimeMode(bits=16), rng=rng)
        assert pub.e == 65537
        assert pub.e * priv.d % priv.phi == 1


class TestKeygen:
    def test_inert_mode_gives_scalar_primes_and_diagonal_lattice(self):
        rng = random.Random(41)
        pub, priv = keygen(FIELD, InertPrimeMode(bits=8), rng=rng)
        assert priv.alpha.element.coeffs[1] == 0
        assert priv.beta.element.coeffs[1] == 0
        p, q = priv.alpha.element.coeffs[0], priv.beta.element.coeffs[0]
        assert p != q
        assert pub.lattice.entries == ((p * q, 0), (0, p * q))
        assert validate_keypair(pub, priv)

    def test_element_mode_gives_nonscalar_primes(self):
        rng = random.Random(42)
        pub, priv = keygen(FIELD, PrimeNormElementMode(coeff_bound=20), rng=rng)
        assert any(priv.alpha.element.coeffs[1:])
        assert any(priv.beta.element.coeffs[1:])
        assert validate_keypair(pub, priv)

    def test_seeded_runs_reproduce(self):
        a = keygen(FIELD, InertPrimeMode(bits=10), rng=random.Random(7))
        b = keygen(FIELD, InertPrimeMode(bits=10), rng=random.Random(7))
        assert a == b

    def test_quartic_field(self):
        rng = random.Random(5)
        field = cyclotomic_field(5)
        pub, priv = keygen(field, InertPrimeMode(bits=6), rng=rng)
        assert len(pub.lattice.entries) == 4
        p = priv.alpha.element.coeffs[0]
        assert priv.phi % (p**4 - 1) == 0
        assert validate_keypair(pub, priv)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown keygen mode"):
            keygen(FIELD, object())

    def test_equal_norm_pairs_are_drawn_again(self):
        # seed 1 first draws -2 - 3i and 3 + 2i: both of norm 13, not associates
        field, rng = quadratic_field(-1), random.Random(1)
        alpha, beta = (find_prime_norm_element(field, 4, rng) for _ in range(2))
        assert (alpha.element.coeffs, beta.element.coeffs) == ((-2, -3), (3, 2))
        # the admission rule refuses such a pair: its lattice (13, 13) gives phi away
        with pytest.raises(AssociatePrimesError, match="equal norms"):
            keypair_from_primes(field, alpha, beta)
        pub, priv = keygen(field, PrimeNormElementMode(4), rng=random.Random(1))
        norms = [x.norm_abs for x in (priv.alpha, priv.beta)]
        assert norms[0] != norms[1] and pub.lattice.diag[0] == norms[0] * norms[1]

    def test_associate_only_pool_exhausts(self):
        # bound 1 in Q(sqrt(2)) only ever finds +-sqrt(2), all associates
        rng = random.Random(0)
        with pytest.raises(SearchExhaustedError, match="distinct norms"):
            keygen(FIELD, PrimeNormElementMode(coeff_bound=1), rng=rng)


class TestKeyObjects:
    # PublicKey checks nothing when it is built; parse_public does
    def test_public_exponent_bounds(self):
        text = render_public(PublicKey(FIELD, HnfBasis(((15, 0), (0, 15))), 5))
        assert parse_public(text).e == 5
        for e in (0, 1, 225):
            with pytest.raises(KeyFileError, match="out of range"):
                parse_public(text.replace("e = 5", f"e = {e}"))

    def test_lattice_dimension_must_match_degree(self):
        lattice = HnfBasis(((15, 0), (0, 15)))
        with pytest.raises(KeyFileError, match="'lattice' does not match the field degree 4"):
            parse_public(render_public(PublicKey(cyclotomic_field(5), lattice, 5)))

    def test_hand_built_private_key_checked_by_validate_keypair(self):
        pub, priv = toy_keypair()
        assert not validate_keypair(pub, PrivateKey(FIELD, priv.alpha, priv.beta, 0))
        # 77 - 192 inverts e = 5 modulo 192 too, but is out of range
        assert not validate_keypair(pub, PrivateKey(FIELD, priv.alpha, priv.beta, 77 - 192))
        with pytest.raises(AssociatePrimesError):
            validate_keypair(pub, PrivateKey(FIELD, priv.alpha, priv.alpha, 77))


class TestBlockOperations:
    def test_accepted_block_forms(self):
        # the block entry points take a sequence of ints: an element or a
        # ciphertext block passes its coefficients, and is itself refused
        pub, priv = toy_keypair()
        as_tuple = encrypt_block(pub, (1, 1))
        as_elem = encrypt_block(pub, FIELD.ring.element((1, 1)).coeffs)
        as_block = encrypt_block(pub, CiphertextBlock(FIELD.ring.element((1, 1))).vector.coeffs)
        assert as_tuple == as_elem == as_block == encrypt_block(pub, [1, 1])
        assert decrypt_block(priv, as_tuple.vector.coeffs).coeffs == (1, 1)
        assert decrypt_block(priv, list(as_tuple.vector.coeffs)).coeffs == (1, 1)
        for wrapped in (as_tuple.vector, as_tuple):
            with pytest.raises(TypeError):
                encrypt_block(pub, wrapped)
            with pytest.raises(TypeError):
                decrypt_block(priv, wrapped)

    def test_message_outside_box_rejected(self):
        pub, _ = toy_keypair()
        with pytest.raises(ValueError, match="message outside coset box"):
            encrypt_block(pub, (15, 0))
        with pytest.raises(ValueError, match="message outside coset box"):
            encrypt_block(pub, (-1, 3))

    def test_ciphertext_outside_box_rejected(self):
        _, priv = toy_keypair()
        with pytest.raises(ValueError, match="ciphertext outside coset box"):
            decrypt_block(priv, (15, 3))
        # the type the CLI maps to exit 6, raised where the box is checked
        with pytest.raises(CiphertextFormatError, match="ciphertext outside coset box"):
            decrypt_block(priv, (-1, 3))

    def test_wrong_length_rejected(self):
        pub, priv = toy_keypair()
        with pytest.raises(ValueError, match="message outside coset box"):
            encrypt_block(pub, (1, 1, 1))
        with pytest.raises(ValueError, match="ciphertext outside coset box"):
            decrypt_block(priv, (1,))

    @pytest.mark.parametrize(
        "block",
        [(2.9, 0), (Fraction(12), 0), ("12", 0), (True, 0.5)],
        ids=["float", "fraction", "str", "bool-and-float"],
    )
    def test_non_integer_coordinates_rejected(self, block):
        # int() would truncate 2.9 to 2 and parse "12"; only integers pass
        pub, priv = toy_keypair()
        with pytest.raises(TypeError):
            encrypt_block(pub, block)
        with pytest.raises(TypeError):
            decrypt_block(priv, block)

    @pytest.mark.parametrize(
        "mode",
        [InertPrimeMode(bits=8), PrimeNormElementMode(coeff_bound=30)],
        ids=["inert", "element"],
    )
    def test_random_roundtrips(self, mode):
        rng = random.Random(99)
        pub, priv = keygen(FIELD, mode, rng=rng)
        box = pub.lattice.diag
        for _ in range(25):
            msg = tuple(rng.randrange(r) for r in box)
            assert decrypt_block(priv, encrypt_block(pub, msg).vector.coeffs).coeffs == msg


class TestValidateKeypair:
    def test_mismatched_fields(self):
        pub, _ = toy_keypair()
        other = quadratic_field(-1)
        alpha = PrimeElement(other.ring.element((1, 2)))  # 1+2i, norm 5
        beta = PrimeElement(other.ring.element((1, 1)))  # 1+i, norm 2
        _, priv = keypair_from_primes(other, alpha, beta)
        assert not validate_keypair(pub, priv)

    def test_crossed_keys_fail(self):
        pub1, priv1 = toy_keypair()
        rng = random.Random(12)
        pub2, priv2 = keygen(FIELD, InertPrimeMode(bits=8), rng=rng)
        assert not validate_keypair(pub1, priv2)
        assert not validate_keypair(pub2, priv1)

    def test_wrong_exponent_pairing_fails(self):
        pub, priv = toy_keypair()
        other_pub = PublicKey(FIELD, pub.lattice, 7)
        assert not validate_keypair(other_pub, priv)


def scalar_prime_keypair(field, p, q):
    """Key pair from the rational integers alpha = p and beta = q."""
    n = field.ring.degree
    pad = (0,) * (n - 1)
    alpha = PrimeElement(field.ring.element((p,) + pad))
    beta = PrimeElement(field.ring.element((q,) + pad))
    return keypair_from_primes(field, alpha, beta)


def hand_built_private_key(field, p, q, d):
    """Private key for alpha = p, beta = q with any d, bypassing keygen."""
    ctx = field.ring
    n = ctx.degree
    alpha = PrimeElement(ctx.element((p,) + (0,) * (n - 1)))
    beta = PrimeElement(ctx.element((q,) + (0,) * (n - 1)))
    return PrivateKey(field, alpha, beta, d)


def element_keypair(field, coeff_bound, seed):
    return keygen(field, PrimeNormElementMode(coeff_bound), rng=random.Random(seed))


def lattice_power(ctx, lattice, vec, exponent):
    """The generic path: convolution power modulo the lattice, in the box."""
    return power_mod_lattice(ctx, ctx.element(vec), exponent, lattice)


def box_points(radices, rng, limit=2000):
    """The whole box when it has at most `limit` points, else a sample.

    The sample mixes uniform points with points whose coordinates share a
    factor of the first radix, so zero divisors of every factor ring occur.
    """
    if math.prod(radices) <= limit:
        return list(itertools.product(*(range(r) for r in radices)))
    factors = [f for f in range(2, radices[0]) if radices[0] % f == 0]
    points = []
    for _ in range(limit // 10):
        f = rng.choice(factors)
        points.append(tuple(rng.randrange(r) for r in radices))
        points.append(tuple(f * rng.randrange(r // f) for r in radices))
    return points


# id: key pair builder.  The ids name the path each key took when
# decryption had three (an integer pow mod N, CRT over two scalar primes,
# and the power modulo the lattice); now every key takes the one CRT path.
PATH_KEYS = {
    "scalar-m5": lambda: element_keypair(cyclotomic_field(5), 1, 0),
    "scalar-d2": lambda: element_keypair(quadratic_field(2), 5, 0),
    "crt-d2": lambda: scalar_prime_keypair(quadratic_field(2), 3, 5),
    "crt-d-1": lambda: scalar_prime_keypair(quadratic_field(-1), 3, 7),
    "crt-m5": lambda: scalar_prime_keypair(cyclotomic_field(5), 2, 3),
    "crt-m8": lambda: scalar_prime_keypair(cyclotomic_field(8), 3, 5),
    "crt-m12": lambda: scalar_prime_keypair(cyclotomic_field(12), 5, 7),
    # 5 = (2 + i)(2 - i) splits in Z[i]: Z[i]/5 is F_5 x F_5, with zero divisors
    "crt-d-1-split": lambda: scalar_prime_keypair(quadratic_field(-1), 5, 3),
    # x^3 - x - 1 is irreducible mod 2 and mod 3
    "lattice-generic": lambda: scalar_prime_keypair(generic_field((1, 1, 0)), 2, 3),
    # Z[x]/(x - 5) is Z, and the Frobenius half of a scalar p is F_p
    "degree-1": lambda: scalar_prime_keypair(generic_field((5,)), 3, 7),
    # 1 + 2i and 2 + 3i of norms 5 and 13: the box (65, 1), integer RSA-CRT
    "element-d-1": lambda: keypair_from_primes(
        quadratic_field(-1),
        *(PrimeElement(quadratic_field(-1).ring.element(v)) for v in ((1, 2), (2, 3))),
    ),
}
# the keys whose box is (N, 1, ..., 1): two prime norms p != q, or degree 1
INTEGER_KEYS = ["scalar-m5", "scalar-d2", "degree-1", "element-d-1"]


class TestDecryptPaths:
    """Decryption by CRT equals the generic lattice-reduced power on every key class."""

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_paths_match_lattice_power_on_box(self, key):
        pub, priv = PATH_KEYS[key]()
        ctx = pub.field.ring
        rng = random.Random(key)
        for msg in box_points(pub.lattice.diag, rng):
            ct = encrypt_block(pub, msg).vector.coeffs
            assert ct == lattice_power(ctx, pub.lattice, msg, pub.e)
            assert decrypt_block(priv, ct).coeffs == msg
            assert decrypt_block(priv, msg).coeffs == lattice_power(
                ctx, priv.lattice, msg, priv.d
            )

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_coset_box_is_the_lattice_diagonal(self, key):
        pub, priv = PATH_KEYS[key]()
        # the replay in the benchmark reads the box through lattice.coset_box
        assert lattice.coset_box(pub.lattice) == pub.lattice.diag == lattice.coset_box(priv.lattice)

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_out_of_box_ciphertext_rejected_on_every_path(self, key):
        # the box corner with one coordinate at its radix or at -1: on an
        # integer key, c = N and (N - 1, 1, 0, ...) among them
        pub, priv = PATH_KEYS[key]()
        corner = [r - 1 for r in priv.lattice.diag]
        for i, radix in enumerate(priv.lattice.diag):
            for value in (radix, -1):
                bad = corner[:i] + [value] + corner[i + 1:]
                with pytest.raises(ValueError, match="ciphertext outside coset box"):
                    decrypt_block(priv, bad)
                with pytest.raises(ValueError, match="message outside coset box"):
                    encrypt_block(pub, bad)

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_integer_path_is_the_box_shape(self, key):
        pub, priv = PATH_KEYS[key]()
        assert pub.lattice.cyclic == priv.lattice.cyclic
        assert bool(pub.lattice.cyclic) == (key in INTEGER_KEYS)
        if key in INTEGER_KEYS:
            assert pub.lattice.cyclic == priv.alpha.p * priv.beta.p

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_digits_are_d_modulo_the_unit_group_order(self, key):
        # the order of every unit of R/P divides N - 1, N = |N(P)|: p^n - 1
        # for a scalar p, p - 1 for an element of prime norm p; d is reduced
        # into [1, N - 1]
        _, priv = PATH_KEYS[key]()
        ctx = priv.field.ring
        for element, digits in zip((priv.alpha.element, priv.beta.element), priv._digits):
            n_abs = abs(norm(ctx, element))
            scalar = not any(element.coeffs[1:])
            p = abs(element.coeffs[0]) if scalar else n_abs
            assert n_abs == p ** (ctx.degree if scalar else 1)
            d_p, expected = (priv.d - 1) % (n_abs - 1) + 1, []
            while d_p:
                d_p, digit = divmod(d_p, p)
                expected.append(digit)
            assert digits == tuple(expected)

    @pytest.mark.parametrize("key", INTEGER_KEYS)
    def test_integer_keys_run_no_vector_work(self, key, ring_products, record_calls):
        pub, priv = PATH_KEYS[key]()
        priv._digits  # the per-key set-up, a degree-1 key's Frobenius, runs before counting
        ring_products.clear()
        calls = []
        record_calls(lattice, "reduce_mod_lattice", lambda *args: calls.append("reduce"))
        record_calls(fields, "_eval_mod", lambda *args: calls.append("eval"))
        for msg in box_points(pub.lattice.diag, random.Random(key)):
            ct = encrypt_block(pub, msg).vector.coeffs
            assert decrypt_block(priv, ct).coeffs == msg
        assert not ring_products and not calls

    @pytest.mark.parametrize(
        "field,p,q,refused",
        [
            (quadratic_field(2), 2, 3, True),  # 2 | 4d: ramified
            (quadratic_field(3), 3, 5, True),  # 3 | 4d: ramified
            (quadratic_field(2), 3, 3, True),
            (generic_field((1, 1, 0)), 2, 3, False),
            (quadratic_field(2), 15, 11, True),  # composite alpha
        ],
        ids=["p=2-d=2", "p=3-d=3", "p=q", "generic", "composite"],
    )
    def test_hand_built_scalar_keys_take_lattice_path(self, field, p, q, refused):
        """The scalar keys the old lattice path took: refused, but for the generic one."""
        priv = hand_built_private_key(field, p, q, d=7)
        if refused:
            with pytest.raises(ValueError):
                decrypt_block(priv, (0,) * field.ring.degree)
            return
        rng = random.Random(p * q)
        for _ in range(20):
            ct = tuple(rng.randrange(r) for r in priv.lattice.diag)
            assert decrypt_block(priv, ct).coeffs == lattice_power(
                field.ring, priv.lattice, ct, priv.d
            )

    @pytest.mark.parametrize(
        "build",
        [lambda: element_keypair(cyclotomic_field(64), 1, 0),
         lambda: scalar_prime_keypair(cyclotomic_field(64), 3, 5)],
        ids=["prime-norm", "scalar"],
    )
    def test_degree_32_keys_match_lattice_power(self, build):
        pub, priv = build()
        ctx = pub.field.ring
        rng = random.Random(32)
        for _ in range(4):
            msg = tuple(rng.randrange(r) for r in pub.lattice.diag)
            ct = encrypt_block(pub, msg).vector.coeffs
            assert decrypt_block(priv, ct).coeffs == msg
            assert lattice_power(ctx, priv.lattice, ct, priv.d) == msg

    def test_crt_exponent_divisible_by_p_group_order(self):
        # d = 40 = 0 mod 3^2 - 1: the reduced exponent must be 8, not 0,
        # or the zero divisors mod 3 would map to 1
        priv = hand_built_private_key(FIELD, 3, 5, d=40)
        assert priv._digits[0] == (2, 2)
        for ct in box_points(priv.lattice.diag, random.Random(0)):
            assert decrypt_block(priv, ct).coeffs == lattice_power(
                FIELD.ring, priv.lattice, ct, 40
            )


class TestFrobeniusPower:
    """The CRT halves raise a block to d_p as a product of Frobenius images."""

    @pytest.mark.parametrize(
        "field,p,q",
        [(quadratic_field(2), 3, 5), (cyclotomic_field(5), 2, 3), (cyclotomic_field(16), 3, 5)],
        ids=["n=2", "n=4", "n=8"],
    )
    def test_matrix_columns_are_pth_powers_of_basis(self, field, p, q):
        priv = hand_built_private_key(field, p, q, d=7)
        ctx = field.ring
        n = ctx.degree
        for half, prime in zip((priv.alpha, priv.beta), (p, q)):
            columns = list(zip(*half.frobenius))
            for j in range(n):
                x_j = ctx.element(tuple(int(i == j) for i in range(n)))
                assert columns[j] == conv_pow(ctx, x_j, prime, prime).coeffs

    @pytest.mark.parametrize(
        "d,digits",
        [
            (2, (2,)),  # d_p < p: a single digit
            (19, (1, 0, 2)),  # a zero digit inside
            (54, (0, 0, 0, 2)),  # a lone top digit
            (80, (2, 2, 2, 2)),  # d_p = p^n - 1
            (81 + 80 * 7, (1,)),  # reduced mod p^n - 1 first
        ],
    )
    def test_digit_patterns_match_lattice_power(self, d, digits):
        # cyclotomic m=8 has degree 4, so d_p < 3^4 has 4 digits in base 3
        field = cyclotomic_field(8)
        priv = hand_built_private_key(field, 3, 5, d)
        assert priv._digits[0] == digits
        for ct in box_points(priv.lattice.diag, random.Random(d), limit=300):
            assert decrypt_block(priv, ct).coeffs == lattice_power(
                field.ring, priv.lattice, ct, d
            )

    def test_degree_32_key_is_bounded(self, ring_products):
        # 32 digits in base 3 and in base 5, each below 24 bits, so w = 1:
        # per half, one squaring per bit of p - 1 after the first, plus at
        # most one product per set bit of a digit (1 for p = 3, 2 for
        # q = 5): (1 + 32 * 1) + (2 + 32 * 2) = 99.
        field = cyclotomic_field(64)
        pub, priv = scalar_prime_keypair(field, 3, 5)
        assert len(priv._digits[0]) == 32  # the per-key set-up runs before counting
        rng = random.Random(64)
        start = time.monotonic()
        for _ in range(3):
            msg = tuple(rng.randrange(r) for r in pub.lattice.diag)
            ct = encrypt_block(pub, msg).vector.coeffs
            ring_products.clear()
            assert decrypt_block(priv, ct).coeffs == msg
            assert ring_products["sqr"] and ring_products["mul"]
            assert sum(ring_products.values()) <= 99
            assert decrypt_block(priv, msg).coeffs == lattice_power(
                field.ring, priv.lattice, msg, priv.d
            )
        assert time.monotonic() - start < 30

    def test_rsa_size_block_products(self, ring_products):
        # a 512-bit quadratic:d=2 key: each half raises two images to
        # base-p digits of about 512 bits, so w = 5: 511 squarings, two
        # 16-entry tables and about 2 * 512 / 6 window products per half
        pub, priv = keygen(FIELD, InertPrimeMode(bits=512), rng=random.Random(512))
        assert all(len(digits) == 2 for digits in priv._digits)  # set up before counting
        rng = random.Random(2)
        msg = tuple(rng.randrange(r) for r in pub.lattice.diag)
        ct = encrypt_block(pub, msg).vector.coeffs
        ring_products.clear()
        assert decrypt_block(priv, ct).coeffs == msg
        assert ring_products["sqr"] and ring_products["mul"]
        assert sum(ring_products.values()) < 1500

    def test_rsa_size_block_reductions(self, record_calls):
        # the key lattice is pq I: encryption powers in (Z/pq)[x]/(phi),
        # each half in (Z/p)[x]/(phi), and the recombined point is taken
        # % pq, so no block is reduced by a lattice basis
        pub, priv = keygen(FIELD, InertPrimeMode(bits=512), rng=random.Random(512))
        rng = random.Random(2)
        msg = tuple(rng.randrange(r) for r in pub.lattice.diag)
        priv._eps  # the per-key set-up runs before counting
        assert all(len(digits) == 2 for digits in priv._digits)
        calls = []
        record_calls(lattice, "reduce_mod_lattice", lambda basis, vec: calls.append(basis))
        ct = encrypt_block(pub, msg).vector.coeffs
        assert decrypt_block(priv, ct).coeffs == msg
        assert calls == []


class NoDraws:
    """An rng that refuses every draw, so a search that starts raises DrawTaken."""

    def __getattr__(self, name):
        raise DrawTaken(name)


class DrawTaken(Exception):
    pass


BUDGET_REFUSAL = "^alpha and beta too large .*above 16332 bits"
DIGIT_REFUSAL = "^key too large for a key file: integers are limited to 4300 decimal digits$"


class TestKeygenSizeBound:
    """keygen refuses a mode whose largest key may not fit a key file before any draw.

    Two primes of the largest norm bound, the scalar 2^bits - 1 or the
    all-bound vector, must fit the key budget of 16332 bits: 2 n bits
    for inert keys.  An inert key's d, below 2^(2 n bits), must also fit
    the default int-to-str limit of 4300 digits, about 14284 bits; the
    budget is checked first.
    """

    @pytest.mark.parametrize(
        "field,mode",
        [(quadratic_field(2), InertPrimeMode(3571)),  # 2^(2 * 2 * 3571) < 10^4300
         (cyclotomic_field(256), PrimeNormElementMode((1 << 59) - 1))],  # 16254 bits
        ids=["inert", "element"],
    )
    def test_largest_accepted_size_starts_the_search(self, field, mode):
        with pytest.raises(DrawTaken):
            keygen(field, mode, rng=NoDraws())

    @pytest.mark.parametrize(
        "field,mode,message",
        [(quadratic_field(2), InertPrimeMode(4084), BUDGET_REFUSAL),  # 16336 bits
         (cyclotomic_field(256), PrimeNormElementMode(1 << 59), BUDGET_REFUSAL),  # 16382 bits
         (cyclotomic_field(256), InertPrimeMode(64), BUDGET_REFUSAL),  # 2 * 128 * 64 = 16384 bits
         (quadratic_field(2), InertPrimeMode(3572), DIGIT_REFUSAL)],  # 2^(2 * 2 * 3572) > 10^4300
        ids=["inert", "element", "inert-degree-128", "inert-digit-limit"],
    )
    def test_smallest_refused_size_draws_nothing(self, field, mode, message):
        with pytest.raises(ValueError, match=message):
            keygen(field, mode, rng=NoDraws())


@pytest.fixture
def hnf_calls(record_calls):
    """Counts lattice.hnf calls made through any ringrsa module."""
    calls = []
    record_calls(lattice, "hnf", lambda matrix: calls.append(len(matrix)))
    return calls


class TestHnfPerKey:
    """The public lattice comes from norms and roots: no HNF, each norm once."""

    def test_inert_keygen(self, hnf_calls):
        keygen(FIELD, InertPrimeMode(bits=16), rng=random.Random(3))
        assert len(hnf_calls) == 0

    def test_element_keygen_with_distinct_norms(self, hnf_calls):
        pub, priv = keygen(cyclotomic_field(5), PrimeNormElementMode(3), rng=random.Random(1))
        ctx = pub.field.ring
        assert abs(norm(ctx, priv.alpha.element)) != abs(norm(ctx, priv.beta.element))
        assert pub.lattice.diag[1] == 1
        assert len(hnf_calls) == 0

    # a scalar's norm_abs is ring.norm; an element's root takes the PRS,
    # which gives its norm too
    @pytest.mark.parametrize(
        "mode,taken",
        [(InertPrimeMode(bits=16), "norm"), (PrimeNormElementMode(30), "norm_and_linear")],
        ids=["inert", "element"],
    )
    def test_parse_private_then_decrypt(self, hnf_calls, norm_calls, mode, taken):
        pub, priv = keygen(FIELD, mode, rng=random.Random(5))
        text = render_private(priv, pub.e)
        ct = encrypt_block(pub, (1, 0)).vector.coeffs
        hnf_calls.clear()
        norm_calls.clear()
        parsed, _ = parse_private(text)
        assert decrypt_block(parsed, ct).coeffs == (1, 0)
        assert decrypt_block(parsed, ct).coeffs == (1, 0)
        assert len(hnf_calls) == 0
        assert sorted(norm_calls) == sorted((taken, c) for c in (priv.alpha.element.coeffs, priv.beta.element.coeffs))

    def test_keypair_from_read_norms_takes_no_norm(self, norm_calls):
        field = cyclotomic_field(16)
        rng = random.Random(7)
        alpha = find_prime_norm_element(field, 2, rng)
        beta = find_prime_norm_element(field, 2, rng)
        assert alpha.norm_abs != beta.norm_abs
        norm_calls.clear()
        pub, priv = keypair_from_primes(field, alpha, beta)
        # no norm again: only the PRS of each root, which the search did not take
        assert norm_calls == [("norm_and_linear", alpha.element.coeffs),
                              ("norm_and_linear", beta.element.coeffs)]
        assert pub.lattice.diag[0] == alpha.norm_abs * beta.norm_abs

    def test_keygen_then_validate_and_decrypt_take_no_norm(self, norm_calls):
        # the private key keeps the PrimeElements the search read
        field = cyclotomic_field(64)
        pub, priv = keygen(field, PrimeNormElementMode(4), rng=random.Random(0x301))
        norm_calls.clear()
        assert validate_keypair(pub, priv)
        msg = (1,) + (0,) * (field.ring.degree - 1)
        assert decrypt_block(priv, encrypt_block(pub, msg).vector.coeffs).coeffs == msg
        assert norm_calls == []


@pytest.fixture
def lattice_calls(record_calls):
    """The (alpha, beta) of every fields.product_lattice call through any ringrsa module."""
    calls = []
    record_calls(fields, "product_lattice", lambda alpha, beta: calls.append((alpha, beta)))
    return calls


class TestAdmissionBeforeLattice:
    """The admission rule is the one refusal of a key: no lattice is built before it."""

    def test_parse_private_builds_no_lattice(self, lattice_calls):
        pub, priv = keygen(FIELD, PrimeNormElementMode(30), rng=random.Random(5))
        text = render_private(priv, pub.e)
        lattice_calls.clear()
        parsed, _ = parse_private(text)
        assert lattice_calls == []
        assert parsed.lattice == pub.lattice
        assert len(lattice_calls) == 1

    def test_decrypt_refuses_before_the_lattice(self, lattice_calls):
        # 1 + 8i and 4 + 7i: one composite norm 65, roots 8 and 18 equal mod 5
        field = quadratic_field(-1)
        ctx = field.ring
        alpha, beta = PrimeElement(ctx.element((1, 8))), PrimeElement(ctx.element((4, 7)))
        priv = PrivateKey(field, alpha, beta, 2731)
        with pytest.raises(ValueError, match="is not prime"):
            decrypt_block(priv, (0, 0))
        # without the rule keypair_from_primes gave this pair the lattice 65 I,
        # which is not that of (alpha * beta)
        with pytest.raises(ValueError, match="is not prime"):
            keypair_from_primes(field, alpha, beta)
        assert lattice_calls == []


@pytest.mark.parametrize("seed", [0, 1])
def test_degree_128_key_lattice_is_bounded(seed):
    # the HNF of this lattice took 40 s; the root takes the norm's resultant
    # and two evaluations mod N(alpha), and either gives the lattice's rule
    # or refuses the key.  priv.lattice admits the key first, and the rule
    # refuses it: a random norm is composite
    field = cyclotomic_field(256)
    ctx = field.ring
    rng = random.Random(seed)
    alpha = ctx.element(tuple(rng.randrange(-(2**15), 2**15) for _ in range(ctx.degree)))
    beta = ctx.element((-1, 1) + (0,) * (ctx.degree - 2))  # x - 1, of norm 2 and root 1
    priv = PrivateKey(field, PrimeElement(alpha), PrimeElement(beta), 1)
    start = time.monotonic()
    prime = priv.alpha
    try:
        root = prime.root
    except ValueError as exc:
        assert "not Z/N" in str(exc)
    else:
        assert fields._eval_mod(alpha.coeffs, root, prime.norm_abs) == 0
    assert priv.beta.root == 1
    with pytest.raises(ValueError, match="not Z/N|is not prime"):
        priv.lattice
    assert time.monotonic() - start < 5.0


@pytest.fixture
def primality_calls(record_calls):
    """Counts is_probable_prime calls per integer, through any ringrsa module."""
    calls = collections.Counter()
    record_calls(primes, "is_probable_prime", lambda n: calls.update((n,)))
    return calls


@pytest.mark.parametrize(
    "field", [quadratic_field(2), cyclotomic_field(5)], ids=["d=2", "m=5"]
)
def test_inert_keygen_tests_each_integer_for_primality_once(primality_calls, field):
    pub, priv = keygen(field, InertPrimeMode(bits=64), rng=random.Random(11))
    assert primality_calls[priv.alpha.element.coeffs[0]] == 1
    assert primality_calls[priv.beta.element.coeffs[0]] == 1
    assert max(primality_calls.values()) == 1


KEYGEN_CASES = [
    (quadratic_field(2), InertPrimeMode(bits=128), 0x100),
    (cyclotomic_field(16), PrimeNormElementMode(2), 0x200),
]


@pytest.mark.parametrize("field, mode, seed", KEYGEN_CASES, ids=["inert", "element"])
def test_keygen_primes_are_not_tested_again(primality_calls, field, mode, seed):
    # keygen's private key keeps the searches' PrimeElements and their verdicts
    pub, priv = keygen(field, mode, rng=random.Random(seed))
    primality_calls.clear()
    assert validate_keypair(pub, priv)
    msg = (1,) + (0,) * (field.ring.degree - 1)
    assert decrypt_block(priv, encrypt_block(pub, msg).vector.coeffs).coeffs == msg
    assert primality_calls == {}


@pytest.fixture
def frobenius_calls(record_calls):
    """The p of every fields._frobenius call."""
    calls = []
    record_calls(fields, "_frobenius", lambda ctx, p: calls.append(p))
    return calls


def test_each_key_is_admitted_once(primality_calls, frobenius_calls, record_calls):
    # keygen admits the key and the private key keeps its primes; a parse
    # admits it again, and its digits of d are computed once, not per block
    pub, priv = keygen(FIELD, InertPrimeMode(bits=512), rng=random.Random(0x100))
    p, q = priv.alpha.element.coeffs[0], priv.beta.element.coeffs[0]
    assert sorted(frobenius_calls) == sorted((p, q))
    assert primality_calls[p] == primality_calls[q] == max(primality_calls.values()) == 1
    primality_calls.clear()
    frobenius_calls.clear()
    assert validate_keypair(pub, priv)
    assert decrypt_block(priv, encrypt_block(pub, (1, 0)).vector.coeffs).coeffs == (1, 0)
    assert primality_calls == {} and frobenius_calls == []
    parsed, _ = parse_private(render_private(priv, pub.e))
    assert primality_calls == {p: 1, q: 1} and sorted(frobenius_calls) == sorted((p, q))
    digits_calls = []
    record_calls(scheme, "_base_p_digits", lambda d, prime, n: digits_calls.append(prime))
    rng = random.Random(20)
    for _ in range(20):
        msg = tuple(rng.randrange(r) for r in pub.lattice.diag)
        assert decrypt_block(parsed, encrypt_block(pub, msg).vector.coeffs).coeffs == msg
    assert sorted(digits_calls) == sorted((p, q))


@pytest.mark.parametrize("field, mode, seed", KEYGEN_CASES, ids=["inert", "element"])
def test_parsed_key_tests_each_prime_once(primality_calls, field, mode, seed):
    pub, priv = keygen(field, mode, rng=random.Random(seed))
    text = render_private(priv, pub.e)
    primality_calls.clear()
    parsed, _ = parse_private(text)
    msg = (1,) + (0,) * (field.ring.degree - 1)
    for _ in range(2):
        assert decrypt_block(parsed, encrypt_block(pub, msg).vector.coeffs).coeffs == msg
    assert primality_calls == {priv.alpha.p: 1, priv.beta.p: 1}


@pytest.mark.parametrize("field, mode, seed", KEYGEN_CASES, ids=["inert", "element"])
def test_keygen_is_its_searches_then_keypair_from_primes(field, mode, seed):
    # each seed draws one pair, so keygen is the two searches and the assembly
    pair = keygen(field, mode, rng=random.Random(seed))
    rng = random.Random(seed)
    if isinstance(mode, InertPrimeMode):
        alpha = fields.find_inert_prime(field, mode.bits, rng)
        beta = fields.find_inert_prime(field, mode.bits, rng, exclude=alpha.element.coeffs[0])
    else:
        alpha = find_prime_norm_element(field, mode.coeff_bound, rng)
        beta = find_prime_norm_element(field, mode.coeff_bound, rng)
    assert keypair_from_primes(field, alpha, beta) == pair
    pub, priv = pair
    assert parse_private(render_private(priv, pub.e)) == (priv, pub.e)


ROOT_EXPORTS = {
    "quadratic_field", "cyclotomic_field", "generic_field", "parse_field_spec", "PrimeElement",
    "InertPrimeMode", "PrimeNormElementMode", "PublicKey", "PrivateKey",
    "keygen", "keypair_from_primes", "validate_keypair",
    "encrypt_block", "decrypt_block", "encode_bytes", "decode_blocks",
    "CapacityError", "CiphertextFormatError", "FingerprintMismatchError",
    "KeyFileError", "SearchExhaustedError",
}
# names the package root no longer exports, by the module that still holds them
MODULE_ONLY = {
    "fields": ["FieldDescriptor", "HnfBasis", "find_inert_prime", "find_prime_norm_element"],
    "lattice": ["HnfBasis", "coset_box", "determinant", "hnf", "reduce_mod_lattice"],
    "ring": ["IdealMatrix", "RingContext", "RingElement", "conv_mul", "conv_pow",
             "ideal_matrix", "make_ring", "norm"],
    "scheme": ["CiphertextBlock"],
}


class TestPackageRoot:
    def test_exports_the_scheme_api(self):
        assert len(ringrsa.__all__) == 21
        assert set(ringrsa.__all__) == ROOT_EXPORTS
        assert all(hasattr(ringrsa, name) for name in ROOT_EXPORTS)

    def test_lower_level_names_import_from_their_modules(self):
        assert sum(map(len, MODULE_ONLY.values())) == 18
        for module, names in MODULE_ONLY.items():
            mod = importlib.import_module(f"ringrsa.{module}")
            for name in names:
                assert hasattr(mod, name), f"ringrsa.{module}.{name}"
                assert not hasattr(ringrsa, name), name
