"""Text key and ciphertext files: determinism, roundtrips, rejection."""

import math
import random
import sys
import time

import pytest

from ringrsa import (
    InertPrimeMode,
    PrimeElement,
    PrimeNormElementMode,
    PrivateKey,
    PublicKey,
    cyclotomic_field,
    keygen,
    keypair_from_primes,
    parse_field_spec,
    quadratic_field,
)
from ringrsa.errors import CiphertextFormatError, KeyFileError
from ringrsa.fields import (
    _KEY_BUDGET_BITS,
    _NORM_BOUND_SLACK_BITS,
    _check_norm_budget,
    find_inert_prime,
    find_prime_norm_element,
)
from ringrsa.keyfiles import (
    CIPHERTEXT_MAGIC,
    fingerprint,
    parse_ciphertext,
    parse_private,
    parse_public,
    render_ciphertext,
    render_private,
    render_public,
)
from ringrsa.lattice import HnfBasis
from ringrsa.ring import norm_bound_bits

FIELD = quadratic_field(2)


def with_field(text, name, value):
    """The key file text with the value of the field `name` replaced."""
    return "".join(
        f"{name} = {value}\n" if line.startswith(f"{name} =") else line + "\n"
        for line in text.splitlines()
    )


@pytest.fixture(scope="module")
def keypair():
    return keygen(FIELD, InertPrimeMode(bits=12), rng=random.Random(100))


class TestPublicFiles:
    def test_roundtrip(self, keypair):
        pub, _ = keypair
        assert parse_public(render_public(pub)) == pub

    def test_rendering_is_deterministic(self, keypair):
        pub, _ = keypair
        assert render_public(pub) == render_public(pub)

    def test_field_order_is_fixed(self, keypair):
        pub, _ = keypair
        names = [line.split(" =")[0] for line in render_public(pub).splitlines()]
        assert names == ["format_version", "role", "field", "lattice", "e"]

    def test_comments_and_blank_lines_ignored(self, keypair):
        pub, _ = keypair
        text = "# made by hand\n\n" + render_public(pub) + "\n# trailing\n"
        assert parse_public(text) == pub

    def test_unknown_field_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub) + "extra = 1\n"
        with pytest.raises(KeyFileError, match="unknown field"):
            parse_public(text)

    @pytest.mark.parametrize("line", ["= 1", "block = 1,2"])
    def test_nameless_and_block_lines_rejected(self, keypair, line):
        # only a ciphertext repeats `block`; a key file knows no such field
        pub, _ = keypair
        with pytest.raises(KeyFileError, match="unknown field"):
            parse_public(render_public(pub) + line + "\n")

    def test_duplicate_field_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub) + "e = 3\n"
        with pytest.raises(KeyFileError, match="duplicate field"):
            parse_public(text)

    def test_missing_field_rejected(self, keypair):
        pub, _ = keypair
        lines = render_public(pub).splitlines()
        text = "\n".join(line for line in lines if not line.startswith("e ="))
        with pytest.raises(KeyFileError, match="missing field"):
            parse_public(text)

    def test_wrong_role_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub).replace("role = public", "role = private")
        with pytest.raises(KeyFileError, match="wrong role"):
            parse_public(text)

    def test_unsupported_version_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub).replace(
            "format_version = 1", "format_version = 2"
        )
        with pytest.raises(KeyFileError, match="unsupported format version"):
            parse_public(text)

    def test_bad_lattice_text_rejected(self, keypair):
        pub, _ = keypair
        original = render_public(pub)
        for bad in ("1,x;0,1", "15,0"):
            text = "\n".join(
                f"lattice = {bad}" if line.startswith("lattice") else line
                for line in original.splitlines()
            )
            with pytest.raises(KeyFileError):
                parse_public(text)

    def test_non_hnf_lattice_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub)
        head = text.split("lattice = ")[0]
        tail = text.split("\n")[-2]
        with pytest.raises(KeyFileError):
            parse_public(head + "lattice = 2,3;0,3\n" + tail + "\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(KeyFileError, match="not 'name = value'"):
            parse_public("just some text\n")


def public_text(spec, rows, e=5):
    return render_public(PublicKey(parse_field_spec(spec), HnfBasis(rows), e))


class TestPublicKeyRule:
    """parse_public admits exactly the ideals m I and (N, x - r), the lattices of keys."""

    @pytest.mark.parametrize(
        "alpha,beta,rows",
        [
            ((1, 1), (1, 2), ((10, 3), (0, 1))),  # norms 2 and 5: x = 7
            ((3, 0), (11, 0), ((33, 0), (0, 33))),  # scalars
            ((1, 2), (2, 3), ((65, 18), (0, 1))),  # norms 5 and 13: x = 47
            ((3, 0), (7, 0), ((21, 0), (0, 21))),  # scalars
        ],
    )
    def test_hand_built_lattices_admitted(self, alpha, beta, rows):
        field = quadratic_field(-1)
        primes = (PrimeElement(field.ring.element(v)) for v in (alpha, beta))
        pub, _ = keypair_from_primes(field, *primes)
        assert pub.lattice.entries == rows
        assert parse_public(render_public(pub)) == pub

    # beside the pinned keys of test_golden_bytes.py: a scalar lattice above
    # degree 2, and an element key of a generic field
    @pytest.mark.parametrize(
        "spec,mode,seed",
        [
            ("cyclotomic:m=16", InertPrimeMode(bits=32), 2),
            ("generic:phi=3,1,0,0,-1", PrimeNormElementMode(coeff_bound=6), 6),
        ],
    )
    def test_keygen_lattices_admitted(self, spec, mode, seed):
        pub, priv = keygen(parse_field_spec(spec), mode, rng=random.Random(seed))
        parsed = parse_public(render_public(pub))
        assert parsed == pub and parsed.lattice == priv.lattice

    @pytest.mark.parametrize(
        "spec,rows,message",
        [
            # x = 3 modulo the lattice, and phi(3) = 10 is not 0 mod 15
            ("quadratic:d=-1", ((15, 12), (0, 1)), "not an ideal"),
            # (5, x - 2) in Z[x]/(x^4 + 1): phi(2) = 17, not 0, mod 5
            ("cyclotomic:m=8", ((5, 3, 1, 2), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
             "not an ideal"),
            # (10^40, x): phi(0) = 1
            ("quadratic:d=-1", ((10**40, 0), (0, 1)), "not an ideal"),
            # diagonal not (m, ..., m, 1, ..., 1)
            ("cyclotomic:m=8", ((6, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)),
             "not the basis"),
            # an entry inside the m block
            ("cyclotomic:m=8", ((5, 1, 0, 0), (0, 5, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
             "not the basis"),
            ("quadratic:d=-1", ((15, 9), (0, 5)), "not the basis"),  # diagonal neither m I nor (N, 1)
            ("quadratic:d=-1", ((15, 10), (0, 3)), "not the basis"),
            # shapes no key has: 3 (5, x - 2), of the scalar 3 beside 1 + 2i,
            # and (11, (x - r_a)(x - r_b)), of two elements of norm 11, are
            # ideals; (4, x^3 - 1) in Z[x]/(x^4 + 1) and 2 (5 10^39, x) are not
            ("quadratic:d=-1", ((15, 9), (0, 3)), "not the basis"),
            ("cyclotomic:m=5", ((11, 0, 1, 3), (0, 11, 8, 3), (0, 0, 1, 0), (0, 0, 0, 1)),
             "not the basis"),
            ("cyclotomic:m=8", ((4, 0, 0, 3), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 1)),
             "not the basis"),
            ("quadratic:d=-1", ((10**40, 0), (0, 2)), "not the basis"),
            # a corner below 1, no modulus for the rule
            ("quadratic:d=-1", ((0, 0), (0, 1)), "not the basis"),
            ("quadratic:d=-1", ((-5, 3), (0, 1)), "not the basis"),
        ],
    )
    def test_refused(self, spec, rows, message):
        with pytest.raises(KeyFileError, match=message):
            parse_public(public_text(spec, rows))

    def test_corner_bounded_by_the_private_key_budget(self):
        # c I is an ideal for every c; at degree 128 it has 128 bitlen(c) bits
        budget = _KEY_BUDGET_BITS
        for bits in (budget // 128, budget // 128 + 1):
            c = (1 << bits) - 1
            text = public_text("cyclotomic:m=256", tuple(
                tuple(c * (i == j) for j in range(128)) for i in range(128)
            ))
            if 128 * bits <= budget:
                assert parse_public(text).lattice.diag == (c,) * 128
            else:
                with pytest.raises(KeyFileError, match=f"above {budget} bits"):
                    parse_public(text)


class TestPrivateFiles:
    def test_roundtrip_recomputes_derived_parts(self, keypair):
        pub, priv = keypair
        text = render_private(priv, pub.e)
        back, e = parse_private(text)
        assert back == priv
        assert e == pub.e
        assert back.lattice == pub.lattice
        assert back.phi == priv.phi

    def test_tampered_d_rejected(self, keypair):
        pub, priv = keypair
        text = render_private(priv, pub.e).replace(
            f"d = {priv.d}", f"d = {priv.phi + 5}"
        )
        with pytest.raises(KeyFileError, match="private exponent"):
            parse_private(text)

    def test_associate_pair_rejected(self, keypair):
        pub, priv = keypair
        alpha = ",".join(map(str, priv.alpha.coeffs))
        text = with_field(render_private(priv, pub.e), "beta", alpha)
        with pytest.raises(KeyFileError, match="not coprime"):
            parse_private(text)

    @pytest.mark.parametrize("alpha", ["1,1", "0,0"])  # N(1 + sqrt(2)) = -1
    def test_unit_or_zero_rejected(self, keypair, alpha):
        pub, priv = keypair
        text = with_field(render_private(priv, pub.e), "alpha", alpha)
        with pytest.raises(KeyFileError, match="is not prime"):
            parse_private(text)

    def test_tampered_e_rejected(self, keypair):
        pub, priv = keypair
        text = with_field(render_private(priv, pub.e), "e", pub.e + 2)
        with pytest.raises(KeyFileError, match="e does not invert d"):
            parse_private(text)

    def test_non_integer_field_rejected(self, keypair):
        pub, priv = keypair
        text = render_private(priv, pub.e).replace(
            f"d = {priv.d}", "d = seventy"
        )
        with pytest.raises(KeyFileError, match="not an integer"):
            parse_private(text)

    def test_public_file_refused(self, keypair):
        pub, _ = keypair
        with pytest.raises(KeyFileError):
            parse_private(render_public(pub))


def private_text(field, alpha, beta):
    """A private key file for two prime elements, with e = 65537, and no lattice built."""
    phi = PrivateKey(field, alpha.element, beta.element, 1).phi
    priv = PrivateKey(field, alpha.element, beta.element, pow(65537, -1, phi))
    return priv, render_private(priv, 65537)


# field, alpha, beta, d, e: each passes the d and e checks, and the
# admission rule refuses it before any lattice is built
UNBUILDABLE_KEYS = {
    # N(3 + 3i) = 18, and Z[i]/(3 + 3i) = F_2 x F_9 is not Z/18
    "quotient-not-cyclic": ("quadratic:d=-1", "3,3", "7,0", 653, 5),
    # 1 + 8i and 4 + 7i have norm 65 and roots 8 and 18, equal mod 5
    "root-difference-not-a-unit": ("quadratic:d=-1", "1,8", "4,7", 2731, 3),
}


def unbuildable_key_text(key):
    field, alpha, beta, d, e = UNBUILDABLE_KEYS[key]
    return "".join([
        "format_version = 1\n", "role = private\n", f"field = {field}\n",
        f"alpha = {alpha}\n", f"beta = {beta}\n", f"d = {d}\n", f"e = {e}\n",
    ])


@pytest.mark.parametrize(
    "key,message", [("quotient-not-cyclic", "not Z/N"), ("root-difference-not-a-unit", "is not prime")]
)
def test_unbuildable_lattice_refused(key, message):
    with pytest.raises(KeyFileError, match=message):
        parse_private(unbuildable_key_text(key))


def assert_public_admitted(priv):
    """parse_public admits the lattice of priv, rendered with e = 65537."""
    pub = PublicKey(priv.field, priv.lattice, 65537)
    assert parse_public(render_public(pub)) == pub


class TestNormBudget:
    """parse_private bounds N(alpha) N(beta) before it computes a norm."""

    @pytest.mark.parametrize(
        "field,mode,seed",
        [
            ("quadratic:d=2", InertPrimeMode(bits=512), 0x101),
            ("cyclotomic:m=16", PrimeNormElementMode(coeff_bound=100), 0x201),
            ("cyclotomic:m=64", PrimeNormElementMode(coeff_bound=4), 0x301),
        ],
        ids=["inert-q512", "element-c16", "element-c64"],
    )
    def test_workload_keys_parse(self, field, mode, seed):
        pub, priv = keygen(parse_field_spec(field), mode, rng=random.Random(seed))
        assert parse_private(render_private(priv, pub.e)) == (priv, pub.e)

    def test_degree_128_element_key_parses(self):
        # seed 38 finds both prime-norm elements within 34 candidates
        field, rng = cyclotomic_field(256), random.Random(38)
        alpha = find_prime_norm_element(field, 4, rng)
        beta = find_prime_norm_element(field, 4, rng)
        priv, text = private_text(field, alpha, beta)
        assert parse_private(text) == (priv, 65537)
        assert_public_admitted(priv)

    def test_inert_key_near_the_digit_limit_parses(self):
        # N(alpha) N(beta) = (pq)^128 with 55-bit p and q: 4200 of the 4300 digits
        field, rng = cyclotomic_field(256), random.Random(55)
        alpha = find_inert_prime(field, 55, rng)
        beta = find_inert_prime(field, 55, rng, exclude=alpha.element.coeffs[0])
        priv, text = private_text(field, alpha, beta)
        assert len(str(alpha.norm_abs * beta.norm_abs)) >= 4200
        assert parse_private(text) == (priv, 65537)
        assert_public_admitted(priv)

    def test_large_coefficients_refused_before_any_norm(self):
        # one norm of these 512-bit coefficients takes about 45 s
        rng = random.Random(512)
        big = ",".join(str(rng.getrandbits(512)) for _ in range(128))
        text = "".join([
            "format_version = 1\n", "role = private\n", "field = cyclotomic:m=256\n",
            f"alpha = {big}\n", f"beta = {big[::-1]}\n", "d = 3\n", "e = 3\n",
        ])
        start = time.monotonic()
        with pytest.raises(KeyFileError, match="alpha and beta too large"):
            parse_private(text)
        assert time.monotonic() - start < 1.0

    def test_scalar_pair_past_the_budget_refused(self):
        # (pq)^128 with 64-bit p and q has 16384 bits, past 14284 + 2048
        p, q = (1 << 64) - 59, (1 << 64) - 83
        zeros = ",0" * 127
        text = "".join([
            "format_version = 1\n", "role = private\n", "field = cyclotomic:m=256\n",
            f"alpha = {p}{zeros}\n", f"beta = {q}{zeros}\n", "d = 3\n", "e = 3\n",
        ])
        with pytest.raises(KeyFileError, match="alpha and beta too large"):
            parse_private(text)

    def test_each_norm_bounded_by_half_the_digits_plus_slack(self):
        # 1 + 2i beside a + i, of norm bound bitlen(a^2 + 1) + 1: the sum stays in
        # the budget, and one norm may not pass (budget + slack) / 2 = 9190 bits
        ctx, budget = quadratic_field(-1).ring, _KEY_BUDGET_BITS
        each = (budget + _NORM_BOUND_SLACK_BITS) // 2
        small = ctx.element((1, 2))
        for bound in (each, each + 1):
            a = math.isqrt(1 << (bound - 2)) + 1
            big = ctx.element((a, 1))
            assert norm_bound_bits(ctx, big) == bound and bound + 4 <= budget
            if bound == each:
                _check_norm_budget(ctx, big, small)
            else:
                with pytest.raises(ValueError, match=f"one above {each}"):
                    _check_norm_budget(ctx, big, small)


def test_budget_is_fixed_whatever_the_digit_limit():
    # PYTHONINTMAXSTRDIGITS sets the same limit; raised, it leaves the budget,
    # 16332 bits at the default of 4300 digits, where it was
    assert _KEY_BUDGET_BITS == 16332 == 4300 * 3322 // 1000 + _NORM_BOUND_SLACK_BITS
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(100_000)
        ctx = cyclotomic_field(256).ring
        over = ctx.element(((1 << 64) - 59,) + (0,) * 127)  # 2 * 64 * 128 = 16384 bits
        with pytest.raises(ValueError, match="above 16332 bits"):
            _check_norm_budget(ctx, over, over)
        c = (1 << (_KEY_BUDGET_BITS // 128 + 1)) - 1
        text = public_text("cyclotomic:m=256", tuple(
            tuple(c * (i == j) for j in range(128)) for i in range(128)
        ))
        with pytest.raises(KeyFileError, match="above 16332 bits"):
            parse_public(text)
        with pytest.raises(ValueError, match="above 16332"):
            find_inert_prime(cyclotomic_field(256), 64, random.Random(0))
    finally:
        sys.set_int_max_str_digits(limit)


class TestFingerprint:
    def test_shape(self, keypair):
        pub, _ = keypair
        fp = fingerprint(pub)
        assert len(fp) == 16
        int(fp, 16)

    def test_stable_under_comments(self, keypair):
        pub, _ = keypair
        reparsed = parse_public("# note\n" + render_public(pub))
        assert fingerprint(reparsed) == fingerprint(pub)

    def test_distinct_keys_differ(self, keypair):
        pub, _ = keypair
        other, _ = keygen(
            FIELD, PrimeNormElementMode(coeff_bound=30), rng=random.Random(8)
        )
        assert fingerprint(other) != fingerprint(pub)


class TestCiphertextFiles:
    BLOCKS = [(1, 2), (3, 4), (0, 0)]

    def test_roundtrip(self):
        text = render_ciphertext("ab" * 8, self.BLOCKS)
        fp, blocks = parse_ciphertext(text)
        assert fp == "ab" * 8
        assert blocks == self.BLOCKS

    def test_empty_block_list(self):
        fp, blocks = parse_ciphertext(render_ciphertext("00" * 8, []))
        assert blocks == []

    def test_bad_magic(self):
        text = render_ciphertext("00" * 8, self.BLOCKS).replace(
            CIPHERTEXT_MAGIC, "something-else"
        )
        with pytest.raises(CiphertextFormatError, match="bad magic"):
            parse_ciphertext(text)

    def test_count_mismatch(self):
        text = render_ciphertext("00" * 8, self.BLOCKS) + "block = 5,6\n"
        with pytest.raises(CiphertextFormatError, match="count mismatch"):
            parse_ciphertext(text)

    def test_count_checked_before_the_rows_are_parsed(self):
        # a lying header is refused before any row becomes integers
        text = render_ciphertext("00" * 8, self.BLOCKS).replace("1,2", "1,x")
        with pytest.raises(CiphertextFormatError, match="count mismatch"):
            parse_ciphertext(text.replace("blocks = 3", "blocks = 2"))
        with pytest.raises(CiphertextFormatError, match="bad block on line 4"):
            parse_ciphertext(text)

    def test_ragged_blocks(self):
        text = render_ciphertext("00" * 8, [(1, 2), (3, 4, 5)])
        with pytest.raises(CiphertextFormatError, match="ragged"):
            parse_ciphertext(text)

    def test_bad_block_integer(self):
        text = render_ciphertext("00" * 8, self.BLOCKS).replace("1,2", "1,x")
        with pytest.raises(CiphertextFormatError, match="bad block"):
            parse_ciphertext(text)

    def test_missing_header_field(self):
        lines = render_ciphertext("00" * 8, self.BLOCKS).splitlines()
        text = "\n".join(l for l in lines if not l.startswith("blocks"))
        with pytest.raises(CiphertextFormatError, match="missing field"):
            parse_ciphertext(text)

    def test_duplicate_header_field(self):
        text = "magic = x\n" + render_ciphertext("00" * 8, self.BLOCKS)
        with pytest.raises(CiphertextFormatError, match="duplicate"):
            parse_ciphertext(text)

    def test_unknown_field(self):
        text = render_ciphertext("00" * 8, self.BLOCKS) + "nonce = 7\n"
        with pytest.raises(CiphertextFormatError, match="unknown field"):
            parse_ciphertext(text)

    def test_bad_count_value(self):
        text = render_ciphertext("00" * 8, self.BLOCKS).replace(
            "blocks = 3", "blocks = three"
        )
        with pytest.raises(CiphertextFormatError, match="bad block count"):
            parse_ciphertext(text)
