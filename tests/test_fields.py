"""Field descriptors, prime searches, key lattices, and the naive coset box."""

import collections
import math
import random

import pytest

from ringrsa import (
    PrimeElement,
    PrivateKey,
    PublicKey,
    SearchExhaustedError,
    cyclotomic_field,
    generic_field,
    keypair_from_primes,
    parse_field_spec,
    quadratic_field,
    validate_keypair,
)
from ringrsa import fields, primes, ring
from ringrsa.cli import main
from ringrsa.errors import AssociatePrimesError, KeyFileError
from ringrsa.fields import (
    _inert,
    find_inert_prime,
    find_prime_norm_element,
    product_lattice,
)
from ringrsa.keyfiles import parse_private, render_private
from ringrsa.lattice import hnf
from ringrsa.ring import conv_mul, ideal_matrix, norm
from ringrsa.primes import (
    carmichael_lambda,
    euler_phi,
    is_probable_prime,
    multiplicative_order,
)
from ringrsa.scheme import _admit
from oracles import euler_inert, ideal_hnf, inert_search_primality_first
from support import contains, coset_box_naive


class TestQuadraticField:
    def test_ring_modulus(self):
        field = quadratic_field(2)
        assert field.ring.phi_coeffs == (2, 0)
        assert field.ring.degree == 2
        assert field.kind == "quadratic"
        assert field.spec_string() == "quadratic:d=2"

    def test_negative_d(self):
        assert quadratic_field(-1).ring.phi_coeffs == (-1, 0)
        assert quadratic_field(-5).ring.phi_coeffs == (-5, 0)

    @pytest.mark.parametrize("d", [0, 1])
    def test_degenerate_d_rejected(self, d):
        with pytest.raises(ValueError, match="0 or 1"):
            quadratic_field(d)

    @pytest.mark.parametrize("d", [4, 12, -4, 50])
    def test_square_factor_rejected(self, d):
        with pytest.raises(ValueError, match="square-free"):
            quadratic_field(d)

    # 2 * 1000003**2 * 1000033: trial division to 10**6 leaves a cofactor
    # above 10**18 that is not itself a perfect square
    @pytest.mark.parametrize("d", [2 * 1000003**2, 2 * 1000003**2 * 1000033])
    def test_square_factor_above_trial_bound_rejected(self, d):
        with pytest.raises(ValueError, match="square-free"):
            quadratic_field(d)

    # the digit cap refuses 10**100 before trial division; one below it,
    # trial division finds the factor 3**2 of 10**100 - 1
    @pytest.mark.parametrize("d", [10**100, -(10**100), 7 * 10**4000])
    def test_d_past_the_digit_cap_undecidable(self, d):
        with pytest.raises(ValueError, match="cannot decide whether d is square-free"):
            quadratic_field(d)

    def test_d_below_the_digit_cap_is_tested(self):
        with pytest.raises(ValueError, match="not square-free"):
            quadratic_field(10**100 - 1)

    def test_two_large_primes_below_cofactor_limit_accepted(self):
        d = 2 * 1000003 * 1000033
        assert quadratic_field(d).param == d

    @pytest.mark.parametrize("d", [5, 13, -3, -7])
    def test_one_mod_four_rejected(self, d):
        with pytest.raises(ValueError, match="NC-property violated"):
            quadratic_field(d)


class TestCyclotomicField:
    @pytest.mark.parametrize(
        "m,phi_coeffs",
        [
            (3, (-1, -1)),
            (4, (-1, 0)),
            (5, (-1, -1, -1, -1)),
            (8, (-1, 0, 0, 0)),
            (12, (-1, 0, 1, 0)),
        ],
    )
    def test_known_minimal_polynomials(self, m, phi_coeffs):
        assert cyclotomic_field(m).ring.phi_coeffs == phi_coeffs

    def test_degree_is_totient(self):
        for m in range(3, 30):
            assert cyclotomic_field(m).ring.degree == euler_phi(m)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_small_m_rejected(self, m):
        with pytest.raises(ValueError, match="at least 3"):
            cyclotomic_field(m)


class TestParseFieldSpec:
    @pytest.mark.parametrize(
        "spec",
        ["quadratic:d=2", "quadratic:d=-1", "cyclotomic:m=8", "generic:phi=1,1,0"],
    )
    def test_spec_string_roundtrip(self, spec):
        field = parse_field_spec(spec)
        assert field.spec_string() == spec
        assert parse_field_spec(field.spec_string()).ring == field.ring

    @pytest.mark.parametrize(
        "spec",
        ["", "quadratic", "quadratic:d", "quadratic:d=x", "quadratic:m=5",
         "cubic:d=2", "cyclotomic:m=", "generic:phi=", "generic:phi=a,b"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_field_spec(spec)

    @pytest.mark.parametrize(
        "spec", ["quadratic:d=x", "quadratic:d=1,2", "cyclotomic:m=5.0", "generic:phi=1,,0"]
    )
    def test_bad_integers_named_as_bad_spec(self, spec):
        with pytest.raises(ValueError, match="bad field spec"):
            parse_field_spec(spec)

    def test_constructor_errors_surface(self):
        with pytest.raises(ValueError, match="NC-property"):
            parse_field_spec("quadratic:d=5")

    def test_generic_phi_digit_cap(self):
        # 100 digits pass (the root screen then takes about 0.15 s); 101 are refused
        at_cap = parse_field_spec("generic:phi=" + "9" * 100 + ",1,1")
        assert at_cap.ring.phi_coeffs[0] == 10**100 - 1
        for c in ("1" + "0" * 100, "-" + "9" * 101, "1" + "0" * 3998 + "7"):
            with pytest.raises(ValueError, match="above the limit of 100 digits"):
                parse_field_spec(f"generic:phi=1,{c},1")


class TestInertPrimes:
    def test_quadratic_known_cases(self):
        field = quadratic_field(2)
        assert _inert(field, 3)
        assert _inert(field, 5)
        assert not _inert(field, 7)   # 3*3 = 2 mod 7
        assert not _inert(field, 2)   # ramified

    def test_quadratic_negative_d(self):
        field = quadratic_field(-1)
        assert _inert(field, 3)
        assert not _inert(field, 5)   # 2*2 = -1 mod 5

    def test_cyclotomic_known_cases(self):
        field = cyclotomic_field(5)
        assert _inert(field, 2)
        assert _inert(field, 7)
        assert not _inert(field, 11)  # 11 = 1 mod 5
        assert not _inert(field, 19)  # order 2 only
        assert not _inert(field, 5)   # divides m

    def test_cyclotomic_non_cyclic_unit_group(self):
        # mod 8 no residue has order phi(8)=4; the attainable maximum is
        # lambda(8)=2 and any odd prime that reaches it qualifies
        field = cyclotomic_field(8)
        assert _inert(field, 3)
        assert _inert(field, 5)
        assert _inert(field, 7)
        assert not _inert(field, 17)  # 17 = 1 mod 8

    def test_generic_has_no_criterion(self):
        with pytest.raises(ValueError, match="no inert-prime criterion"):
            _inert(generic_field((1, 1, 0)), 3)

    @pytest.mark.parametrize("d", [2, 3, -1, -2, 6, -5, 7])
    def test_quadratic_is_eulers_criterion_on_odd_primes(self, d):
        field = quadratic_field(d)
        odd_primes = [p for p in range(3, 10**4, 2) if is_probable_prime(p)]
        assert [p for p in odd_primes if _inert(field, p) != euler_inert(d, p)] == []

    @pytest.mark.parametrize(
        "spec", ["quadratic:d=2", "quadratic:d=-5", "cyclotomic:m=5", "cyclotomic:m=16"]
    )
    def test_any_positive_integer_gives_a_bool(self, spec):
        # the search runs the residue test before the primality test
        field = parse_field_spec(spec)
        for n in (1, 2, 4, 9, 15, 561, 991 * 997, 2**64, 3**40, (2**61 - 1) * (2**89 - 1)):
            assert isinstance(_inert(field, n), bool), n


def frobenius_rule(field, p):
    """x^(p^n) = x mod (p, phi): the rule that admits a scalar prime p."""
    try:
        fields._scalar_element(field, p).frobenius
    except ValueError:
        return False
    return True


def discriminant_rule(field, p):
    """p is coprime to 4d (quadratic) or to m (cyclotomic): p does not ramify."""
    return math.gcd(p, 4 * field.param if field.kind == "quadratic" else field.param) == 1


class TestUnramified:
    """The Frobenius rule, which holds when phi is square-free mod p with
    every irreducible factor of a degree dividing n."""

    @pytest.mark.parametrize(
        "field, p, expected",
        [
            (quadratic_field(2), 2, False),
            (quadratic_field(2), 3, True),
            (quadratic_field(-1), 2, False),
            (cyclotomic_field(12), 2, False),
            (cyclotomic_field(12), 3, False),
            (cyclotomic_field(12), 5, True),
            # x^3 - x - 1 is irreducible mod 3, a linear times a quadratic mod 5
            (generic_field((1, 1, 0)), 3, True),
            (generic_field((1, 1, 0)), 5, False),
            # x^3 - 2 is square-free mod 5 and 11, but a linear times a
            # quadratic; 2 is no cube mod 7 or 13, so it is irreducible there
            (generic_field((2, 0, 0)), 5, False),
            (generic_field((2, 0, 0)), 11, False),
            (generic_field((2, 0, 0)), 7, True),
            (generic_field((2, 0, 0)), 13, True),
            (generic_field((2, 0, 0)), 3, False),  # x^3 - 2 = (x + 1)^3 mod 3
        ],
        ids=["d=2,p=2", "d=2,p=3", "d=-1,p=2", "m=12,p=2", "m=12,p=3", "m=12,p=5",
             "generic,p=3", "generic,p=5", "cube-root-2,p=5", "cube-root-2,p=11",
             "cube-root-2,p=7", "cube-root-2,p=13", "cube-root-2,p=3"],
    )
    def test_table(self, field, p, expected):
        assert frobenius_rule(field, p) is expected

    def test_refused_scalar_has_no_frobenius(self):
        # 2 ramifies in Z[sqrt(2)]: R/2R = F_2[x]/(x^2) is not a product of fields
        prime = PrimeElement(quadratic_field(2).ring.element((2, 0)))
        with pytest.raises(ValueError, match="not a product of fields"):
            prime.frobenius

    @pytest.mark.parametrize(
        "field",
        [quadratic_field(d) for d in (2, 3, -1, -2, 6, -5)]
        + [cyclotomic_field(m) for m in (5, 7, 8, 12, 16)],
        ids=lambda field: field.spec_string(),
    )
    def test_matches_the_discriminant_rule_on_presets(self, field):
        # on quadratic and cyclotomic fields every unramified p has all its
        # residue degrees equal to some f dividing n
        for p in (p for p in range(2, 200) if is_probable_prime(p)):
            assert frobenius_rule(field, p) is discriminant_rule(field, p), p


class TestFindInertPrime:
    def test_only_candidate_in_range(self):
        # primes in [4, 8) are 5 and 7; only 5 is inert for d=2
        field = quadratic_field(2)
        got = find_inert_prime(field, 3, random.Random(0))
        assert got.element.coeffs == (5, 0)
        assert got.norm_abs == 25

    def test_exclude_is_honored(self, monkeypatch):
        field = quadratic_field(2)
        got = find_inert_prime(field, 3, random.Random(0), exclude=3)
        assert got.element.coeffs == (5, 0)
        monkeypatch.setattr(fields, "_SEARCH_ATTEMPT_BOUND", 400)
        rng, oracle_rng = random.Random(0), random.Random(0)
        with pytest.raises(SearchExhaustedError, match="no inert prime"):
            find_inert_prime(field, 3, rng, exclude=5)
        # the exhausted search draws as the primality-first search did
        assert inert_search_primality_first(
            "quadratic", 2, 3, oracle_rng, exclude=5, attempts=400
        ) is None
        assert rng.getstate() == oracle_rng.getstate()

    def test_tiny_bits_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            find_inert_prime(quadratic_field(2), 1, random.Random(0))

    def test_size_past_the_budget_builds_no_integer_of_that_size(self, record_calls):
        # the bound of the scalar 2^bits - 1 is n * bits, checked on bit
        # counts: squaring a 10^7-bit candidate alone took seconds
        class NoDraw:
            def randrange(self, *args):
                raise AssertionError("the search drew a candidate")

        widths = []
        record_calls(ring, "norm_bound_bits", lambda ctx, f: widths.extend(map(int.bit_length, f.coeffs)))
        with pytest.raises(ValueError, match=r"^alpha and beta too large \(norm bounds above 16332"):
            find_inert_prime(quadratic_field(2), 10**7, NoDraw())
        assert max(widths, default=0) <= fields._KEY_BUDGET_BITS

    def test_result_has_requested_bit_length(self):
        field = cyclotomic_field(5)
        for seed in range(5):
            got = find_inert_prime(field, 9, random.Random(seed))
            p = got.element.coeffs[0]
            assert p.bit_length() == 9
            assert _inert(field, p)
            assert got.norm_abs == p**4


# (field spec, bits, seed): the first is the inert benchmark key 0x101
SEARCH_CASES = [("quadratic:d=2", 512, 0x101), ("cyclotomic:m=16", 128, 0x101)] + [
    (spec, 64, seed)
    for spec in ("quadratic:d=-1", "quadratic:d=3", "quadratic:d=-5", "quadratic:d=7",
                 "cyclotomic:m=5", "cyclotomic:m=9", "cyclotomic:m=12")
    for seed in range(3)
]


def search_pair(field, bits, rng):
    """The two primes of an inert keygen: the second excludes the first."""
    alpha = find_inert_prime(field, bits, rng).element.coeffs[0]
    return alpha, find_inert_prime(field, bits, rng, exclude=alpha).element.coeffs[0]


@pytest.mark.parametrize("spec, bits, seed", SEARCH_CASES[:2], ids=["d=2", "m=16"])
def test_only_inert_candidates_are_tested_for_primality(record_calls, spec, bits, seed):
    field = parse_field_spec(spec)
    tested = []
    record_calls(primes, "is_probable_prime", tested.append)
    search_pair(field, bits, random.Random(seed))
    assert tested
    assert [n for n in tested if not _inert(field, n)] == []


@pytest.mark.parametrize("spec, bits, seed", SEARCH_CASES)
def test_search_draws_and_accepts_as_with_primality_first(spec, bits, seed):
    field = parse_field_spec(spec)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    alpha, beta = search_pair(field, bits, rng)
    assert inert_search_primality_first(field.kind, field.param, bits, oracle_rng) == alpha
    assert inert_search_primality_first(
        field.kind, field.param, bits, oracle_rng, exclude=alpha
    ) == beta
    assert rng.getstate() == oracle_rng.getstate()


class TestFindPrimeNormElement:
    def test_norm_is_prime_and_element_not_scalar(self):
        field = quadratic_field(2)
        for seed in range(8):
            got = find_prime_norm_element(field, 50, random.Random(seed))
            assert is_probable_prime(got.norm_abs)
            assert any(got.element.coeffs[1:])
            assert abs(norm(field.ring, got.element)) == got.norm_abs

    def test_small_bound_norms(self):
        # with coefficients bounded by 3 only norms 2, 7, 17 are reachable
        field = quadratic_field(2)
        seen = {
            find_prime_norm_element(field, 3, random.Random(seed)).norm_abs
            for seed in range(40)
        }
        assert seen <= {2, 7, 17}
        assert len(seen) > 1

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            find_prime_norm_element(quadratic_field(2), 0, random.Random(0))

    def test_one_norm_per_candidate(self, norm_calls):
        field = cyclotomic_field(16)
        n = field.ring.degree
        alpha = find_prime_norm_element(field, 2, random.Random(5))
        beta = find_prime_norm_element(field, 2, random.Random(6))

        def drawn(seed, found):
            """The non-scalar vectors the search draws, up to the one it returns."""
            rng, out = random.Random(seed), []
            while found.element.coeffs not in out[-1:]:
                coeffs = tuple(rng.randrange(-2, 3) for _ in range(n))
                if any(coeffs[1:]):
                    out.append(coeffs)
            return out

        # one halving norm per candidate drawn, and the PRS only for the
        # roots of the two primes kept, which the key pair reads
        candidates = [("norm", c) for c in drawn(5, alpha) + drawn(6, beta)]
        assert len(candidates) > 2
        assert norm_calls == candidates
        assert is_probable_prime(alpha.norm_abs) and alpha.norm_abs != beta.norm_abs
        keypair_from_primes(field, alpha, beta)
        roots = [("norm_and_linear", prime.element.coeffs) for prime in (alpha, beta)]
        assert norm_calls == candidates + roots


class TestPrimeElement:
    def test_norm_derived_from_element(self):
        field = quadratic_field(2)
        assert PrimeElement(field.ring.element((3, 0))).norm_abs == 9
        # N(3 + sqrt(2)) = 7 and N(1 + 2 sqrt(2)) = -7
        assert PrimeElement(field.ring.element((3, 1))).norm_abs == 7
        read = PrimeElement(field.ring.element((1, 2)))
        assert read.norm_abs == 7
        assert read == PrimeElement(field.ring.element((1, 2)))
        assert hash(read) == hash(PrimeElement(field.ring.element((1, 2))))

    def test_units_rejected(self):
        field = quadratic_field(2)
        # 1 + sqrt(2) has norm -1
        unit = PrimeElement(field.ring.element((1, 1)))
        zero = PrimeElement(field.ring.element((0, 0)))
        prime = PrimeElement(field.ring.element((3, 0)))
        for alpha, beta in ((unit, prime), (prime, unit), (zero, prime), (prime, zero)):
            with pytest.raises(ValueError, match="is not prime") as refused:
                _admit(alpha, beta)
            assert not isinstance(refused.value, AssociatePrimesError)
            with pytest.raises(ValueError, match="is not prime"):
                keypair_from_primes(field, alpha, beta)


def totient(field, alpha, beta):
    """priv.phi of the private key of alpha and beta."""
    return PrivateKey(field, alpha, beta, 1).phi


class TestTotientOfProduct:
    """priv.phi is (|N(alpha)| - 1) (|N(beta)| - 1); the admission rule refuses associates."""

    def test_known_value(self):
        field = quadratic_field(2)
        alpha = PrimeElement(field.ring.element((3, 0)))
        beta = PrimeElement(field.ring.element((5, 0)))
        assert totient(field, alpha, beta) == 192
        _admit(alpha, beta)

    def test_associates_rejected(self):
        field = quadratic_field(2)
        alpha = PrimeElement(field.ring.element((0, 1)))
        # sqrt(2) * (1 + sqrt(2)) = 2 + sqrt(2), an associate
        beta = PrimeElement(field.ring.element((2, 1)))
        with pytest.raises(ValueError, match="not coprime"):
            _admit(alpha, beta)

    def test_equal_norm_non_associates_refused(self, tmp_path, capsys):
        # 2 + i and 2 - i both have norm 5 but generate different ideals; the
        # lattice of their product, 5 I, gives the totient (5 - 1)^2 away
        field = quadratic_field(-1)
        alpha = PrimeElement(field.ring.element((2, 1)))
        beta = PrimeElement(field.ring.element((2, -1)))
        assert totient(field, alpha, beta) == 16
        refused = refused_by_the_admission_rule(tmp_path, capsys, alpha, beta, "equal norms")
        assert isinstance(refused, AssociatePrimesError)
        # i * (2 + i) = -1 + 2i is an associate of alpha
        with pytest.raises(AssociatePrimesError):
            _admit(alpha, PrimeElement(field.ring.element((-1, 2))))

    def test_associates_raise_typed_error(self):
        field = quadratic_field(2)
        alpha = PrimeElement(field.ring.element((0, 1)))
        beta = PrimeElement(field.ring.element((2, 1)))
        with pytest.raises(AssociatePrimesError):
            _admit(alpha, beta)
        with pytest.raises(AssociatePrimesError):
            keypair_from_primes(field, alpha, beta)

    def test_scalar_associates_rejected(self):
        field = quadratic_field(2)
        alpha = PrimeElement(field.ring.element((3, 0)))
        with pytest.raises(AssociatePrimesError):
            _admit(alpha, PrimeElement(field.ring.element((-3, 0))))


def hnf_oracle(alpha, beta):
    """The Hermite normal form of the ideal matrix of alpha * beta."""
    ctx = alpha.element.context
    return hnf(ideal_matrix(ctx, conv_mul(ctx, alpha.element, beta.element)).entries)


def scalar(field, k):
    return PrimeElement(field.ring.element((k,) + (0,) * (field.ring.degree - 1)))


# field spec: (coefficient bound, prime-norm elements to draw)
ORACLE_FIELDS = {
    "cyclotomic:m=5": (3, 10),
    "cyclotomic:m=12": (3, 10),
    "cyclotomic:m=16": (2, 10),
    "quadratic:d=2": (3, 10),
    "quadratic:d=-5": (3, 10),
    "generic:phi=3,1,0,0,-1": (3, 10),
    "cyclotomic:m=64": (2, 3),
}


class TestRoot:
    def test_root_of_x_modulo_the_element(self):
        # 1 + 8i: x = i = -1/8 = 8 (mod 65), and 1 + 8 * 8 = 65
        field = quadratic_field(-1)
        elem = PrimeElement(field.ring.element((1, 8)))
        assert (elem.norm_abs, elem.root) == (65, 8)

    def test_scalar_has_no_root(self, norm_calls):
        assert scalar(cyclotomic_field(5), 7).root is None
        assert norm_calls == []

    @pytest.mark.parametrize("spec", ORACLE_FIELDS)
    def test_root_is_a_root_of_phi_and_the_element(self, spec):
        field = parse_field_spec(spec)
        elem = find_prime_norm_element(field, 3, random.Random(spec))
        n_abs, r = elem.norm_abs, elem.root
        assert 0 <= r < n_abs
        phi = (-c for c in field.ring.phi_coeffs)
        assert (sum(c * r**k for k, c in enumerate(phi)) + r**field.ring.degree) % n_abs == 0
        assert sum(c * r**k for k, c in enumerate(elem.element.coeffs)) % n_abs == 0

    @pytest.mark.parametrize("spec", ["quadratic:d=-1", "cyclotomic:m=8", "generic:phi=1,1,0"])
    def test_root_exists_exactly_when_x_is_an_integer_mod_the_ideal(self, spec):
        # the oracle tries every r in [0, N) for x - r in the HNF lattice of
        # (element); composite norms included
        ctx = parse_field_spec(spec).ring
        rng = random.Random(spec)
        outcomes = collections.Counter()
        while sum(outcomes.values()) < 40:
            coeffs = tuple(rng.randrange(-4, 5) for _ in range(ctx.degree))
            elem = PrimeElement(ctx.element(coeffs))
            if not any(coeffs[1:]) or not 1 < elem.norm_abs < 500:
                continue
            basis = hnf(ideal_matrix(ctx, elem.element).entries)
            x_minus = [(-r, 1) + (0,) * (ctx.degree - 2) for r in range(elem.norm_abs)]
            roots = [r for r, v in enumerate(x_minus) if contains(basis, v)]
            try:
                got = elem.root
            except ValueError:
                got = None
            assert got == (roots[0] if roots else None), coeffs
            outcomes[got is None] += 1
        assert outcomes[True] and outcomes[False]

    def test_quotient_not_cyclic_refused(self):
        # N(3 + 3i) = 18 and (3 + 3i) = (1 + i) * 3: Z[i]/(3 + 3i) is not Z/18
        elem = PrimeElement(quadratic_field(-1).ring.element((3, 3)))
        assert elem.norm_abs == 18
        with pytest.raises(ValueError, match="not Z/N"):
            elem.root


def refused_by_the_admission_rule(tmp_path, capsys, alpha, beta, reason):
    """The quadratic:d=-1 key (alpha, beta) with e = 3 is refused by the
    admission rule alone: keypair_from_primes raises ValueError,
    parse_private KeyFileError, CLI decrypt exits 2 with one error line,
    and validate_keypair, against the public lattice of (alpha * beta),
    raises the ValueError it returns.
    """
    field = quadratic_field(-1)
    with pytest.raises(ValueError, match=reason):
        keypair_from_primes(field, alpha, beta, e_choice=3)
    priv = PrivateKey(field, alpha, beta, pow(3, -1, totient(field, alpha, beta)))
    text = render_private(priv, 3)
    with pytest.raises(KeyFileError, match=reason):
        parse_private(text)
    priv_path, ct_path = tmp_path / "bad.priv", tmp_path / "ct.txt"
    priv_path.write_text(text)
    ct_path.write_text("")
    argv = ["decrypt", "--priv", str(priv_path), "--in", str(ct_path),
            "--out", str(tmp_path / "out.bin")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: private key file: ") and err.count("\n") == 1
    assert reason in err
    with pytest.raises(ValueError, match=reason) as refused:
        validate_keypair(PublicKey(field, hnf_oracle(alpha, beta), 3), priv)
    return refused.value


# the preset fields up to degree 32
PRESET_SPECS = ["quadratic:d=2", "quadratic:d=-5", "cyclotomic:m=5", "cyclotomic:m=12",
                "cyclotomic:m=16", "cyclotomic:m=64"]


class TestIdealBasis:
    """The closed forms of _ideal_basis against the general (m, g) HNF of the oracle."""

    @pytest.mark.parametrize("spec", PRESET_SPECS)
    def test_closed_forms_match_the_oracle(self, spec):
        ctx = parse_field_spec(spec).ring
        n, rng = ctx.degree, random.Random(spec)
        for _ in range(40):
            m = rng.randrange(1, 1 << rng.choice((1, 8, 64, 600)))
            r = rng.randrange(-m, 2 * m)
            assert fields._ideal_basis(n, m, r).entries == ideal_hnf(n, m, (r,)), (m, r)
            assert fields._ideal_basis(n, m).entries == ideal_hnf(n, m, ctx.phi_coeffs), m


class TestProductLattice:
    """product_lattice equals the HNF of the ideal matrix of alpha * beta."""

    @pytest.mark.parametrize("spec", ORACLE_FIELDS)
    def test_every_key_kind_matches_the_hnf(self, spec):
        field = parse_field_spec(spec)
        bound, count = ORACLE_FIELDS[spec]
        rng = random.Random(spec)
        elements = [find_prime_norm_element(field, bound, rng) for _ in range(count)]
        primes = elements + [scalar(field, 7), scalar(field, -3)]
        seen = collections.Counter()
        for alpha in primes:
            for beta in primes:
                if (alpha.root is None) != (beta.root is None):  # a scalar beside an element
                    with pytest.raises(ValueError):
                        _admit(alpha, beta)
                    seen["mixed"] += 1
                elif alpha.p == beta.p:  # associates or equal norms, unless 3 or 7 ramifies
                    with pytest.raises(ValueError if alpha.root is None else AssociatePrimesError):
                        _admit(alpha, beta)
                    seen["one prime"] += 1
                else:
                    kind = "scalar" if alpha.root is None else "prime-norm"
                    assert product_lattice(alpha, beta) == hnf_oracle(alpha, beta), (kind, spec)
                    seen[kind] += 1
        # each element with itself and with its negative is an associate pair
        for alpha in elements:
            negative = PrimeElement(field.ring.element(-c for c in alpha.element.coeffs))
            with pytest.raises(AssociatePrimesError):
                _admit(alpha, negative)
        assert seen["scalar"] == 2 and seen["mixed"] == 4 * count
        assert seen["prime-norm"] and seen["one prime"] >= count + 2

    @pytest.mark.parametrize(
        "spec,a,b",
        [
            # equal norms: 11 splits into four prime ideals of Z[zeta_5], 5 in Z[i]
            ("cyclotomic:m=5", (1, 2, 0, 0), (2, 1, 0, 0)),
            ("quadratic:d=-1", (2, 1), (2, -1)),
            ("cyclotomic:m=12", (2, 1, 0, 0), (1, 2, 0, 0)),
            # a scalar beside an element: 3 + sqrt(2) of norm 7, 1 + 2 zeta_5 of norm 11
            ("quadratic:d=2", (3, 1), (3, 0)),
            ("cyclotomic:m=5", (2, 0, 0, 0), (1, 2, 0, 0)),
        ],
    )
    def test_refused_pairs_give_the_totient_away(self, spec, a, b):
        # the lattice of (alpha * beta) names the primes: its diagonal is
        # (p, p, 1, ..., 1) for equal norms p, and (s m, s, ..., s) for a
        # scalar s beside an element of norm m
        field = parse_field_spec(spec)
        alpha, beta = (PrimeElement(field.ring.element(v)) for v in (a, b))
        diag, n = hnf_oracle(alpha, beta).diag, field.ring.degree
        if alpha.p == beta.p:
            assert alpha.root != beta.root and diag[:2] == (alpha.p,) * 2
            from_public = (diag[0] - 1) ** 2
        else:
            s = diag[-1]
            from_public = (s**n - 1) * (diag[0] // s - 1)
        assert from_public == totient(field, alpha, beta)
        with pytest.raises(ValueError, match="equal norms|scalar beside an element"):
            _admit(alpha, beta)

    def test_scalar_pair_is_scaled_identity(self):
        field = cyclotomic_field(16)
        basis = product_lattice(scalar(field, 3), scalar(field, -5))
        assert basis.entries == tuple(tuple(15 * (i == j) for j in range(8)) for i in range(8))

    def test_non_unit_root_difference_refused(self, tmp_path, capsys):
        # 1 + 8i and 4 + 7i have norm 65 = 5 * 13 and share the prime over 5:
        # their roots 8 and 18 agree mod 5, so (alpha * beta) is not (65, g)
        ctx = quadratic_field(-1).ring
        alpha, beta = PrimeElement(ctx.element((1, 8))), PrimeElement(ctx.element((4, 7)))
        assert (alpha.norm_abs, alpha.root, beta.norm_abs, beta.root) == (65, 8, 65, 18)
        assert totient(quadratic_field(-1), alpha, beta) == 64 * 64
        refused = refused_by_the_admission_rule(tmp_path, capsys, alpha, beta, "is not prime")
        assert not isinstance(refused, AssociatePrimesError)

    def test_norms_sharing_a_factor_refused(self, tmp_path, capsys):
        # N(1 + 8i) = 65 and N(2 + i) = 5
        ctx = quadratic_field(-1).ring
        alpha, beta = PrimeElement(ctx.element((1, 8))), PrimeElement(ctx.element((2, 1)))
        refused_by_the_admission_rule(tmp_path, capsys, alpha, beta, "is not prime")

    @pytest.mark.parametrize(
        "a,b,kind",
        [((3, 0), (5, 0), "scalar"), ((-3, 0), (5, 0), "scalar"), ((1, 2), (5, 1), "prime-norm"),
         ((5, 2), (1, 2), "prime-norm")],
    )
    def test_key_class(self, a, b, kind):
        # norms 7, 23 and 17; the class is read off the admitted halves
        field = quadratic_field(2)
        alpha, beta = (PrimeElement(field.ring.element(v)) for v in (a, b))
        assert PrivateKey(field, alpha, beta, 1).key_class == kind
        alpha, beta = (PrimeElement(field.ring.element(v)) for v in ((1, 2), (3, 1)))
        equal_norms = PrivateKey(field, alpha, beta, 1)
        with pytest.raises(AssociatePrimesError):
            equal_norms.key_class


class TestNaiveCosetBox:
    def test_radices(self):
        box = coset_box_naive(quadratic_field(2), 3, 5)
        assert box == (15, 15)
        assert math.prod(box) == 225

    def test_degree_sets_length(self):
        box = coset_box_naive(cyclotomic_field(5), 2, 3)
        assert box == (6, 6, 6, 6)

    def test_equal_primes_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            coset_box_naive(quadratic_field(2), 5, 5)

    def test_composites_rejected(self):
        with pytest.raises(ValueError, match="must be prime"):
            coset_box_naive(quadratic_field(2), 4, 5)


class TestPrimesModule:
    def test_small_primality(self):
        for n in range(-2, 200):
            by_trial = n > 1 and all(n % p for p in range(2, n))
            assert is_probable_prime(n) == by_trial

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 41041):
            assert not is_probable_prime(n)

    def test_large_values(self):
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime(2**128 + 1)
        assert is_probable_prime(2**521 - 1)

    @pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051])
    def test_strong_base_2_pseudoprimes_rejected(self, n):
        # they pass the base-2 half, so the Lucas half must catch them
        assert primes._strong_probable_prime(n, 2)
        assert not primes._strong_lucas_probable_prime(n)
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_strong_lucas_pseudoprimes_rejected(self, n):
        # they pass the Lucas half, so the base-2 half must catch them
        assert primes._strong_lucas_probable_prime(n)
        assert not primes._strong_probable_prime(n, 2)
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("p", [101, 1000003, 2**61 - 1, 2**89 - 1])
    def test_prime_squares_rejected(self, p):
        # no Selfridge parameter D exists for a square: the search must not run
        assert not is_probable_prime(p * p)

    def test_agrees_with_sieve_below_one_million(self):
        limit = 10**6
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for f in range(2, math.isqrt(limit) + 1):
            if sieve[f]:
                sieve[f * f :: f] = bytes(len(range(f * f, limit, f)))
        assert [n for n in range(limit) if is_probable_prime(n) != sieve[n]] == []

    def test_small_primes_table_is_the_primes_below_the_bound(self):
        bound = primes._SMALL_PRIME_BOUND
        assert bound == 1000
        assert primes._SMALL_PRIMES == tuple(
            p for p in range(2, bound) if all(p % f for f in range(2, p))
        )

    @pytest.mark.parametrize("n", [101 * 997, 997**2, 991 * 997, 101 * 103 * 107])
    def test_small_factors_refused_by_the_gcd(self, monkeypatch, n):
        def unreachable(*args):
            raise AssertionError("trial division should have refused n")

        monkeypatch.setattr(primes, "_strong_probable_prime", unreachable)
        monkeypatch.setattr(primes, "_strong_lucas_probable_prime", unreachable)
        assert math.gcd(n, primes._SMALL_PRIMORIAL) != 1
        assert not is_probable_prime(n)

    def test_totients(self):
        assert euler_phi(1) == 1
        assert euler_phi(8) == 4
        assert euler_phi(12) == 4
        assert carmichael_lambda(8) == 2
        assert carmichael_lambda(12) == 2
        assert carmichael_lambda(5) == 4

    def test_multiplicative_order(self):
        assert multiplicative_order(3, 8) == 2
        assert multiplicative_order(2, 5) == 4
        assert multiplicative_order(1, 7) == 1
