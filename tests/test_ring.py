"""Ring construction, convolution products, ideal matrices, norms."""

import functools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringrsa import KeyFileError, cyclotomic_field, parse_field_spec
from ringrsa import lattice, ring
from ringrsa.fields import find_prime_norm_element
from ringrsa.keyfiles import parse_private
from ringrsa.lattice import determinant, hnf, reduce_mod_lattice
from ringrsa.ring import (
    RingElement,
    conv_mul,
    conv_multi_pow,
    conv_pow,
    ideal_matrix,
    make_ring,
    norm,
    norm_bound_bits,
)
from oracles import poly_mulmod_naive
from support import (
    TEST_RINGS,
    add,
    binary_ladder,
    companion_matrix,
    mat_pow,
    mat_vec,
    rand_coeffs,
    scaled_identity,
    trace,
)

SQRT2 = TEST_RINGS["sqrt2"]
ZETA5 = TEST_RINGS["zeta5"]


def sqrt2_private_text(alpha, beta):
    return "".join([
        "format_version = 1\n", "role = private\n", "field = quadratic:d=2\n",
        f"alpha = {alpha}\n", f"beta = {beta}\n", "d = 3\n", "e = 3\n",
    ])


rings = st.sampled_from(list(TEST_RINGS.values()))
small_ints = st.integers(min_value=-50, max_value=50)

# Exponents around every window-width threshold (24, 80 and 240 bits, and
# 672, where OpenSSL would widen to 6 but the cap holds 5): the largest
# value below it, the lone top bit exactly at it and the all-ones value of
# that length; then long zero runs inside, and at the ends of, 800 bits.
WINDOW_EDGE_EXPONENTS = [
    *(m for t in (24, 80, 240, 672) for m in ((1 << t - 1) - 1, 1 << t - 1, (1 << t) - 1)),
    (1 << 799) | 1,
    ((1 << 300) - 1) << 400 | 0b1011,
    (0b10111 << 795) | (0b11101 << 300),
    1 << 800,
]
exponents_to_800_bits = st.one_of(
    st.integers(min_value=0, max_value=1 << 800), st.sampled_from(WINDOW_EDGE_EXPONENTS)
)


@st.composite
def ring_and_vectors(draw, count=1, bound=small_ints):
    ctx = draw(rings)
    vecs = [
        tuple(draw(bound) for _ in range(ctx.degree)) for _ in range(count)
    ]
    return (ctx, *vecs)


class TestConstruction:
    def test_rotation_matrix_sqrt2(self):
        h = ((0, 2), (1, 0))
        assert companion_matrix(SQRT2.phi_coeffs) == h
        assert ideal_matrix(SQRT2, SQRT2.element((0, 1))).entries == h

    def test_rotation_matrix_zeta5(self):
        h = (
            (0, 0, 0, -1),
            (1, 0, 0, -1),
            (0, 1, 0, -1),
            (0, 0, 1, -1),
        )
        assert companion_matrix(ZETA5.phi_coeffs) == h
        assert ideal_matrix(ZETA5, ZETA5.element((0, 1, 0, 0))).entries == h

    @pytest.mark.parametrize("ctx", TEST_RINGS.values(), ids=TEST_RINGS.keys())
    def test_rotation_satisfies_minimal_polynomial(self, ctx):
        # H^n must equal phi_0*I + phi_1*H + ... + phi_{n-1}*H^{n-1}
        n = ctx.degree
        h = companion_matrix(ctx.phi_coeffs)
        acc = tuple(
            tuple(0 for _ in range(n)) for _ in range(n)
        )
        for k, c in enumerate(ctx.phi_coeffs):
            hk = mat_pow(h, k)
            acc = tuple(
                tuple(a + c * b for a, b in zip(ra, rb))
                for ra, rb in zip(acc, hk)
            )
        assert mat_pow(h, n) == acc

    def test_constant_term_zero_rejected(self):
        with pytest.raises(ValueError, match="x divides phi"):
            make_ring((0, 3))

    @pytest.mark.parametrize("phi", [(1, 0), (4, 0), (-8, 0, 0), (6, -5)])
    def test_rational_root_rejected(self, phi):
        # x^2-1, x^2-4, x^3+8, x^2+5x-6 all have integer roots
        with pytest.raises(ValueError, match="reducible"):
            make_ring(phi)

    def test_empty_phi_rejected(self):
        with pytest.raises(ValueError):
            make_ring(())

    def test_element_length_checked(self):
        # where a key file is parsed: the element itself checks nothing
        with pytest.raises(KeyFileError, match="'alpha' does not match the field degree 2"):
            parse_private(sqrt2_private_text("1,2,3", "5,0"))

    def test_element_rejects_floats(self):
        with pytest.raises(TypeError):
            SQRT2.element((1.5, 0))

    def test_zero_one(self):
        assert SQRT2.zero().coeffs == (0, 0)
        assert SQRT2.one().coeffs == (1, 0)
        assert ZETA5.one().coeffs == (1, 0, 0, 0)


class TestIdealMatrix:
    def test_known_entries(self):
        assert ideal_matrix(SQRT2, SQRT2.element((3, 1))).entries == (
            (3, 2),
            (1, 3),
        )

    def test_identity_element(self):
        assert ideal_matrix(SQRT2, SQRT2.one()).entries == ((1, 0), (0, 1))

    @pytest.mark.parametrize("ctx", TEST_RINGS.values(), ids=TEST_RINGS.keys())
    def test_unit_vectors_give_rotation_powers(self, ctx):
        n = ctx.degree
        for k in range(1, n + 1):
            e_k = tuple(int(i == k - 1) for i in range(n))
            got = ideal_matrix(ctx, ctx.element(e_k)).entries
            assert got == mat_pow(companion_matrix(ctx.phi_coeffs), k - 1)

    @given(ring_and_vectors())
    def test_columns_are_rotation_orbit(self, data):
        ctx, f = data
        m = ideal_matrix(ctx, ctx.element(f)).entries
        h = companion_matrix(ctx.phi_coeffs)
        col = f
        for j in range(ctx.degree):
            assert tuple(m[i][j] for i in range(ctx.degree)) == tuple(col)
            col = mat_vec(h, col)

    def test_context_mismatch_rejected(self):
        with pytest.raises(ValueError, match="context mismatch"):
            ideal_matrix(SQRT2, ZETA5.one())


class TestConvolution:
    def test_known_products(self):
        x = SQRT2.element((0, 1))
        assert conv_mul(SQRT2, x, x).coeffs == (2, 0)
        f = SQRT2.element((1, 1))
        assert conv_mul(SQRT2, f, f).coeffs == (3, 2)
        assert conv_pow(SQRT2, f, 2, scaled_identity(2, 10)).coeffs == (3, 2)

    @given(ring_and_vectors(count=2))
    def test_matches_ideal_matrix_action(self, data):
        ctx, f, g = data
        got = conv_mul(ctx, ctx.element(f), ctx.element(g)).coeffs
        assert got == mat_vec(ideal_matrix(ctx, ctx.element(f)).entries, g)

    @given(ring_and_vectors(count=2))
    def test_matches_naive_polynomial_route(self, data):
        ctx, f, g = data
        got = conv_mul(ctx, ctx.element(f), ctx.element(g)).coeffs
        assert list(got) == poly_mulmod_naive(ctx.phi_coeffs, f, g)

    @given(ring_and_vectors(count=2))
    def test_commutative(self, data):
        ctx, f, g = data
        ef, eg = ctx.element(f), ctx.element(g)
        assert conv_mul(ctx, ef, eg) == conv_mul(ctx, eg, ef)

    @given(ring_and_vectors(count=3))
    def test_associative_and_distributive(self, data):
        ctx, f, g, h = data
        ef, eg, eh = ctx.element(f), ctx.element(g), ctx.element(h)
        mul = lambda a, b: conv_mul(ctx, a, b)  # noqa: E731
        assert mul(mul(ef, eg), eh) == mul(ef, mul(eg, eh))
        assert mul(ef, add(eg, eh)) == add(mul(ef, eg), mul(ef, eh))

    @given(ring_and_vectors())
    def test_one_is_identity(self, data):
        ctx, f = data
        ef = ctx.element(f)
        assert conv_mul(ctx, ef, ctx.one()) == ef


class TestKernels:
    """The generated straight-line kernels against the schoolbook product,
    every coefficient taken mod m."""

    # degree 1, the test rings, a generic quintic x^5 - 2x^4 - 3 with zero
    # coefficients, and a dense generic sextic with negative coefficients
    RINGS = [
        make_ring((7,)),
        *TEST_RINGS.values(),
        make_ring((3, 0, 0, 0, 2)),
        make_ring((-3, 5, -7, 2, -1, 4)),
    ]
    # the whole ring, a small prime, a 600-bit modulus
    MODULI = [1, 1009, (1 << 600) - 3]

    @given(st.data(), st.sampled_from(RINGS), st.sampled_from(MODULI))
    def test_match_schoolbook(self, data, ctx, m):
        coeff = st.one_of(small_ints, st.integers(min_value=-(1 << 600), max_value=1 << 600))
        vector = st.lists(coeff, min_size=ctx.degree, max_size=ctx.degree).map(tuple)
        a, b = data.draw(vector), data.draw(vector)
        phi = ctx.phi_coeffs
        sqr, mul = ring._kernels(phi)
        assert sqr(a, m) == tuple(c % m for c in ring._conv(phi, a, a))
        assert mul(a, b, m) == tuple(c % m for c in ring._conv(phi, a, b))

    def test_coefficients_past_the_decimal_digit_limit(self):
        # str() refuses ints above 4300 digits; the kernel source must not
        phi = (3, 10**5000)
        sqr, mul = ring._kernels(phi)
        a, b = (5, -7), (10**4999, 2)
        m = 10**6000 + 1
        assert sqr(a, m) == tuple(c % m for c in ring._conv(phi, a, a))
        assert mul(a, b, m) == tuple(c % m for c in ring._conv(phi, a, b))

    def test_degree_cap_builds_in_budget(self):
        # cyclotomic:m=256 is the largest degree a field spec may have;
        # __wrapped__ builds afresh, past the cache
        phi = cyclotomic_field(256).ring.phi_coeffs
        start = time.monotonic()
        sqr, mul = ring._kernels.__wrapped__(phi)
        assert time.monotonic() - start < 5
        rng = random.Random(256)
        a, b = rand_coeffs(rng, 128, 1 << 64), rand_coeffs(rng, 128, 1 << 64)
        m = (1 << 127) - 1
        assert sqr(a, m) == tuple(c % m for c in ring._conv(phi, a, a))
        assert mul(a, b, m) == tuple(c % m for c in ring._conv(phi, a, b))


class TestConvPow:
    def test_zero_exponent(self):
        f = SQRT2.element((9, 3))
        basis = scaled_identity(2, 5)
        assert conv_pow(SQRT2, f, 0, basis).coeffs == (1, 0)
        assert conv_pow(SQRT2, SQRT2.zero(), 0, basis).coeffs == (1, 0)

    def test_zero_exponent_goes_through_reducer(self):
        # the identity is reduced too: modulo the whole ring it is 0, and
        # modulo the ideal (2 + 2x) it is its box representative
        f = SQRT2.element((2, 2))
        assert conv_pow(SQRT2, f, 0, scaled_identity(2, 1)).coeffs == (0, 0)
        basis = hnf(ideal_matrix(SQRT2, f).entries)
        got = conv_pow(SQRT2, f, 0, basis).coeffs
        assert got == reduce_mod_lattice(basis, (1, 0))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            conv_pow(SQRT2, SQRT2.one(), -1, scaled_identity(2, 5))

    @given(
        ring_and_vectors(count=2, bound=st.integers(min_value=-9, max_value=9)),
        st.integers(min_value=0, max_value=6),
    )
    def test_matches_repeated_multiplication(self, data, m):
        # exact for ideal lattices only (closed under multiplication by x):
        # here the HNF of the ideal matrix of g != 0
        ctx, f, g = data
        if not any(g):
            g = (1,) + g[1:]
        basis = hnf(ideal_matrix(ctx, ctx.element(g)).entries)
        ef = ctx.element(f)
        power = ctx.one()
        for _ in range(m):
            power = conv_mul(ctx, power, ef)
        got = conv_pow(ctx, ef, m, basis).coeffs
        assert got == reduce_mod_lattice(basis, power.coeffs)

    @given(
        ring_and_vectors(bound=st.integers(min_value=-9, max_value=9)),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=97),
    )
    def test_coefficient_mod_reducer_commutes(self, data, m, modulus):
        # modulo modulus * I, reducing after every step must agree with
        # reducing every coefficient of the full power once
        ctx, f = data
        ef = ctx.element(f)
        power = ctx.one()
        for _ in range(m):
            power = conv_mul(ctx, power, ef)
        got = conv_pow(ctx, ef, m, scaled_identity(ctx.degree, modulus)).coeffs
        assert got == tuple(c % modulus for c in power.coeffs)


class TestConvMultiPow:
    """Interleaved sliding windows against a product of single powers:
    repeated multiplication for small exponents, the binary ladder of
    tests/support.py up to 800 bits.
    """

    @given(
        ring_and_vectors(count=7, bound=st.integers(min_value=-9, max_value=9)),
        st.lists(st.integers(min_value=0, max_value=9), min_size=6, max_size=6),
        st.integers(min_value=1, max_value=97),
    )
    def test_matches_repeated_multiplication(self, data, exps, modulus):
        # six bases, each with its own table; zero exponents drop out
        ctx, g, *fs = data
        bases = [ctx.element(f) for f in fs]
        product = ctx.one()
        for f, m in zip(bases, exps):
            for _ in range(m):
                product = conv_mul(ctx, product, f)
        lattices = [scaled_identity(ctx.degree, modulus)]
        if any(g):
            lattices.append(hnf(ideal_matrix(ctx, ctx.element(g)).entries))
        for basis in lattices:
            got = conv_multi_pow(ctx, bases, exps, basis).coeffs
            assert got == reduce_mod_lattice(basis, product.coeffs)

    @pytest.mark.parametrize("m", WINDOW_EDGE_EXPONENTS, ids=lambda m: f"{m.bit_length()}bits")
    def test_window_edges_match_binary_ladder(self, m):
        for ctx in (SQRT2, ZETA5):
            f = ctx.element((3, -1, 4, 1)[: ctx.degree])
            lattices = [
                scaled_identity(ctx.degree, (1 << 61) - 1),
                hnf(ideal_matrix(ctx, ctx.element((5, 2, 0, 1)[: ctx.degree])).entries),
            ]
            for basis in lattices:
                assert conv_pow(ctx, f, m, basis) == binary_ladder(ctx, f, m, basis)

    @given(
        ring_and_vectors(count=4, bound=st.integers(min_value=-99, max_value=99)),
        st.lists(exponents_to_800_bits, min_size=0, max_size=3),
    )
    @settings(max_examples=20)
    def test_large_exponents_match_binary_ladder(self, data, exps):
        ctx, g, *fs = data
        bases = [ctx.element(f) for f in fs[: len(exps)]]
        lattices = [scaled_identity(ctx.degree, 2**89 - 1)]
        if any(g):
            lattices.append(hnf(ideal_matrix(ctx, ctx.element(g)).entries))
        for basis in lattices:
            product = ctx.one()
            for f, m in zip(bases, exps):
                product = conv_mul(ctx, product, binary_ladder(ctx, f, m, basis))
            got = conv_multi_pow(ctx, bases, exps, basis).coeffs
            assert got == reduce_mod_lattice(basis, product.coeffs)

    def test_window_width_rule(self):
        widths = {bits: ring._window_width(bits) for bits in (1, 23, 24, 79, 80, 239, 240, 672, 800)}
        assert widths == {1: 1, 23: 1, 24: 3, 79: 3, 80: 4, 239: 4, 240: 5, 672: 5, 800: 5}

    @given(exponents_to_800_bits.filter(bool))
    def test_recoding_is_exact_with_bounded_tables(self, m):
        w = ring._window_width(m.bit_length())
        assert w <= 5
        windows = ring._windows(m, w)
        assert sum(v << pos for pos, v in windows) == m
        assert all(v % 2 == 1 and v < 1 << w for _, v in windows)

    def test_e_65537_is_a_plain_ladder(self, ring_products):
        conv_pow(ZETA5, ZETA5.element((3, -1, 4, 1)), 65537, scaled_identity(4, 1009))
        assert ring_products == {"sqr": 16, "mul": 1}

    def test_single_base_is_conv_pow(self):
        f = ZETA5.element((3, -1, 4, 1))
        basis = scaled_identity(4, 1009)
        for m in (0, 1, 2, 5, 2**70 + 3):
            assert conv_multi_pow(ZETA5, [f], [m], basis) == conv_pow(ZETA5, f, m, basis)

    def test_no_bases_or_zero_exponents_give_reduced_identity(self):
        basis = scaled_identity(2, 1)
        assert conv_multi_pow(SQRT2, [], [], scaled_identity(2, 7)).coeffs == (1, 0)
        assert conv_multi_pow(SQRT2, [SQRT2.zero()] * 5, [0] * 5, basis).coeffs == (0, 0)

    def test_zero_base_with_positive_exponent(self):
        basis = scaled_identity(2, 7)
        got = conv_multi_pow(SQRT2, [SQRT2.element((3, 1)), SQRT2.zero()], [4, 1], basis)
        assert got.coeffs == (0, 0)

    def test_bad_arguments_rejected(self):
        basis = scaled_identity(2, 5)
        with pytest.raises(ValueError, match="negative exponent"):
            conv_multi_pow(SQRT2, [SQRT2.one(), SQRT2.one()], [1, -1], basis)
        with pytest.raises(ValueError):
            conv_multi_pow(SQRT2, [SQRT2.one(), SQRT2.one()], [1], basis)
        with pytest.raises(ValueError, match="context mismatch"):
            conv_multi_pow(SQRT2, [ZETA5.one()], [1], basis)


def element_key_lattice(spec, bound, seed):
    """(ring, HNF of alpha * beta, (alpha, beta)) of seeded prime-norm elements.

    Associates are drawn again; equal norms are kept, so the lattice may
    have the shape (p, p, 1, ..., 1), which no admitted key has.
    """
    field, rng = parse_field_spec(spec), random.Random(seed)
    while True:
        alpha, beta = (find_prime_norm_element(field, bound, rng) for _ in range(2))
        if alpha.norm_abs != beta.norm_abs or alpha.root != beta.root:
            ctx = field.ring
            basis = hnf(ideal_matrix(ctx, conv_mul(ctx, alpha.element, beta.element)).entries)
            return ctx, basis, (alpha.element.coeffs, beta.element.coeffs)


def scalar_lattice(ctx, *primes):
    """(ring, the product of primes times I, the primes as ring elements)."""
    pad = (0,) * (ctx.degree - 1)
    basis = scaled_identity(ctx.degree, math.prod(primes))
    return ctx, basis, tuple((p,) + pad for p in primes)


# Every kind of lattice conv_multi_pow reduces by, with generators of its
# prime factors, so that their multiples give zero divisors.
IDEAL_LATTICES = {
    "p-zeta5": lambda: scalar_lattice(ZETA5, 1009),
    "p-cubic": lambda: scalar_lattice(TEST_RINGS["cubic"], (1 << 89) - 1),
    "pq-sqrt2": lambda: scalar_lattice(SQRT2, (1 << 61) - 1, 1009),
    "pq-zeta8": lambda: scalar_lattice(TEST_RINGS["zeta8"], 3, 5),
    # equal norms 24977: diagonal (24977, 24977, 1, ..., 1)
    "equal-norm-m16": lambda: element_key_lattice("cyclotomic:m=16", 3, 123),
    "equal-norm-m5": lambda: element_key_lattice("cyclotomic:m=5", 1, 2),
    "skew-m5": lambda: element_key_lattice("cyclotomic:m=5", 2, 1),
    "skew-d-5": lambda: element_key_lattice("quadratic:d=-5", 9, 4),
    "skew-quintic": lambda: element_key_lattice("generic:phi=3,1,0,0,-1", 2, 7),
}


@functools.cache
def ideal_lattice(name):
    return IDEAL_LATTICES[name]()


def ladder_product(ctx, bases, exps, basis):
    """The product of binary_ladder powers, reduced once into the box."""
    product = ctx.one()
    for f, m in zip(bases, exps):
        product = conv_mul(ctx, product, binary_ladder(ctx, f, m, basis))
    return reduce_mod_lattice(basis, product.coeffs)


class TestIdealLattices:
    """conv_multi_pow, whose kernels reduce % basis.diag[0] per step, against
    products of the binary ladder, which reduces into the box per step."""

    def test_keys_have_the_lattice_shapes(self):
        _, basis, _ = ideal_lattice("equal-norm-m16")
        assert basis.diag == (24977, 24977) + (1,) * 6
        _, basis, _ = ideal_lattice("equal-norm-m5")
        assert basis.diag == (11, 11, 1, 1)
        for name in ("skew-m5", "skew-d-5", "skew-quintic"):
            _, basis, _ = ideal_lattice(name)
            assert any(basis.entries[0][1:])

    @given(
        st.sampled_from(sorted(IDEAL_LATTICES)),
        st.lists(
            st.tuples(
                st.sampled_from(["random", "zero", "zero divisor"]),
                st.integers(min_value=0),
                st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 1 << 160)),
            ),
            max_size=3,
        ),
    )
    def test_matches_binary_ladder(self, name, draws):
        ctx, basis, factors = ideal_lattice(name)
        bases = []
        for kind, seed, _ in draws:
            rng = random.Random(seed)
            g = ctx.element(rand_coeffs(rng, ctx.degree, 1 << 70))
            if kind == "zero":
                g = ctx.zero()
            elif kind == "zero divisor":
                g = conv_mul(ctx, ctx.element(rng.choice(factors)), g)
            bases.append(g)
        exps = [m for _, _, m in draws]
        got = conv_multi_pow(ctx, bases, exps, basis).coeffs
        assert got == ladder_product(ctx, bases, exps, basis)

    @pytest.mark.parametrize("name", sorted(IDEAL_LATTICES))
    def test_edge_exponents(self, name):
        ctx, basis, factors = ideal_lattice(name)
        rng = random.Random(name)
        f, g = (ctx.element(rand_coeffs(rng, ctx.degree, 1 << 70)) for _ in range(2))
        zero_divisors = [conv_mul(ctx, ctx.element(a), f) for a in factors]
        identity = reduce_mod_lattice(basis, ctx.one().coeffs)
        assert conv_multi_pow(ctx, [], [], basis).coeffs == identity
        assert conv_multi_pow(ctx, [f, g], [0, 0], basis).coeffs == identity
        assert conv_pow(ctx, f, 1, basis).coeffs == reduce_mod_lattice(basis, f.coeffs)
        cases = [
            ([f, g], [2**100 + 1, 0]),
            ([f, g, zero_divisors[0]], [0, 65537, 1]),
            ([zero_divisors[-1], f], [3**50, 1]),
            ([ctx.zero(), g], [5, 0]),
        ]
        for bases, exps in cases:
            got = conv_multi_pow(ctx, bases, exps, basis).coeffs
            assert got == ladder_product(ctx, bases, exps, basis)


class TestTraceNorm:
    def test_known_values(self):
        f = SQRT2.element((3, 1))
        assert trace(SQRT2, f) == 6
        assert norm(SQRT2, f) == 7
        assert norm(SQRT2, SQRT2.element((0, 1))) == -2

    def test_scalar_norm_is_power(self):
        assert norm(ZETA5, ZETA5.element((3, 0, 0, 0))) == 81
        assert trace(ZETA5, ZETA5.element((3, 0, 0, 0))) == 12

    @given(ring_and_vectors(count=2))
    def test_trace_additive(self, data):
        ctx, f, g = data
        ef, eg = ctx.element(f), ctx.element(g)
        assert trace(ctx, add(ef, eg)) == trace(ctx, ef) + trace(ctx, eg)

    @given(ring_and_vectors(count=2, bound=st.integers(-20, 20)))
    def test_norm_multiplicative(self, data):
        ctx, f, g = data
        ef, eg = ctx.element(f), ctx.element(g)
        assert norm(ctx, conv_mul(ctx, ef, eg)) == norm(ctx, ef) * norm(ctx, eg)


def bareiss_norm(ctx, f):
    return determinant(ideal_matrix(ctx, f).entries)


# (field spec, coefficients, expected norm); None leaves the value to the
# Bareiss determinant alone
NORM_CASES = [
    ("quadratic:d=2", (0, 1), -2),
    ("quadratic:d=2", (3, 1), 7),
    ("quadratic:d=2", (1, 1), -1),
    ("quadratic:d=2", (-3, 0), 9),
    ("quadratic:d=2", (2, 2), -4),
    ("quadratic:d=-5", (1, 2), 21),
    ("quadratic:d=-5", (0, -1), 5),
    ("quadratic:d=-5", (0, 0), 0),
    ("cyclotomic:m=5", (0, 1, 0, 0), 1),
    ("cyclotomic:m=5", (3, 0, 0, 0), 81),
    ("cyclotomic:m=5", (-3, 0, 0, 0), 81),
    ("cyclotomic:m=5", (1, -1, 0, 0), 5),
    ("cyclotomic:m=5", (2, 2, 0, 0), None),
    ("cyclotomic:m=5", (4, -2, 6, 2), None),
    ("cyclotomic:m=16", (0, 0, 0, 1, 0, 0, 0, 0), 1),
    ("cyclotomic:m=16", (5, -3, 0, 7, 1, 0, -2, 9), None),
    ("cyclotomic:m=16", (6, 0, -4, 2, 0, 0, 0, 0), None),
    ("cyclotomic:m=64", tuple(range(-16, 16)), None),
    ("generic:phi=3,1,0,0,-1", (0, 1, 0, 0, 0), 3),
    ("generic:phi=3,1,0,0,-1", (-2, 0, 0, 0, 0), -32),
    ("generic:phi=3,1,0,0,-1", (1, 2, -1, 0, 3), None),
    ("generic:phi=3,1,0,0,-1", (4, 0, 2, 0, -6), None),
    # x^4 + 3x^2 + 2 = (x^2 + 1)(x^2 + 2): a common factor gives norm 0
    ("generic:phi=-2,0,-3,0", (1, 0, 1, 0), 0),
    ("generic:phi=-2,0,-3,0", (2, 0, 1, 0), 0),
    ("generic:phi=-2,0,-3,0", (3, 0, 3, 0), 0),
    ("generic:phi=-2,0,-3,0", (1, 1, 0, 0), 6),
]


class TestNormResultant:
    """norm is Res(phi, f); the Bareiss determinant of f(H) is the oracle."""

    @pytest.mark.parametrize("spec,coeffs,expected", NORM_CASES)
    def test_equals_bareiss(self, spec, coeffs, expected):
        ctx = parse_field_spec(spec).ring
        f = ctx.element(coeffs)
        assert norm(ctx, f) == bareiss_norm(ctx, f)
        if expected is not None:
            assert norm(ctx, f) == expected

    def test_degree_128_element(self):
        ctx = cyclotomic_field(256).ring
        f = ctx.element(rand_coeffs(random.Random(0x256), 128, 3))
        assert norm(ctx, f) == bareiss_norm(ctx, f) != 0

    @settings(max_examples=40)
    @given(
        st.sampled_from([
            "quadratic:d=2", "quadratic:d=-5", "cyclotomic:m=5", "cyclotomic:m=16",
            "cyclotomic:m=64", "generic:phi=3,1,0,0,-1", "generic:phi=-2,0,-3,0",
        ]),
        st.lists(st.integers(-6, 6), min_size=64, max_size=64),
        st.integers(1, 4),
    )
    def test_random_elements_equal_bareiss(self, spec, pool, scale):
        ctx = parse_field_spec(spec).ring
        f = ctx.element([scale * c for c in pool[: ctx.degree]])
        assert norm(ctx, f) == bareiss_norm(ctx, f)

    @pytest.mark.parametrize("spec,coeffs,expected", NORM_CASES)
    def test_bound_holds(self, spec, coeffs, expected):
        ctx = parse_field_spec(spec).ring
        assert abs(norm(ctx, ctx.element(coeffs))) < 2 ** norm_bound_bits(ctx, ctx.element(coeffs))

    @given(ring_and_vectors(bound=st.integers(-(1 << 80), 1 << 80)))
    def test_bound_holds_on_random_elements(self, data):
        ctx, f = data
        assert abs(norm(ctx, ctx.element(f))) < 2 ** norm_bound_bits(ctx, ctx.element(f))

    def test_scalar_bound_overshoots_by_the_rounding(self):
        # deg f = 0 leaves ||f||^n = |c|^n; (c^2).bit_length() rounds 2 log2|c| up by 1
        ctx = cyclotomic_field(256).ring
        f = ctx.element((1 << 54,) + (0,) * 127)
        assert norm_bound_bits(ctx, f) == 54 * 128 + 64 == norm(ctx, f).bit_length() + 63

    def test_builds_no_ideal_matrix(self, record_calls):
        calls = []
        record_calls(ring, "ideal_matrix", lambda *args: calls.append("ideal_matrix"))
        record_calls(lattice, "determinant", lambda *args: calls.append("determinant"))
        ctx = cyclotomic_field(16).ring
        assert norm(ctx, ctx.element((5, -3, 0, 7, 1, 0, -2, 9))) != 0
        assert calls == []


class TestElementTypes:
    def test_elements_are_value_objects(self):
        assert SQRT2.element((1, 2)) == SQRT2.element((1, 2))
        assert SQRT2.element((1, 2)) != SQRT2.element((2, 1))

    def test_mixed_context_arithmetic_rejected(self):
        with pytest.raises(ValueError, match="context mismatch"):
            conv_mul(SQRT2, SQRT2.element((1, 0)), TEST_RINGS["isqrt5"].element((1, 0)))

    def test_length_checked_at_parse_not_construction(self):
        assert RingElement(SQRT2, (1, 2, 3)).coeffs == (1, 2, 3)
        with pytest.raises(KeyFileError, match="'beta' does not match the field degree 2"):
            parse_private(sqrt2_private_text("5,0", "1,2,3"))
