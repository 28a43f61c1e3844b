"""Ring construction, convolution products, ideal matrices, norms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringrsa import (
    RingElement,
    conv_mul,
    conv_pow,
    hnf,
    ideal_matrix,
    make_ring,
    norm,
    reduce_mod_lattice,
)
from ringrsa import ring
from ringrsa.ring import conv_multi_pow
from oracles import poly_mulmod_naive
from support import (
    TEST_RINGS,
    add,
    binary_ladder,
    companion_matrix,
    mat_pow,
    mat_vec,
    scaled_identity,
    trace,
)

SQRT2 = TEST_RINGS["sqrt2"]
ZETA5 = TEST_RINGS["zeta5"]

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
        with pytest.raises(ValueError):
            SQRT2.element((1, 2, 3))

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


class TestSquaring:
    """The dedicated squaring kernel against the general product."""

    # degree 1, then a generic quintic x^5 - 2x^4 - 3 with zero coefficients
    RINGS = [make_ring((7,)), *TEST_RINGS.values(), make_ring((3, 0, 0, 0, 2))]

    @given(st.data(), st.sampled_from(RINGS))
    def test_matches_conv(self, data, ctx):
        coeff = st.one_of(small_ints, st.integers(min_value=-(1 << 600), max_value=1 << 600))
        a = data.draw(st.lists(coeff, min_size=ctx.degree, max_size=ctx.degree))
        phi = ctx.phi_coeffs
        assert ring._sqr(phi, a) == ring._conv(phi, a, a)



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
        assert ring_products == {"_sqr": 16, "_conv": 1}

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


class TestElementTypes:
    def test_elements_are_value_objects(self):
        assert SQRT2.element((1, 2)) == SQRT2.element((1, 2))
        assert SQRT2.element((1, 2)) != SQRT2.element((2, 1))

    def test_mixed_context_arithmetic_rejected(self):
        with pytest.raises(ValueError, match="context mismatch"):
            conv_mul(SQRT2, SQRT2.element((1, 0)), TEST_RINGS["isqrt5"].element((1, 0)))

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            RingElement(SQRT2, (1, 2, 3))
