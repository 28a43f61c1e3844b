"""Numbered acceptance checks.

Each test drives one end-to-end guarantee at its stated size and time
budget and reports one PASS/FAIL line in the terminal summary.  Exact
integer equality everywhere; the only tolerance is the 1e-6 relative
bound inside the numeric norm cross-check.
"""

import itertools
import math
import random

from ringrsa import (
    InertPrimeMode,
    PrimeElement,
    PrimeNormElementMode,
    coset_box,
    cyclotomic_field,
    decrypt_block,
    encrypt_block,
    keygen,
    keypair_from_primes,
    quadratic_field,
    validate_keypair,
)
from ringrsa.lattice import determinant, hnf, reduce_mod_lattice
from ringrsa.ring import conv_mul, ideal_matrix, make_ring, norm
from ringrsa.cli import main
from oracles import (
    brute_force_cosets,
    is_lattice_member,
    numeric_norm_check,
    poly_mulmod_naive,
)
from support import (
    TEST_RINGS,
    add,
    companion_matrix,
    coset_box_naive,
    mat_mul,
    mat_pow,
    power_mod_lattice,
    rand_coeffs,
    rand_nonsingular,
    rand_nonzero_element,
    rand_unimodular,
    trace,
)

SQRT2_FIELD = quadratic_field(2)


def toy_keypair():
    alpha = PrimeElement(SQRT2_FIELD.ring.element((3, 0)))
    beta = PrimeElement(SQRT2_FIELD.ring.element((5, 0)))
    return keypair_from_primes(SQRT2_FIELD, alpha, beta, e_choice=5)


def test_01_toy_key_exact_values(acceptance):
    with acceptance(1, "toy key exact values", budget=1.0):
        pub, priv = toy_keypair()
        assert pub.lattice.entries == ((15, 0), (0, 15))
        assert priv.phi == 192
        assert priv.d == 77
        ct = encrypt_block(pub, (1, 1))
        assert ct.vector.coeffs == (11, 14)
        assert decrypt_block(priv, ct.vector.coeffs).coeffs == (1, 1)


def test_02_toy_key_encryption_permutes_the_box(acceptance):
    with acceptance(2, "toy key encryption permutes the box", budget=5.0):
        pub, priv = toy_keypair()
        points = list(itertools.product(range(15), range(15)))
        images = set()
        for msg in points:
            ct = encrypt_block(pub, msg).vector.coeffs
            images.add(ct)
            assert decrypt_block(priv, ct).coeffs == msg
        assert images == set(points)


def test_03_repeated_totient_exponent_fixes_box_points(acceptance):
    fields = [
        quadratic_field(2),
        quadratic_field(-1),
        quadratic_field(3),
        cyclotomic_field(5),
        cyclotomic_field(8),
    ]
    rng = random.Random(20260815)
    with acceptance(
        3, "exponent k*phi + 1 fixes every box point", budget=60.0
    ):
        for field in fields:
            ctx = field.ring
            for _ in range(10):
                pub, priv = keygen(field, InertPrimeMode(bits=6), rng=rng)
                box = coset_box(pub.lattice)
                for _ in range(100):
                    point = tuple(rng.randrange(r) for r in box)
                    elem = ctx.element(point)
                    for k in (0, 1, 2):
                        got = power_mod_lattice(ctx, elem, k * priv.phi + 1, pub.lattice)
                        assert got == point


def test_04_cli_byte_roundtrips_at_scale(acceptance, tmp_path):
    configs = [("quadratic:d=2", 48, "0xaa"), ("cyclotomic:m=8", 16, "0xbb")]
    rng = random.Random(404)
    with acceptance(4, "CLI byte roundtrips at scale", budget=120.0):
        for spec, bits, seed in configs:
            pub = tmp_path / "k.pub"
            priv = tmp_path / "k.priv"
            assert main(
                ["keygen", "--field", spec, "--mode", f"inert:bits={bits}",
                 "--seed", seed, "--pub", str(pub), "--priv", str(priv)]
            ) == 0
            src = tmp_path / "payload.bin"
            ct = tmp_path / "payload.ct"
            out = tmp_path / "payload.out"
            for _ in range(100):
                payload = rng.randbytes(rng.randrange(4097))
                src.write_bytes(payload)
                assert main(["encrypt", "--pub", str(pub), "--in", str(src),
                             "--out", str(ct)]) == 0
                assert main(["decrypt", "--priv", str(priv), "--in", str(ct),
                             "--out", str(out)]) == 0
                assert out.read_bytes() == payload


def test_05_element_mode_key_batch(acceptance):
    rng = random.Random(505)
    with acceptance(5, "element-mode key batch", budget=60.0):
        saw_non_diagonal = False
        for _ in range(10):
            pub, priv = keygen(
                SQRT2_FIELD, PrimeNormElementMode(coeff_bound=50), rng=rng
            )
            assert validate_keypair(pub, priv)
            entries = pub.lattice.entries
            n = len(pub.lattice.entries)
            if any(
                entries[i][j] for i in range(n) for j in range(n) if i != j
            ):
                saw_non_diagonal = True
            box = coset_box(pub.lattice)
            for _ in range(50):
                msg = tuple(rng.randrange(r) for r in box)
                assert decrypt_block(priv, encrypt_block(pub, msg).vector.coeffs).coeffs == msg
        assert saw_non_diagonal


def test_06_ring_identity_batch(acceptance):
    rng = random.Random(606)
    with acceptance(6, "ring identity batch", budget=30.0):
        for ctx in TEST_RINGS.values():
            n = ctx.degree
            h = companion_matrix(ctx.phi_coeffs)
            # closure of the rotation orbit: H^n = sum phi_k H^k
            powers = [mat_pow(h, k) for k in range(n + 1)]
            acc = [[0] * n for _ in range(n)]
            for k, c in enumerate(ctx.phi_coeffs):
                for i in range(n):
                    for j in range(n):
                        acc[i][j] += c * powers[k][i][j]
            assert powers[n] == tuple(tuple(row) for row in acc)
            # unit coefficient vectors map to rotation powers
            for k in range(1, n + 1):
                e_k = ctx.element(tuple(int(i == k - 1) for i in range(n)))
                assert ideal_matrix(ctx, e_k).entries == powers[k - 1]
            for _ in range(500):
                f = ctx.element(rand_coeffs(rng, n, 999))
                g = ctx.element(rand_coeffs(rng, n, 999))
                mf = ideal_matrix(ctx, f).entries
                mg = ideal_matrix(ctx, g).entries
                prod = conv_mul(ctx, f, g)
                assert mat_mul(mf, mg) == mat_mul(mg, mf)
                assert ideal_matrix(ctx, prod).entries == mat_mul(mf, mg)
                assert list(prod.coeffs) == poly_mulmod_naive(
                    ctx.phi_coeffs, f.coeffs, g.coeffs
                )


def test_07_norm_and_trace_laws(acceptance):
    rng = random.Random(707)
    with acceptance(7, "norm and trace laws"):
        for ctx in TEST_RINGS.values():
            for _ in range(200):
                f = ctx.element(rand_coeffs(rng, ctx.degree, 99))
                g = ctx.element(rand_coeffs(rng, ctx.degree, 99))
                assert norm(ctx, conv_mul(ctx, f, g)) == norm(ctx, f) * norm(ctx, g)
                assert trace(ctx, add(f, g)) == trace(ctx, f) + trace(ctx, g)
        # numeric route agrees on every degree up to 6
        for phi in ((2, 0), (1, 1, 0), (-1, -1, -1, -1), (-1,) * 6):
            ctx = make_ring(phi)
            for _ in range(50):
                f = rand_nonzero_element(rng, ctx, 50)
                assert numeric_norm_check(phi, f.coeffs, norm(ctx, f))


def test_08_hnf_canonical_form_batch(acceptance):
    rng = random.Random(808)
    with acceptance(8, "HNF canonical form batch", budget=60.0):
        for _ in range(500):
            n = rng.randrange(1, 7)
            m = rand_nonsingular(rng, n, 10**6)
            b = hnf(m)
            # shape: upper triangular, positive diagonal, reduced rows
            for i in range(n):
                assert b.entries[i][i] > 0
                for j in range(n):
                    if j < i:
                        assert b.entries[i][j] == 0
                    elif j > i:
                        assert 0 <= b.entries[i][j] < b.entries[i][i]
            prod = 1
            for d in b.diag:
                prod *= d
            assert prod == abs(determinant(m))
            u = rand_unimodular(rng, n)
            assert hnf(mat_mul(m, u)).entries == b.entries
            # mutual membership between the input and canonical bases
            for j in range(n):
                col = tuple(m[i][j] for i in range(n))
                assert reduce_mod_lattice(b, col) == (0,) * n
            for j in rng.sample(range(n), min(2, n)):
                col = tuple(b.entries[i][j] for i in range(n))
                assert is_lattice_member(m, col)


def test_09_coset_enumeration_matches_key_norms(acceptance):
    rng = random.Random(909)
    fields = [quadratic_field(2), quadratic_field(-1), quadratic_field(3)]
    with acceptance(9, "coset enumeration matches key norms", budget=60.0):
        keys = []
        attempts = 0
        while len(keys) < 50:
            attempts += 1
            assert attempts < 600, "could not collect 50 small keys"
            field = fields[attempts % len(fields)]
            try:
                pub, priv = keygen(
                    field, PrimeNormElementMode(coeff_bound=4), rng=rng
                )
            except ValueError as exc:
                # norm pair (2, 3) leaves totient 2 and no exponent
                if "no valid e" in str(exc):
                    continue
                raise
            box = coset_box(pub.lattice)
            if math.prod(box) <= 2000:
                keys.append((field, pub, priv, box))
        for field, pub, priv, box in keys:
            ctx = field.ring
            expected = abs(norm(ctx, priv.alpha)) * abs(norm(ctx, priv.beta))
            cosets = brute_force_cosets(pub.lattice.entries)
            assert len(cosets) == expected == math.prod(box)
            for point in cosets:
                assert reduce_mod_lattice(pub.lattice, point) == point
            n = len(pub.lattice.entries)
            for _ in range(20):
                v = tuple(rng.randrange(-40, 40) for _ in range(n))
                base = reduce_mod_lattice(pub.lattice, v)
                z = tuple(rng.randrange(-3, 4) for _ in range(n))
                shift = tuple(
                    sum(pub.lattice.entries[i][j] * z[j] for j in range(n))
                    for i in range(n)
                )
                moved = tuple(a + s for a, s in zip(v, shift))
                assert reduce_mod_lattice(pub.lattice, moved) == base


def test_10_naive_inert_box_is_complete_residue_system(acceptance):
    with acceptance(
        10, "naive inert box is a complete residue system", budget=1.0
    ):
        box = coset_box_naive(SQRT2_FIELD, 3, 5)
        assert box == (15, 15)
        points = set(itertools.product(range(15), range(15)))
        assert len(points) == 225
        walked = brute_force_cosets(((15, 0), (0, 15)))
        assert set(walked) == points


def test_11_rotation_maps_ideal_lattices_into_themselves(acceptance):
    rng = random.Random(1111)
    rings = list(TEST_RINGS.values())
    with acceptance(11, "rotation maps ideal lattices into themselves"):
        for _ in range(100):
            ctx = rng.choice(rings)
            n = ctx.degree
            h = companion_matrix(ctx.phi_coeffs)
            f = rand_nonzero_element(rng, ctx, 9)
            basis = hnf(ideal_matrix(ctx, f).entries)
            for j in range(n):
                col = tuple(basis.entries[i][j] for i in range(n))
                rotated = tuple(
                    sum(h[i][k] * col[k] for k in range(n))
                    for i in range(n)
                )
                assert reduce_mod_lattice(basis, rotated) == (0,) * n
