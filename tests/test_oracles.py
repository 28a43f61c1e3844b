"""Sanity checks for the independent reference implementations."""

import ast
import pathlib
import random

import pytest

from ringrsa.ring import make_ring, norm
import oracles
from oracles import (
    adjugate,
    brute_force_cosets,
    embed_roots,
    is_lattice_member,
    laplace_determinant,
    numeric_norm_check,
    poly_mulmod_naive,
)


class TestPolyMulmod:
    def test_known_cases(self):
        assert poly_mulmod_naive((2, 0), (1, 1), (1, 1)) == [3, 2]
        assert poly_mulmod_naive((2, 0), (0, 1), (0, 1)) == [2, 0]
        assert poly_mulmod_naive((3,), (2,), (4,)) == [8]

    def test_cubic_modulus(self):
        # x * x^2 = x^3 = x + 1 in Z[x]/(x^3 - x - 1)
        assert poly_mulmod_naive((1, 1, 0), (0, 1, 0), (0, 0, 1)) == [1, 1, 0]

    def test_zero_operand(self):
        assert poly_mulmod_naive((2, 0), (0, 0), (5, 7)) == [0, 0]


class TestDeterminantAndAdjugate:
    def test_known_determinants(self):
        assert laplace_determinant(((5,),)) == 5
        assert laplace_determinant(((3, 2), (1, 3))) == 7
        assert laplace_determinant(((1, 2, 3), (4, 5, 6), (7, 8, 10))) == -3

    def test_adjugate_identity(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randrange(1, 5)
            m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            det = laplace_determinant(m)
            adj = adjugate(m)
            prod = [
                [sum(m[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert prod == [
                [det if i == j else 0 for j in range(n)] for i in range(n)
            ]


class TestLatticeMember:
    def test_known_memberships(self):
        basis = ((2, 1), (0, 3))  # columns (2,0) and (1,3)
        assert is_lattice_member(basis, (2, 0))
        assert is_lattice_member(basis, (1, 3))
        assert is_lattice_member(basis, (3, 3))
        assert not is_lattice_member(basis, (1, 0))
        assert not is_lattice_member(basis, (0, 1))

    def test_singular_basis_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            is_lattice_member(((1, 2), (2, 4)), (1, 1))


class TestBruteForceCosets:
    def test_diagonal_box(self):
        pts = brute_force_cosets(((15, 0), (0, 15)))
        assert len(pts) == 225
        assert set(pts) == {(i, j) for i in range(15) for j in range(15)}

    def test_skew_basis(self):
        pts = brute_force_cosets(((7, 3), (0, 1)))
        assert sorted(pts) == [(i, 0) for i in range(7)]

    def test_trivial_lattice(self):
        assert brute_force_cosets(((1, 0), (0, 1))) == [(0, 0)]

    def test_triangular_but_unreduced_basis(self):
        # the walk only needs upper triangular with positive diagonal
        assert len(brute_force_cosets(((2, 3), (0, 3)))) == 6

    def test_capacity_guard(self):
        with pytest.raises(ValueError, match="capacity"):
            brute_force_cosets(((50, 0), (0, 50)))

    def test_non_triangular_rejected(self):
        with pytest.raises(ValueError):
            brute_force_cosets(((3, 2), (1, 3)))


class TestNumericEmbedding:
    def test_sqrt2_roots(self):
        emb = embed_roots((2, 0))
        got = sorted(r.real for r in emb.roots)
        assert abs(got[0] + 2**0.5) < 1e-9
        assert abs(got[1] - 2**0.5) < 1e-9
        assert emb.residual_bound > 0

    def test_cyclotomic_roots_on_unit_circle(self):
        emb = embed_roots((-1, -1, -1, -1))
        assert len(emb.roots) == 4
        for r in emb.roots:
            assert abs(abs(r) - 1.0) < 1e-9

    def test_norm_check_known(self):
        assert numeric_norm_check((2, 0), (3, 1), 7)
        assert not numeric_norm_check((2, 0), (3, 1), 8)

    def test_norm_check_against_exact_norm(self):
        rng = random.Random(4)
        for phi in ((2, 0), (1, 1, 0), (-1, 0, 0, 0)):
            ctx = make_ring(phi)
            for _ in range(20):
                f = ctx.element(
                    tuple(rng.randrange(-30, 31) for _ in range(ctx.degree))
                )
                assert numeric_norm_check(phi, f.coeffs, norm(ctx, f))


def test_oracles_do_not_import_production_code():
    """The reference routes must stay independent of the library."""
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert not [m for m in imported if m.startswith(".") or m.split(".")[0] == "ringrsa"]
