"""Hermite normal form, coset boxes, and lattice reduction."""

import ast
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringrsa import KeyFileError, PublicKey, quadratic_field
from ringrsa.keyfiles import parse_public, render_public
from ringrsa.lattice import HnfBasis, coset_box, determinant, hnf, reduce_mod_lattice
from ringrsa.primes import is_probable_prime
from oracles import is_lattice_member, laplace_determinant
from support import contains, mat_mul, rand_nonsingular, rand_unimodular, scaled_identity

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ringrsa"
# computed for any matrix; key lattices come from fields.product_lattice,
# and their blocks are powered in (Z/m)[x]/(phi), with no box reduction;
# every product a command takes runs through the kernels, none over Z
ORACLE_ONLY = {"hnf", "determinant", "contains", "reduce_mod_lattice", "conv_mul", "ideal_matrix"}

dims = st.integers(min_value=1, max_value=4)
entries = st.integers(min_value=-40, max_value=40)


@st.composite
def square_matrices(draw, bound=entries):
    n = draw(dims)
    return tuple(
        tuple(draw(bound) for _ in range(n)) for _ in range(n)
    )


@st.composite
def nonsingular_matrices(draw, bound=entries):
    m = draw(square_matrices(bound).filter(lambda m: determinant(m) != 0))
    return m


class TestDeterminant:
    def test_known_values(self):
        assert determinant(((3, 2), (1, 3))) == 7
        assert determinant(((1, 2), (2, 4))) == 0
        assert determinant(((2, 0, 0), (0, 3, 0), (0, 0, 5))) == 30

    @given(square_matrices())
    def test_matches_laplace_expansion(self, m):
        assert determinant(m) == laplace_determinant(m)


class TestHnfBasis:
    def test_diag_and_dimension(self):
        b = HnfBasis(((7, 3), (0, 1)))
        assert len(b.entries) == 2
        assert b.diag == (7, 1)

    @pytest.mark.parametrize(
        "rows",
        [
            ((7, 3), (1, 1)),      # not upper triangular
            ((7, 3), (0, 0)),      # zero diagonal
            ((7, 3), (0, -1)),     # negative diagonal
            ((2, 3), (0, 3)),      # off-diagonal not reduced
            ((2, -1), (0, 3)),     # negative off-diagonal
            ((1, 2, 3), (0, 1, 2)),  # not square
        ],
    )
    def test_invalid_shapes_rejected(self, rows):
        # HnfBasis checks nothing; parse_public refuses these where a file comes in
        basis = HnfBasis(rows)
        assert basis.entries == rows
        with pytest.raises(KeyFileError):
            parse_public(render_public(PublicKey(quadratic_field(2), basis, 5)))


class TestHnf:
    def test_known_forms(self):
        assert hnf(((3, 2), (1, 3))).entries == ((7, 3), (0, 1))
        assert hnf(((1, 2), (1, 1))).entries == ((1, 0), (0, 1))
        assert hnf(((15, 0), (0, 15))).entries == ((15, 0), (0, 15))

    def test_negative_determinant_input(self):
        # det -7; the form keeps positive diagonal
        b = hnf(((1, 3), (3, 2)))
        assert b.entries == ((7, 5), (0, 1))
        assert determinant(b.entries) == 7

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            hnf(((1, 2), (2, 4)))

    @given(nonsingular_matrices())
    def test_determinant_preserved(self, m):
        b = hnf(m)
        prod = 1
        for d in b.diag:
            prod *= d
        assert prod == abs(determinant(m))

    @given(nonsingular_matrices())
    def test_columns_of_input_are_members(self, m):
        b = hnf(m)
        n = len(m)
        for j in range(n):
            col = tuple(m[i][j] for i in range(n))
            assert contains(b, col)
            assert is_lattice_member(m, col) is True

    @given(nonsingular_matrices(bound=st.integers(-15, 15)))
    def test_unimodular_column_ops_do_not_change_form(self, m):
        rng = random.Random(determinant(m))
        u = rand_unimodular(rng, len(m))
        assert hnf(mat_mul(m, u)).entries == hnf(m).entries

    def test_idempotent(self):
        b = hnf(((3, 2), (1, 3)))
        assert hnf(b.entries).entries == b.entries


class TestReduce:
    BASIS = HnfBasis(((7, 3), (0, 1)))

    def test_known_reduction(self):
        assert reduce_mod_lattice(self.BASIS, (1, 1)) == (5, 0)

    def test_lattice_points_reduce_to_zero(self):
        assert reduce_mod_lattice(self.BASIS, (7, 0)) == (0, 0)
        assert reduce_mod_lattice(self.BASIS, (3, 1)) == (0, 0)
        assert reduce_mod_lattice(self.BASIS, (-14, 0)) == (0, 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            reduce_mod_lattice(self.BASIS, (1, 2, 3))

    @given(nonsingular_matrices(), st.data())
    def test_reduction_lands_in_box_and_is_idempotent(self, m, data):
        b = hnf(m)
        n = len(b.entries)
        v = tuple(
            data.draw(st.integers(-10**6, 10**6)) for _ in range(n)
        )
        r = reduce_mod_lattice(b, v)
        assert all(0 <= r[i] < b.diag[i] for i in range(n))
        assert reduce_mod_lattice(b, r) == r
        diff = tuple(a - c for a, c in zip(v, r))
        assert contains(b, diff)
        assert is_lattice_member(b.entries, diff) is True

    @given(nonsingular_matrices(bound=st.integers(-9, 9)), st.data())
    def test_constant_on_cosets(self, m, data):
        b = hnf(m)
        n = len(b.entries)
        v = tuple(data.draw(st.integers(-50, 50)) for _ in range(n))
        z = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
        shift = tuple(
            sum(b.entries[i][j] * z[j] for j in range(n)) for i in range(n)
        )
        w = tuple(a + s for a, s in zip(v, shift))
        assert reduce_mod_lattice(b, w) == reduce_mod_lattice(b, v)

    def test_scaled_identity_reduces_each_coordinate(self):
        # the shape of the CRT path: a 512-bit prime p, products of two
        # reduced 4-coefficient vectors (about 1100 bits), either sign
        rng = random.Random(512)
        p = rng.getrandbits(512) | (1 << 511) | 1
        while not is_probable_prime(p):
            p += 2
        basis = scaled_identity(4, p)
        for _ in range(50):
            v = tuple(rng.randrange(-(1 << 1100), 1 << 1100) for _ in range(4))
            assert reduce_mod_lattice(basis, v) == tuple(c % p for c in v)


class TestMembershipAndEquality:
    def test_contains_known(self):
        b = HnfBasis(((15, 0), (0, 15)))
        assert contains(b, (15, 0))
        assert contains(b, (30, -15))
        assert not contains(b, (5, 0))
        assert not contains(b, (1, 1))

    def test_lattices_equal(self):
        a = hnf(((3, 2), (1, 3)))
        # columns (-3,-1) and (5,4): negated first generator and the sum
        b = hnf(((-3, 5), (-1, 4)))
        assert a == b
        c = hnf(((6, 4), (2, 6)))
        assert a != c

    @given(nonsingular_matrices(bound=st.integers(-12, 12)))
    def test_equality_matches_mutual_membership(self, m):
        rng = random.Random(sum(sum(r) for r in m) + len(m))
        a = hnf(m)
        b = hnf(mat_mul(m, rand_unimodular(rng, len(m))))
        assert a == b
        assert a.entries == b.entries
        doubled = hnf(tuple(tuple(2 * x for x in row) for row in m))
        assert a != doubled


class TestBoxRadices:
    def test_radices_are_diagonal(self):
        b = hnf(((3, 2), (1, 3)))
        assert coset_box(b) == b.diag == (7, 1)


def oracle_uses(source):
    """(scope, name) for each call or import of an ORACLE_ONLY name.

    The scope is the top-level function or class the use sits in, or None
    at module level.
    """
    found = set()
    for stmt in ast.parse(source).body:
        scope = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ORACLE_ONLY:
                    found.add((scope, name))
            elif isinstance(node, ast.ImportFrom):
                found |= {(scope, a.name) for a in node.names if a.name in ORACLE_ONLY}
    return found


class TestNoHnfInProduction:
    def test_only_hnf_calls_determinant(self):
        uses = {
            (path.name, scope, name)
            for path in sorted(SRC.glob("*.py"))
            for scope, name in oracle_uses(path.read_text(encoding="utf-8"))
        }
        assert uses == {
            ("lattice.py", "hnf", "determinant"), ("ring.py", "conv_mul", "ideal_matrix"),
        }

    def test_contains_left_the_package(self):
        from ringrsa import lattice

        assert not hasattr(lattice, "contains")

    @pytest.mark.parametrize(
        "source,use",
        [("x = hnf(m)", (None, "hnf")), ("def f():\n    lattice.determinant(m)", ("f", "determinant")),
         ("from .lattice import contains", (None, "contains"))],
    )
    def test_detector_flags(self, source, use):
        assert use in oracle_uses(source)
