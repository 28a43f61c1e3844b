"""Hermite normal forms of any full-rank integer lattice.

Basis vectors are matrix COLUMNS throughout the package.  The canonical
basis is the (column-style) Hermite normal form: upper triangular,
strictly positive diagonal, and every entry right of the diagonal reduced
to 0 <= b[i][j] < b[i][i].  It is unique per lattice, so basis equality is
lattice equality.  The box {x : 0 <= x[i] < b[i][i]} then holds exactly
one representative of every coset of Z^n modulo the lattice.

Key lattices are the ideals m I and (N, x - r), whose canonical basis,
an HnfBasis, fields writes by formula; HnfBasis lives there.  hnf, its
Bareiss determinant, _xgcd, coset_box and reduce_mod_lattice (the box point
by back substitution) work for any lattice; no command imports this module:
it stays for the benchmark's per-layer replay and as the tests' oracles.
"""

from __future__ import annotations

from collections.abc import Sequence

from .fields import HnfBasis

__all__ = [
    "HnfBasis",
    "hnf",
    "determinant",
    "coset_box",
    "reduce_mod_lattice",
]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with g = a*x + b*y and g = gcd(a, b) >= 0
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        g, ng = ng, g - q * ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Signed determinant by fraction-free (Bareiss) elimination, exact over Z.

    Callers wanting the lattice volume take abs().
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("matrix must be square")
    a = [list(r) for r in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                # exact by the Bareiss two-term recurrence
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def hnf(matrix: Sequence[Sequence[int]]) -> HnfBasis:
    """Hermite normal form of the lattice spanned by the matrix columns.

    Integer column elimination with extended-gcd pivoting, processing rows
    bottom-up.  Since |det| * e_i always lies in the lattice, those columns
    are fed into the elimination and every entry in a not-yet-pivoted row
    is reduced modulo |det|, which keeps intermediate growth bounded.
    """
    n = len(matrix)
    if n == 0 or any(len(r) != n for r in matrix):
        raise ValueError("basis matrix must be square and nonempty")
    det = determinant(matrix)
    if det == 0:
        raise ValueError("rank-deficient lattice")
    big_d = abs(det)

    active = [[row[j] for row in matrix] for j in range(n)]
    basis_cols: list[list[int] | None] = [None] * n
    for i in range(n - 1, -1, -1):
        extra = [0] * n
        extra[i] = big_d
        active.append(extra)
        pivot = None
        for col in active:
            if col[i] == 0:
                continue
            if pivot is None:
                pivot = col
                continue
            g, x, y = _xgcd(pivot[i], col[i])
            af, bf = pivot[i] // g, col[i] // g
            for r in range(i + 1):
                pr, cr = pivot[r], col[r]
                pivot[r] = x * pr + y * cr
                col[r] = af * cr - bf * pr
        assert pivot is not None
        if pivot[i] < 0:
            for r in range(i + 1):
                pivot[r] = -pivot[r]
        active = [c for c in active if c is not pivot]
        for col in active:
            for r in range(i):
                col[r] %= big_d
        for r in range(i):
            pivot[r] %= big_d
        basis_cols[i] = pivot

    cols = [c for c in basis_cols if c is not None]
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            q = cols[j][i] // cols[i][i]
            if q:
                for r in range(i + 1):
                    cols[j][r] -= q * cols[i][r]
    entries = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return HnfBasis(entries)


def coset_box(basis: HnfBasis) -> tuple[int, ...]:
    return basis.diag  # the radices of the box: one point per residue class


def reduce_mod_lattice(basis: HnfBasis, vector: Sequence[int]) -> tuple[int, ...]:
    """Canonical coset representative of vector inside the box.

    Back substitution from the last coordinate: at row i subtract the
    floor quotient of w[i] by b[i][i] times the i-th basis column, which
    leaves 0 <= w[i] < b[i][i] and changes only the rows above.
    """
    b = basis.entries
    if len(vector) != len(b):
        raise ValueError("vector length does not match the lattice dimension")
    w = list(vector)
    for i in reversed(range(len(b))):
        q, w[i] = divmod(w[i], b[i][i])
        if q:
            for r in range(i):
                w[r] -= q * b[r][i]
    return tuple(w)

