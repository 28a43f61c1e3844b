"""Independent reference implementations used only by the test suite.

Nothing here imports the production modules, and none of the algorithms
share a code path with them: polynomial reduction is generic monic long
division instead of power substitution, determinants come from Laplace
expansion instead of fraction-free elimination, coset counting walks the
quotient group instead of back-substituting, and the norm cross-check is
numeric.  Tests compare production output against these routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "OracleInconclusive",
    "ComplexEmbedding",
    "poly_mulmod_naive",
    "laplace_determinant",
    "adjugate",
    "is_lattice_member",
    "brute_force_cosets",
    "ideal_hnf",
    "embed_roots",
    "numeric_norm_check",
    "euler_inert",
    "inert_search_primality_first",
]

_COSET_CAPACITY_BOUND = 2000
_ROOT_RESIDUAL_REL = 1e-6
_NORM_REL_TOL = 1e-6


class OracleInconclusive(Exception):
    """The numeric route could not certify anything either way."""


def poly_mulmod_naive(
    phi: Sequence[int], f: Sequence[int], g: Sequence[int]
) -> list[int]:
    """Schoolbook product followed by long division by the full modulus.

    phi holds (phi_0, ..., phi_{n-1}) of the monic modulus
    x^n - phi_{n-1} x^{n-1} - ... - phi_0, exactly as the production ring
    stores it, but the reduction here subtracts shifted copies of the
    explicit divisor polynomial.
    """
    n = len(phi)
    modulus = [-int(c) for c in phi] + [1]
    prod = [0] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            prod[i + j] += f[i] * g[j]
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        if c:
            shift = k - n
            for j in range(n + 1):
                prod[shift + j] -= c * modulus[j]
    return prod[:n]


def laplace_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Cofactor expansion along the first row; exponential, tiny n only."""
    n = len(rows)

    def expand(r: int, cols: tuple[int, ...]) -> int:
        if len(cols) == 1:
            return rows[r][cols[0]]
        total = 0
        sign = 1
        for idx, c in enumerate(cols):
            v = rows[r][c]
            if v:
                total += sign * v * expand(r + 1, cols[:idx] + cols[idx + 1 :])
            sign = -sign
        return total

    return expand(0, tuple(range(n)))


def adjugate(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(rows)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = laplace_determinant(minor) if minor else 1
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def is_lattice_member(basis: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Solve B x = v over the rationals and test that x is integral."""
    n = len(basis)
    aug = [[Fraction(basis[i][j]) for j in range(n)] + [Fraction(vector[i])] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            raise ValueError("singular basis")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col] / aug[col][col]
                for c in range(col, n + 1):
                    aug[r][c] -= factor * aug[col][c]
    return all(
        (aug[r][n] / aug[r][r]).denominator == 1 for r in range(n)
    )


def brute_force_cosets(basis: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Enumerate the diagonal box and certify it is a full residue system.

    Congruence classes are labelled exactly: adj(B) * v mod |det| is equal
    for two vectors precisely when their difference lies in the lattice.
    The walk from 0 along the unit-vector generators enumerates the whole
    quotient group, so the box is complete and pairwise incongruent iff
    its labels hit every walked label exactly once.
    """
    n = len(basis)
    if any(len(r) != n for r in basis):
        raise ValueError("basis must be square")
    diag = [basis[i][i] for i in range(n)]
    if any(b <= 0 for b in diag) or any(
        basis[i][j] for i in range(n) for j in range(i)
    ):
        raise ValueError("basis must be upper triangular with positive diagonal")
    capacity = 1
    for b in diag:
        capacity *= b
    if capacity > _COSET_CAPACITY_BOUND:
        raise ValueError("capacity overflow guard: box too large to enumerate")
    det = laplace_determinant(basis)
    assert abs(det) == capacity
    adj = adjugate(basis)
    mod = abs(det)

    def label(vec: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(adj[r][c] * vec[c] for c in range(n)) % mod for r in range(n))

    generators = [label([1 if c == k else 0 for c in range(n)]) for k in range(n)]
    seen = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        current = frontier.pop()
        for gen in generators:
            nxt = tuple((a + b) % mod for a, b in zip(current, gen))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)

    box = [tuple(p) for p in itertools.product(*(range(b) for b in diag))]
    labels = {label(p) for p in box}
    if len(labels) != len(box):
        raise AssertionError("box points are not pairwise incongruent")
    if labels != seen:
        raise AssertionError("box does not exhaust the residue classes")
    return box


def ideal_hnf(n: int, m: int, rule: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Rows of the Hermite normal form of the ideal (m, g) of Z[x]/(phi).

    g = x^k - (rule_0 + rule_1 x + ... + rule_{k-1} x^{k-1}) divides phi
    modulo m.  The diagonal is m (k times), then 1; column j >= k is
    x^j - (x^j mod g), which lies in the ideal, with its top k rows % m,
    x^j mod g taken by one shift and one substitution of x^k per j.
    rule = phi gives m I, and rule = (r,) gives (m, x - r).
    """
    k = len(rule)
    rows = [[m * (i == j) for j in range(k)] for i in range(k)]
    power = [0] * (k - 1) + [1]  # x^(k-1) mod g
    for _ in range(k, n):
        top = power[-1]
        power = [(low + top * c) % m for low, c in zip([0] + power[:-1], rule)]
        for row, c in zip(rows, power):
            row.append(-c % m)
    rows += [[int(i == j) for j in range(n)] for i in range(k, n)]
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class ComplexEmbedding:
    roots: tuple[complex, ...]
    residual_bound: float


def embed_roots(phi: Sequence[int]) -> ComplexEmbedding:
    """Roots of the modulus via companion-matrix eigenvalues (numpy)."""
    import numpy as np

    descending = [1.0] + [-float(c) for c in reversed(phi)]
    roots = np.roots(descending)
    bound = _ROOT_RESIDUAL_REL * (1.0 + max(abs(c) for c in descending))
    worst = 0.0
    for theta in roots:
        value = complex(1.0)
        for c in reversed(phi):
            value = value * theta - c
        worst = max(worst, abs(value))
    if worst > bound:
        raise OracleInconclusive(f"root residual {worst:g} too large")
    return ComplexEmbedding(tuple(complex(t) for t in roots), worst)


def numeric_norm_check(
    phi: Sequence[int], f: Sequence[int], exact_det: int
) -> bool:
    """Compare the conjugate product of f against the claimed determinant.

    The product over all roots theta of f(theta) must match exact_det to
    relative 1e-6.  Raises OracleInconclusive when the roots themselves
    cannot be trusted to that accuracy.
    """
    emb = embed_roots(phi)
    product = complex(1.0)
    for theta in emb.roots:
        value = complex(0.0)
        for c in reversed(f):
            value = value * theta + c
        product *= value
    tolerance = _NORM_REL_TOL * max(1.0, abs(exact_det))
    return abs(product - exact_det) <= tolerance


# the first 12 primes: Miller-Rabin to these bases is exact below 3.3 * 10**24
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def euler_inert(d: int, p: int) -> bool:
    """Euler's criterion: d is a quadratic non-residue mod the odd prime p."""
    return p != 2 and pow(d % p, (p - 1) // 2, p) == p - 1


def _largest_unit_order(p: int, m: int) -> bool:
    """p is a unit mod m whose order is the largest of any unit's, by walking."""

    def order(a: int) -> int:
        x, k = a % m, 1
        while x != 1:
            x, k = x * a % m, k + 1
        return k

    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    return math.gcd(p, m) == 1 and order(p) == max(map(order, units))


def inert_search_primality_first(
    kind: str, param: int, bits: int, rng, exclude: int | None = None, attempts: int = 10**5
) -> int | None:
    """The inert prime search with the primality test before the residue test.

    Each attempt draws one candidate from rng and keeps it when it is not
    exclude, is prime (Miller-Rabin) and is inert: Euler's criterion for
    quadratic:d=param, the largest unit order mod m for cyclotomic:m=param.
    Returns the prime, or None when the attempts run out.
    """
    lo, hi = 1 << (bits - 1), 1 << bits
    inert = euler_inert if kind == "quadratic" else lambda m, p: _largest_unit_order(p, m)
    for _ in range(attempts):
        cand = rng.randrange(lo, hi)
        if cand != exclude and _miller_rabin(cand) and inert(param, cand):
            return cand
    return None
