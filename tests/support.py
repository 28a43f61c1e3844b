"""Helpers shared across test modules."""

from ringrsa import CosetBox, determinant, ideal_matrix, make_ring
from ringrsa.primes import is_probable_prime

# Rings the identity batches run over: two quadratics, a cubic, two
# quartics from cyclotomic minimal polynomials.  Keys are short labels
# for parametrized test ids.
TEST_RINGS = {
    "sqrt2": make_ring((2, 0)),
    "isqrt5": make_ring((-5, 0)),
    "cubic": make_ring((1, 1, 0)),
    "zeta5": make_ring((-1, -1, -1, -1)),
    "zeta8": make_ring((-1, 0, 0, 0)),
}


def rand_coeffs(rng, n, bound):
    return tuple(rng.randrange(-bound, bound + 1) for _ in range(n))


def rand_element(rng, ctx, bound=9):
    return ctx.element(rand_coeffs(rng, ctx.degree, bound))


def rand_nonzero_element(rng, ctx, bound=9):
    while True:
        coeffs = rand_coeffs(rng, ctx.degree, bound)
        if any(coeffs):
            return ctx.element(coeffs)


def companion_matrix(phi_coeffs):
    """Rotation matrix H of phi, from its definition: ones below the
    diagonal and (phi_0, ..., phi_{n-1}) added into the last column.

    The library never builds H, so tests of ideal matrices compare
    against this independent copy.
    """
    n = len(phi_coeffs)
    return tuple(
        tuple(int(j == i - 1) + (phi_coeffs[i] if j == n - 1 else 0) for j in range(n))
        for i in range(n)
    )


def trace(ctx, f):
    """Matrix trace of the ideal matrix of f."""
    return sum(row[i] for i, row in enumerate(ideal_matrix(ctx, f).entries))


def coset_box_naive(field, p, q):
    """Box with every radix p*q: the coset box of distinct inert primes."""
    if p == q:
        raise ValueError("p and q must be distinct")
    if not (is_probable_prime(p) and is_probable_prime(q)):
        raise ValueError("p and q must be prime")
    return CosetBox((p * q,) * field.ring.degree)


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_pow(a, k):
    n = len(a)
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def rand_unimodular(rng, n, steps=None):
    """Determinant +-1 integer matrix built from elementary column ops.

    Multipliers stay small so products with 10**6-entry matrices do not
    blow up coefficient sizes.
    """
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    if steps is None:
        steps = 4 * n
    for _ in range(steps):
        op = rng.randrange(3)
        j = rng.randrange(n)
        k = rng.randrange(n)
        if op == 0 and j != k:
            m = rng.choice((-3, -2, -1, 1, 2, 3))
            cols[j] = [a + m * b for a, b in zip(cols[j], cols[k])]
        elif op == 1:
            cols[j], cols[k] = cols[k], cols[j]
        else:
            cols[j] = [-a for a in cols[j]]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def rand_nonsingular(rng, n, bound):
    while True:
        rows = tuple(
            tuple(rng.randrange(-bound, bound + 1) for _ in range(n))
            for _ in range(n)
        )
        if determinant(rows) != 0:
            return rows
