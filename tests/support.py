"""Helpers shared across test modules."""

from ringrsa.lattice import HnfBasis, determinant, reduce_mod_lattice
from ringrsa.ring import conv_mul, conv_multi_pow, conv_pow, ideal_matrix, make_ring
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


def add(f, g):
    """f + g coefficientwise; the library itself never adds ring elements."""
    if f.context != g.context:
        raise ValueError("context mismatch")
    return f.context.element(tuple(a + b for a, b in zip(f.coeffs, g.coeffs)))


def contains(basis, vector):
    """True when the vector is a lattice point: it reduces to the zero point."""
    return not any(reduce_mod_lattice(basis, vector))


def power_mod_lattice(ctx, f, k, basis):
    """f^k modulo the lattice of basis, in its box: conv_pow in
    (Z/m)[x]/(phi), m = basis.diag[0], then one reduce_mod_lattice.

    Exact for an ideal lattice L only: its corner m generates the
    integers in L, so L contains mR, and congruence mod L survives every
    product.
    """
    return reduce_mod_lattice(basis, conv_pow(ctx, f, k, basis.diag[0]).coeffs)


def multi_power_mod_lattice(ctx, bases, exponents, basis):
    """The product of bases[i] ** exponents[i] modulo an ideal lattice, in its box."""
    return reduce_mod_lattice(basis, conv_multi_pow(ctx, bases, exponents, basis.diag[0]).coeffs)


def scaled_identity(n, k):
    """k * I as an HnfBasis: the lattice of the ideal generated by k."""
    return HnfBasis(tuple(tuple(k * (i == j) for j in range(n)) for i in range(n)))


def trace(ctx, f):
    """Matrix trace of the ideal matrix of f."""
    return sum(row[i] for i, row in enumerate(ideal_matrix(ctx, f).entries))


def binary_ladder(ctx, f, m, basis):
    """f^m modulo the lattice of basis by the plain left-to-right binary
    ladder, reducing after every product.

    An independent reference for the library's windowed powers at
    exponents far beyond repeated multiplication.
    """
    acc = ctx.element(reduce_mod_lattice(basis, ctx.one().coeffs))
    for bit in bin(m)[2:]:
        acc = ctx.element(reduce_mod_lattice(basis, conv_mul(ctx, acc, acc).coeffs))
        if bit == "1":
            acc = ctx.element(reduce_mod_lattice(basis, conv_mul(ctx, acc, f).coeffs))
    return acc


def coset_box_naive(field, p, q):
    """Box with every radix p*q: the coset box of distinct inert primes."""
    if p == q:
        raise ValueError("p and q must be distinct")
    if not (is_probable_prime(p) and is_probable_prime(q)):
        raise ValueError("p and q must be prime")
    return (p * q,) * field.ring.degree


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
