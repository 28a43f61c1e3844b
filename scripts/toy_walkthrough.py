#!/usr/bin/env python3
"""Walk the smallest interesting key end to end and print every object.

Field Q(sqrt(2)), rational primes 3 and 5, public exponent 5.  Useful for
checking any reimplementation by hand: all numbers fit on one screen.
"""

import math

from ringrsa import (
    PrimeElement,
    decrypt_block,
    encrypt_block,
    keypair_from_primes,
    quadratic_field,
)
from ringrsa.ring import conv_mul, ideal_matrix


def show_matrix(name, rows):
    print(f"{name}:")
    for row in rows:
        print("   ", " ".join(f"{x:4d}" for x in row))


def main():
    field = quadratic_field(2)
    ctx = field.ring
    print(f"field: {field.spec_string()}   minimal polynomial x^2 - 2")
    # H is the ideal matrix of x: multiplication by x in the ring
    show_matrix("rotation matrix H", ideal_matrix(ctx, ctx.element((0, 1))).entries)

    alpha = PrimeElement(ctx.element((3, 0)))
    beta = PrimeElement(ctx.element((5, 0)))
    gamma = conv_mul(ctx, alpha.element, beta.element)
    print(f"\nalpha = {alpha.element.coeffs}  |N| = {alpha.norm_abs}")
    print(f"beta  = {beta.element.coeffs}  |N| = {beta.norm_abs}")
    print(f"alpha x beta = {gamma.coeffs}")
    show_matrix("ideal matrix of the product", ideal_matrix(ctx, gamma).entries)

    pub, priv = keypair_from_primes(field, alpha, beta, e_choice=5)
    show_matrix("public HNF lattice", pub.lattice.entries)
    box = pub.lattice.diag
    print(f"coset box radices: {box}  ({math.prod(box)} messages)")
    print(f"totient = {priv.phi}   e = {pub.e}   d = {priv.d}")

    message = (1, 1)
    ct = encrypt_block(pub, message)
    back = decrypt_block(priv, ct.vector.coeffs)
    print(f"\nencrypt{message} = {ct.vector.coeffs}")
    print(f"decrypt{ct.vector.coeffs} = {back.coeffs}")

    print("\nfirst box points under encryption:")
    for a in range(4):
        for b in range(4):
            c = encrypt_block(pub, (a, b)).vector.coeffs
            print(f"  ({a},{b}) -> {c}")


if __name__ == "__main__":
    main()
