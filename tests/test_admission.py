"""Which private keys parse: those for which RSA decrypts the whole box, and
whose public lattice does not give the totient away.

A key is admitted when alpha and beta, two scalars or two elements,
generate prime ideals P and Q over rational primes p != q, with R/P and
R/Q fields, or for a scalar p products of fields F_{p^f} with f | n (the
admission rule, scheme._admit).  The sweep builds
every small key of six fields: keypair_from_primes and parse_private
admit the same keys, parse_public admits each one's lattice, and each
one admitted must decrypt every point of its box; the generic lattice
power is the oracle.
"""

import itertools
import math

import pytest

from ringrsa import (
    PrimeElement,
    PrivateKey,
    decrypt_block,
    encrypt_block,
    keypair_from_primes,
    parse_field_spec,
)
from ringrsa.cli import main
from ringrsa.errors import KeyFileError
from ringrsa.keyfiles import parse_private, parse_public, render_private, render_public
from ringrsa.scheme import _select_e
from support import power_mod_lattice

BOX_LIMIT = 3000

# field: keys parse_private admits among the unordered pairs of distinct
# candidates whose box has at most BOX_LIMIT points
SWEEP = {
    "quadratic:d=2": 42,
    "quadratic:d=-1": 56,
    "quadratic:d=3": 61,
    "quadratic:d=-2": 34,
    "cyclotomic:m=5": 1,
    "generic:phi=2,0,0": 0,
}


def candidates(field):
    """The scalars 2, ..., 11, and in a quadratic field a + b sqrt(d) with
    |a| <= 4 and 1 <= b <= 3."""
    pad = (0,) * (field.ring.degree - 1)
    found = [(a,) + pad for a in range(2, 12)]
    if field.kind == "quadratic":
        found += [(a, b) for a in range(-4, 5) for b in range(1, 4)]
    return found


def key_pair(spec, alpha, beta):
    field = parse_field_spec(spec)
    ctx = field.ring
    return keypair_from_primes(
        field, PrimeElement(ctx.element(alpha)), PrimeElement(ctx.element(beta))
    )


def private_key_text(spec, alpha, beta):
    """The key file of (alpha, beta), built past the rule: PrivateKey plus d,
    with the e keypair_from_primes would choose (ValueError if none)."""
    field = parse_field_spec(spec)
    alpha, beta = field.ring.element(alpha), field.ring.element(beta)
    phi = PrivateKey(field, alpha, beta, 1).phi
    e = _select_e(phi, None)
    return render_private(PrivateKey(field, alpha, beta, pow(e, -1, phi)), e)


@pytest.mark.parametrize("spec", SWEEP)
def test_every_admitted_small_key_decrypts_its_whole_box(spec):
    field = parse_field_spec(spec)
    admitted = 0
    for va, vb in itertools.combinations(candidates(field), 2):
        try:
            text = private_key_text(spec, va, vb)
        except ValueError:  # no e
            continue
        try:
            parsed, _ = parse_private(text)
        except KeyFileError:
            parsed = None
        try:
            pub, priv = key_pair(spec, va, vb)
        except ValueError:  # the admission rule
            pub = None
        assert (parsed is None) == (pub is None), (va, vb)
        if pub is not None:
            assert parse_public(render_public(pub)) == pub, (va, vb)
        if pub is None or math.prod(pub.lattice.diag) > BOX_LIMIT:
            continue
        assert parsed == priv
        admitted += 1
        for msg in itertools.product(*(range(r) for r in pub.lattice.diag)):
            ct = encrypt_block(pub, msg).vector
            assert decrypt_block(parsed, ct.coeffs).coeffs == msg, (va, vb, msg)
            assert power_mod_lattice(field.ring, ct, parsed.d, parsed.lattice) == msg, (va, vb, msg)
    assert admitted == SWEEP[spec]


# hand-built keys that parsed before the admission rule and decrypted some
# of their box points wrongly, or whose public lattice gives the totient
# away: field, alpha, beta, the refusal
REFUSED = {
    "ramified-2": ("quadratic:d=2", (2, 0), (3, 0), "not a product of fields"),
    "composite-4": ("quadratic:d=-1", (4, 0), (3, 0), "is not prime"),
    "composite-6": ("quadratic:d=-1", (6, 0), (7, 0), "is not prime"),
    # 3 + sqrt(2) has norm 7, so both ideals lie over 7
    "scalar-beside-norm": ("quadratic:d=2", (7, 0), (3, 1), "not coprime"),
    "norm-14": ("quadratic:d=2", (4, 1), (5, 1), "is not prime"),
    "norm-34": ("quadratic:d=2", (6, 1), (5, 1), "is not prime"),
    # x^3 - 2 is square-free mod 5, but a linear times a quadratic factor
    "cube-root-2-split": ("generic:phi=2,0,0", (5, 0, 0), (11, 0, 0), "not a product of fields"),
    # the diagonal (21, 3) gives phi = (3^2 - 1)(7 - 1)
    "mixed": ("quadratic:d=2", (3, 0), (3, 1), "scalar beside an element"),
    # 2 + i and 2 - i, both of norm 5: the lattice 5 I gives phi = (5 - 1)^2
    "equal-norm": ("quadratic:d=-1", (2, 1), (2, -1), "equal norms"),
}


@pytest.mark.parametrize("command", ["decrypt", "inspect"])
@pytest.mark.parametrize("key", REFUSED)
def test_cli_refuses_keys_that_decrypt_wrongly(tmp_path, capsys, key, command):
    spec, alpha, beta, reason = REFUSED[key]
    priv_path = tmp_path / "bad.priv"
    priv_path.write_text(private_key_text(spec, alpha, beta))
    ct_path = tmp_path / "ct.txt"
    ct_path.write_text("")
    argv = {
        "decrypt": ["decrypt", "--priv", str(priv_path), "--in", str(ct_path),
                    "--out", str(tmp_path / "out.bin")],
        "inspect": ["inspect", "--priv", str(priv_path)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: private key file: ")
    assert captured.err.count("\n") == 1
    assert reason in captured.err


@pytest.mark.parametrize("key", REFUSED)
def test_keypair_from_primes_refuses_them_too(key):
    spec, alpha, beta, reason = REFUSED[key]
    with pytest.raises(ValueError, match=reason):
        key_pair(spec, alpha, beta)


def test_generic_key_over_inert_primes_roundtrips(tmp_path, capsys):
    # 2 is no cube mod 7 or mod 13, so x^3 - 2 is irreducible mod both
    pub, priv = key_pair("generic:phi=2,0,0", (7, 0, 0), (13, 0, 0))
    pub_path, priv_path = tmp_path / "k.pub", tmp_path / "k.priv"
    pub_path.write_text(render_public(pub))
    priv_path.write_text(render_private(priv, pub.e))
    payload = bytes(range(256)) * 3
    (tmp_path / "in.bin").write_bytes(payload)
    paths = [str(tmp_path / name) for name in ("in.bin", "ct.txt", "out.bin")]
    assert main(["encrypt", "--pub", str(pub_path), "--in", paths[0], "--out", paths[1]]) == 0
    assert main(["decrypt", "--priv", str(priv_path), "--in", paths[1], "--out", paths[2]]) == 0
    assert (tmp_path / "out.bin").read_bytes() == payload
    assert main(["inspect", "--pub", str(pub_path), "--priv", str(priv_path), "--verify"]) == 0
    assert "verify: OK" in capsys.readouterr().out
