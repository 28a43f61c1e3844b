"""Mutated key and ciphertext files: typed errors, one error line, bounded time.

Each example takes a valid file and drops, duplicates or truncates lines,
injects characters (a raw 0xff byte among them), sets a number to 0, -1
or a 300- or 4000-digit value, or swaps the field spec.  The parsers may
only raise their own error type, and the CLI may only exit with a code
its module docstring documents for the command, printing exactly one
`error:` line when it fails.  A mutated ciphertext that decrypts to other
bytes is textbook RSA, not a fault, so nothing is asserted about output.
Fixed hostile keys, which mutation would not find, must each exit 2.
"""

import contextlib
import io
import math
import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringrsa import (
    CiphertextFormatError,
    InertPrimeMode,
    KeyFileError,
    PrimeNormElementMode,
    PublicKey,
    coset_box,
    encode_bytes,
    encrypt_block,
    keygen,
    parse_field_spec,
)
from ringrsa.cli import main
from ringrsa.fields import _KEY_BUDGET_BITS
from ringrsa.keyfiles import (
    fingerprint,
    parse_ciphertext,
    parse_private,
    parse_public,
    render_ciphertext,
    render_private,
    render_public,
)
from ringrsa.lattice import HnfBasis, hnf
from ringrsa.primes import is_probable_prime
from ringrsa.ring import conv_mul, ideal_matrix
from oracles import ideal_hnf

# Exit codes the cli module docstring documents, by command.
EXIT_CODES = {"encrypt": {0, 2, 5}, "decrypt": {0, 2, 4, 5, 6}, "inspect": {0, 1, 2}}
BUDGET_S = 2.0
PAYLOAD = b"fuzzed payload"

NUMBERS = ["0", "-1", "7" * 300, "9" * 4000]
FIELD_SPECS = [
    "quadratic:d=2",
    "quadratic:d=-5",
    "cyclotomic:m=16",
    "cyclotomic:m=256",  # degree 128
    "generic:phi=3,1,0,0,-1",
    "generic:phi=1" + "0" * 3998 + "7,1,1",
]
# "\udcff" is written to files as the raw byte 0xff, which is not UTF-8
INJECTED = ["=", ",", ";", "#", "\n", " ", "-", "x", "0", "\x00", "é", "٣", "\udcff"]


def key_texts(spec, mode, seed):
    pub, priv = keygen(parse_field_spec(spec), mode, rng=random.Random(seed))
    blocks = [
        encrypt_block(pub, b).vector.coeffs for b in encode_bytes(coset_box(pub.lattice), PAYLOAD)
    ]
    return render_public(pub), render_private(priv, pub.e), render_ciphertext(fingerprint(pub), blocks)


def dense_degree_128_public():
    """A public key over a dense generic degree-128 phi: encrypt builds its kernels."""
    rng = random.Random(128)
    phi = [1] + [rng.randrange(-3, 4) for _ in range(127)]
    field = parse_field_spec("generic:phi=" + ",".join(map(str, phi)))
    p = (1 << 61) - 1
    lattice = HnfBasis(tuple(tuple(p * (i == j) for j in range(128)) for i in range(128)))
    return render_public(PublicKey(field, lattice, 65537))


# (public, private, ciphertext) texts of a degree-2 and a degree-8 key pair
KEYS = {
    "q2-inert": key_texts("quadratic:d=2", InertPrimeMode(bits=20), 1),
    "c16-element": key_texts("cyclotomic:m=16", PrimeNormElementMode(coeff_bound=100), 2),
}
PUBLIC_TEXTS = [pub for pub, _, _ in KEYS.values()] + [dense_degree_128_public()]


@st.composite
def mutated(draw, text):
    """text after one to three random mutations."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        kind = draw(st.sampled_from(["drop", "duplicate", "truncate", "inject", "number", "field"]))
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, line)
        elif kind == "truncate":
            lines[i] = line[: draw(st.integers(0, len(line)))]
        elif kind == "inject":
            pos = draw(st.integers(0, len(line)))
            lines[i] = line[:pos] + draw(st.sampled_from(INJECTED)) + line[pos:]
        elif kind == "number":
            parts = re.split(r"([ ,;])", line)
            numeric = [k for k, part in enumerate(parts) if part.lstrip("-").isdigit()]
            if numeric:
                parts[draw(st.sampled_from(numeric))] = draw(st.sampled_from(NUMBERS))
                lines[i] = "".join(parts)
        else:
            spec = draw(st.sampled_from(FIELD_SPECS))
            lines = [f"field = {spec}" if x.startswith("field =") else x for x in lines]
    return "\n".join(lines) + "\n"


def timed(fn, *args):
    start = time.monotonic()
    out = fn(*args)
    assert time.monotonic() - start < BUDGET_S
    return out


def parse_or_refuse(parse, error, text):
    with contextlib.suppress(error):
        timed(parse, text)


@given(st.sampled_from(PUBLIC_TEXTS), st.data())
def test_parse_public(text, data):
    parse_or_refuse(parse_public, KeyFileError, data.draw(mutated(text)))


@given(st.sampled_from(list(KEYS.values())), st.data())
def test_parse_private(texts, data):
    parse_or_refuse(parse_private, KeyFileError, data.draw(mutated(texts[1])))


@given(st.sampled_from(list(KEYS.values())), st.data())
def test_parse_ciphertext(texts, data):
    parse_or_refuse(parse_ciphertext, CiphertextFormatError, data.draw(mutated(texts[2])))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "payload").write_bytes(PAYLOAD)
    return path


def write(path, text):
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return str(path)


def run_cli(command, *args):
    """main(argv) with stdout and stderr captured; checks the exit code and error line,
    and returns the code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = timed(main, [command, *args])
    assert code in EXIT_CODES[command]
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    return code


@given(st.sampled_from(PUBLIC_TEXTS), st.data())
def test_cli_encrypt(workdir, text, data):
    pub = write(workdir / "enc.pub", data.draw(mutated(text)))
    run_cli("encrypt", "--pub", pub, "--in", str(workdir / "payload"), "--out", str(workdir / "enc.ct"))


@given(st.sampled_from(list(KEYS.values())), st.booleans(), st.data())
def test_cli_decrypt(workdir, texts, mutate_key, data):
    _, priv_text, ct_text = texts
    priv = write(workdir / "dec.priv", data.draw(mutated(priv_text)) if mutate_key else priv_text)
    ct = write(workdir / "dec.ct", ct_text if mutate_key else data.draw(mutated(ct_text)))
    run_cli("decrypt", "--priv", priv, "--in", ct, "--out", str(workdir / "dec.out"))


@given(st.sampled_from(list(KEYS.values())), st.booleans(), st.data())
def test_cli_inspect_verify(workdir, texts, mutate_public, data):
    pub_text, priv_text, _ = texts
    pub = write(workdir / "ins.pub", data.draw(mutated(pub_text)) if mutate_public else pub_text)
    priv = write(workdir / "ins.priv", priv_text if mutate_public else data.draw(mutated(priv_text)))
    run_cli("inspect", "--pub", pub, "--priv", priv, "--verify")


def public_text(spec, rows, e=65537):
    return render_public(PublicKey(parse_field_spec(spec), HnfBasis(rows), e))


def scalar_public(bits):
    """quadratic:d=-1, the ideal m I with m = 2^bits - 1: 2 bits bits on the diagonal."""
    m = (1 << bits) - 1
    return public_text("quadratic:d=-1", ((m, 0), (0, m)))


def product_public(spec, alpha, beta):
    """The lattice of (alpha * beta), by the HNF oracle, as a public key file."""
    ctx = parse_field_spec(spec).ring
    product = conv_mul(ctx, ctx.element(alpha), ctx.element(beta))
    return public_text(spec, hnf(ideal_matrix(ctx, product).entries).entries)


def two_root_public(bits):
    """cyclotomic:m=256, the ideal (m, (x - r_a)(x - r_b)) of diagonal (m, m, 1, ..., 1),
    the shape of an equal-norm key, with m a product of 40-bit primes = 1 mod 256.

    With m of about 8000 bits parse_public once admitted this shape, and one
    block took 4.0 s to encrypt."""
    rng = random.Random(256)
    m, r_a, r_b = 1, 0, 0
    while m.bit_length() < bits:
        p = 256 * rng.randrange(1 << 31, 1 << 32) + 1
        if m % p == 0 or not is_probable_prime(p):
            continue
        z = pow(rng.randrange(2, p), (p - 1) // 256, p)  # a root of x^128 + 1 if z^128 = -1
        if pow(z, 128, p) != p - 1:
            continue
        inv = pow(m, -1, p)
        r_a, r_b = (r + m * ((root - r) * inv % p) for r, root in ((r_a, z), (r_b, z**3 % p)))
        m *= p
    return public_text("cyclotomic:m=256", ideal_hnf(128, m, (-r_a * r_b % m, r_a + r_b)))


def skew_diagonal_public():
    """Degree 128, diagonal (10^3999 + 7, 2, 1, ..., 1): inside the budget, but no key ideal,
    and a block under it took seconds to encrypt before parse_public refused it."""
    diag = (10**3999 + 7, 2) + (1,) * 126
    return public_text("cyclotomic:m=256", tuple(
        tuple(c * (i == j) for j in range(128)) for i, c in enumerate(diag)
    ))


def oversize_norm_private():
    """alpha of a norm near 16 000 bits beside 1 + 2i: the sum of the two norm
    bounds is within the budget, but one norm's BPSW alone would take seconds."""
    a, b = 1 << 7999, (1 << 7999) + 1
    while math.gcd(a * a + b * b, math.prod(range(1, 1000, 2))) != 1:
        b += 2
    return "".join([
        "format_version = 1\n", "role = private\n", "field = quadratic:d=-1\n",
        f"alpha = {a},{b}\n", "beta = 1,2\n", "d = 3\n", "e = 3\n",
    ])


REFUSED_PUBLIC = {
    # x = 3 modulo the lattice, and phi(3) = 10 is not 0 mod 15
    "not-an-ideal": lambda: public_text("quadratic:d=-1", ((15, 12), (0, 1)), 7),
    "not-a-key-shape": skew_diagonal_public,
    "corner-over-budget": lambda: scalar_public(_KEY_BUDGET_BITS // 2 + 1),
    # the totient follows from either lattice: 3 (7, x - 4) of the scalar 3
    # beside 3 + sqrt(2), and (11, 11, 1, 1) of two elements of norm 11
    "mixed": lambda: product_public("quadratic:d=2", (3, 0), (3, 1)),
    "equal-norm": lambda: product_public("cyclotomic:m=5", (1, 2, 0, 0), (2, 1, 0, 0)),
    "equal-norm-degree-128": lambda: two_root_public(8001),
}


@pytest.mark.parametrize("name", REFUSED_PUBLIC)
def test_cli_refuses_hostile_public_keys(workdir, name):
    pub = write(workdir / "bad.pub", REFUSED_PUBLIC[name]())
    code = run_cli("encrypt", "--pub", pub, "--in", str(workdir / "payload"),
                   "--out", str(workdir / "bad.ct"))
    assert code == 2


def test_cli_encrypts_under_a_corner_at_the_budget(workdir):
    pub = write(workdir / "edge.pub", scalar_public(_KEY_BUDGET_BITS // 2))
    code = run_cli("encrypt", "--pub", pub, "--in", str(workdir / "payload"),
                   "--out", str(workdir / "edge.ct"))
    assert code == 0


def test_cli_refuses_an_oversize_norm(workdir):
    assert run_cli("inspect", "--priv", write(workdir / "bad.priv", oversize_norm_private())) == 2
