"""Line-oriented text serialization for keys and ciphertexts.

Files are UTF-8 with LF newlines, one `name = value` pair per line, in a
fixed field order, with no timestamps, so a file is a deterministic
function of its contents.  Lines starting with `#` are comments and are
ignored by the parsers; the canonical public rendering (the data lines
only) feeds the SHA-256 key fingerprint, of which the first 16 hex digits
are stored inside ciphertext files.  Vectors are comma-separated integers
and matrices are semicolon-separated rows.
"""

from __future__ import annotations

import hashlib
import sys

from .errors import CiphertextFormatError, KeyFileError
from .fields import _check_norm_budget, ideal_lattice, parse_field_spec
from .scheme import PrivateKey, PublicKey, _check_e, _exponent_fault

__all__ = [
    "FORMAT_VERSION",
    "CIPHERTEXT_MAGIC",
    "render_public",
    "parse_public",
    "render_private",
    "parse_private",
    "fingerprint",
    "render_ciphertext",
    "parse_ciphertext",
]

FORMAT_VERSION = 1
CIPHERTEXT_MAGIC = "ringrsa-ciphertext-v1"


def _render_vector(coeffs) -> str:
    try:
        return ",".join(map(str, coeffs))
    except ValueError:  # past the int-to-str digit limit, which int() obeys on parse too
        limit = sys.get_int_max_str_digits()
        raise KeyFileError(
            f"key too large for a key file: integers are limited to {limit} decimal digits"
        ) from None


def _render_int(n: int) -> str:
    return _render_vector((n,))


def _render_matrix(rows) -> str:
    return ";".join(_render_vector(row) for row in rows)


def _parse_vector(text: str, name: str, n: int) -> tuple[int, ...]:
    try:
        vec = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"field {name!r} is not an integer vector") from None
    if len(vec) != n:
        raise ValueError(f"field {name!r} does not match the field degree {n}")
    return vec


def _parse_matrix(text: str, name: str, n: int) -> tuple[tuple[int, ...], ...]:
    rows = text.split(";")
    if len(rows) != n:
        raise ValueError(f"field {name!r} does not match the field degree {n}")
    return tuple(_parse_vector(row, name, n) for row in rows)


def _parse_pairs(
    text: str, expected: tuple[str, ...], what: str, error=KeyFileError, repeated=None
) -> tuple[dict[str, str], list[tuple[int, str]]]:
    """The fields named in expected, once each, and the (line, value) rows of repeated."""
    pairs: dict[str, str] = {}
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise error(f"{what}: line {lineno} is not 'name = value'")
        name, value = name.strip(), value.strip()
        if name == repeated:
            rows.append((lineno, value))
            continue
        if name not in expected:
            raise error(f"{what}: unknown field on line {lineno}")
        if name in pairs:
            raise error(f"{what}: duplicate field {name!r}")
        pairs[name] = value
    missing = [name for name in expected if name not in pairs]
    if missing:
        raise error(f"{what}: missing field {missing[0]!r}")
    return pairs, rows


def _parse_int(pairs: dict[str, str], name: str, what: str) -> int:
    try:
        return int(pairs[name])
    except ValueError:
        raise KeyFileError(f"{what}: field {name!r} is not an integer") from None


def _check_version(pairs: dict[str, str], what: str) -> None:
    if _parse_int(pairs, "format_version", what) != FORMAT_VERSION:
        raise KeyFileError(f"{what}: unsupported format version")


_PUBLIC_FIELDS = ("format_version", "role", "field", "lattice", "e")
_PRIVATE_FIELDS = ("format_version", "role", "field", "alpha", "beta", "d", "e")


def render_public(pub: PublicKey) -> str:
    lines = [
        f"format_version = {FORMAT_VERSION}",
        "role = public",
        f"field = {pub.field.spec_string()}",
        f"lattice = {_render_matrix(pub.lattice.entries)}",
        f"e = {_render_int(pub.e)}",
    ]
    return "\n".join(lines) + "\n"


def parse_public(text: str) -> PublicKey:
    """The public key, if fields.ideal_lattice admits its lattice and 2 <= e < det."""
    pairs, _ = _parse_pairs(text, _PUBLIC_FIELDS, "public key file")
    _check_version(pairs, "public key file")
    if pairs["role"] != "public":
        raise KeyFileError("public key file: wrong role")
    try:
        field = parse_field_spec(pairs["field"])
        matrix = _parse_matrix(pairs["lattice"], "lattice", field.ring.degree)
        lattice = ideal_lattice(field.ring, matrix)
        e = _parse_int(pairs, "e", "public key file")
        _check_e(e, lattice.diag)
        return PublicKey(field, lattice, e)
    except KeyFileError:
        raise
    except ValueError as exc:
        raise KeyFileError(f"public key file: {exc}") from None


def fingerprint(pub: PublicKey) -> str:
    """First 16 hex digits of SHA-256 over the canonical public rendering."""
    return hashlib.sha256(render_public(pub).encode()).hexdigest()[:16]


def render_private(priv: PrivateKey, e: int) -> str:
    lines = [
        f"format_version = {FORMAT_VERSION}",
        "role = private",
        f"field = {priv.field.spec_string()}",
        f"alpha = {_render_vector(priv.alpha.coeffs)}",
        f"beta = {_render_vector(priv.beta.coeffs)}",
        f"d = {_render_int(priv.d)}",
        f"e = {_render_int(e)}",
    ]
    return "\n".join(lines) + "\n"


def parse_private(text: str) -> tuple[PrivateKey, int]:
    """Rebuild the private key; returns it with the recorded public e.

    The key derives the totient, the lattice and eps from alpha and beta;
    a file is checked here, where it comes in, for alpha and beta whose
    norms fit the budget of fields._check_norm_budget, then by the
    admission rule (priv._eps), then for 1 <= d < phi, e * d = 1 (mod phi)
    and the bounds parse_public puts on e.  No lattice is built.
    """
    pairs, _ = _parse_pairs(text, _PRIVATE_FIELDS, "private key file")
    _check_version(pairs, "private key file")
    if pairs["role"] != "private":
        raise KeyFileError("private key file: wrong role")
    try:
        field = parse_field_spec(pairs["field"])
        ctx = field.ring
        alpha = ctx.element(_parse_vector(pairs["alpha"], "alpha", ctx.degree))
        beta = ctx.element(_parse_vector(pairs["beta"], "beta", ctx.degree))
        _check_norm_budget(ctx, alpha, beta)
        d = _parse_int(pairs, "d", "private key file")
        e = _parse_int(pairs, "e", "private key file")
        priv = PrivateKey(field, alpha, beta, d)
        priv._eps  # the admission rule
        fault = _exponent_fault(priv, e)
        if fault:
            raise KeyFileError(f"private key file: {fault}")
        _check_e(e, (prime.norm_abs for prime in priv._primes))  # as parse_public does
        return priv, e
    except KeyFileError:
        raise
    except ValueError as exc:
        raise KeyFileError(f"private key file: {exc}") from None


def render_ciphertext(fp: str, blocks) -> str:
    lines = [
        f"magic = {CIPHERTEXT_MAGIC}",
        f"fingerprint = {fp}",
        f"blocks = {len(blocks)}",
    ]
    lines.extend(f"block = {_render_vector(b)}" for b in blocks)
    return "\n".join(lines) + "\n"


def parse_ciphertext(text: str) -> tuple[str, list[tuple[int, ...]]]:
    header, rows = _parse_pairs(
        text, ("magic", "fingerprint", "blocks"), "ciphertext", CiphertextFormatError, "block"
    )
    if header["magic"] != CIPHERTEXT_MAGIC:
        raise CiphertextFormatError("ciphertext: bad magic")
    try:
        declared = int(header["blocks"])
    except ValueError:
        raise CiphertextFormatError("ciphertext: bad block count") from None
    if declared != len(rows):  # before the rows are parsed
        raise CiphertextFormatError("ciphertext: block count mismatch")
    blocks: list[tuple[int, ...]] = []
    for lineno, value in rows:
        try:
            blocks.append(tuple(map(int, value.split(","))))
        except ValueError:
            raise CiphertextFormatError(f"ciphertext: bad block on line {lineno}") from None
    if len({len(b) for b in blocks}) > 1:
        raise CiphertextFormatError("ciphertext: ragged blocks")
    return header["fingerprint"], blocks
