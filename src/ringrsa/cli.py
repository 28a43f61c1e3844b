"""Command line interface: keygen, encrypt, decrypt, inspect.

Exit codes: 0 success, 1 failed --verify, 2 bad flags or malformed input
files, 3 search exhaustion during keygen, 4 ciphertext/key fingerprint
mismatch, 5 modulus too small for the byte codec, 6 corrupt ciphertext.
All error text goes to stderr with an `error:` prefix.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from . import keyfiles
from .errors import (
    CapacityError,
    CiphertextFormatError,
    FingerprintMismatchError,
    KeyFileError,
    SearchExhaustedError,
)
from .fields import parse_field_spec
from .lattice import coset_box
from .scheme import (
    InertPrimeMode,
    PrimeNormElementMode,
    PublicKey,
    decode_blocks,
    decrypt_block,
    encode_bytes,
    encrypt_block,
    keygen,
    validate_keypair,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SEARCH_EXHAUSTED = 3
EXIT_FINGERPRINT = 4
EXIT_CAPACITY = 5
EXIT_CORRUPT = 6


def _parse_mode(spec: str):
    kind, sep, rest = spec.partition(":")
    name, eq, value = rest.partition("=")
    try:
        if sep and eq and kind == "inert" and name == "bits":
            return InertPrimeMode(int(value))
        if sep and eq and kind == "element" and name == "bound":
            return PrimeNormElementMode(int(value))
    except ValueError:
        pass
    raise ValueError(f"bad mode spec: {spec!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ringrsa")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--field", required=True, help="quadratic:d=<int> | cyclotomic:m=<int> | generic:phi=<csv>")
    p.add_argument("--mode", default="inert:bits=32", help="inert:bits=<int> | element:bound=<int>")
    p.add_argument("--e", type=int, default=None, help="public exponent override")
    p.add_argument("--seed", default=None, help="hex seed for deterministic key generation")
    p.add_argument("--pub", default="key.pub", help="public key output path")
    p.add_argument("--priv", default="key.priv", help="private key output path")

    p = sub.add_parser("encrypt", help="encrypt a file with a public key")
    p.add_argument("--pub", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("decrypt", help="decrypt a file with a private key")
    p.add_argument("--priv", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("inspect", help="describe key files")
    p.add_argument("--pub", default=None)
    p.add_argument("--priv", default=None)
    p.add_argument("--verify", action="store_true", help="check that the key pair matches")
    return parser


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_keygen(args) -> int:
    field = parse_field_spec(args.field)
    mode = _parse_mode(args.mode)
    comment = ""
    if args.seed is not None:
        seed = int(args.seed, 16)
        if seed < 0:
            raise ValueError("seed must not be negative")
        rng = random.Random(seed)
        comment = f"# rng = python-random-mt19937 seed=0x{seed:x}\n"
    else:
        rng = random.SystemRandom()
    pub, priv = keygen(field, mode, e_choice=args.e, rng=rng)
    pub_text = comment + keyfiles.render_public(pub)
    priv_text = comment + keyfiles.render_private(priv, pub.e)
    _write_text(args.pub, pub_text)
    _write_text(args.priv, priv_text)
    box = coset_box(pub.lattice)
    print(f"degree: {field.ring.degree}")
    print(f"modulus bits: {math.prod(box).bit_length()}")
    print(f"box radices: {','.join(map(str, box))}")
    print(f"fingerprint: {keyfiles.fingerprint(pub)}")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    pub = keyfiles.parse_public(_read_text(args.pub))
    with open(args.infile, "rb") as fh:
        payload = fh.read()
    blocks = [
        encrypt_block(pub, vec).vector.coeffs
        for vec in encode_bytes(coset_box(pub.lattice), payload)
    ]
    _write_text(args.outfile, keyfiles.render_ciphertext(keyfiles.fingerprint(pub), blocks))
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    priv, e = keyfiles.parse_private(_read_text(args.priv))
    fp, blocks = keyfiles.parse_ciphertext(_read_text(args.infile))
    derived = PublicKey(priv.field, priv.lattice, e)
    if fp != keyfiles.fingerprint(derived):
        raise FingerprintMismatchError("ciphertext fingerprint does not match the key")
    try:
        vectors = [decrypt_block(priv, block).coeffs for block in blocks]
    except ValueError as exc:
        raise CiphertextFormatError(str(exc)) from None
    payload = decode_blocks(coset_box(priv.lattice), vectors)
    with open(args.outfile, "wb") as fh:
        fh.write(payload)
    return EXIT_OK


def _describe_public(pub: PublicKey) -> None:
    print("role: public")
    print(f"field: {pub.field.spec_string()}")
    print(f"degree: {pub.field.ring.degree}")
    print(f"e: {pub.e}")
    print(f"hnf basis: {';'.join(','.join(str(x) for x in row) for row in pub.lattice.entries)}")
    print(f"box radices: {','.join(map(str, coset_box(pub.lattice)))}")
    print(f"fingerprint: {keyfiles.fingerprint(pub)}")


def _cmd_inspect(args) -> int:
    if args.pub is None and args.priv is None:
        raise KeyFileError("inspect needs --pub and/or --priv")
    pub = priv = None
    if args.pub is not None:
        pub = keyfiles.parse_public(_read_text(args.pub))
        _describe_public(pub)
    if args.priv is not None:
        priv, e = keyfiles.parse_private(_read_text(args.priv))
        print("role: private")
        print(f"field: {priv.field.spec_string()}")
        print(f"degree: {priv.field.ring.degree}")
        print(f"totient bits: {priv.phi.bit_length()}")
        print(f"box radices: {','.join(map(str, coset_box(priv.lattice)))}")
        print(f"fingerprint: {keyfiles.fingerprint(PublicKey(priv.field, priv.lattice, e))}")
        print(f"key class: {priv.key_class}")
        print(f"decrypt path: {priv.decrypt_path}")
    if args.verify:
        if pub is None or priv is None:
            raise KeyFileError("--verify needs both --pub and --priv")
        if not validate_keypair(pub, priv):
            _fail("key pair mismatch")
            return EXIT_VERIFY_FAILED
        print("verify: OK")
    return EXIT_OK


_COMMANDS = {
    "keygen": _cmd_keygen,
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except FingerprintMismatchError as exc:
        _fail(str(exc))
        return EXIT_FINGERPRINT
    except CapacityError as exc:
        _fail(str(exc))
        return EXIT_CAPACITY
    except CiphertextFormatError as exc:
        _fail(str(exc))
        return EXIT_CORRUPT
    except SearchExhaustedError as exc:
        _fail(str(exc))
        return EXIT_SEARCH_EXHAUSTED
    except (KeyFileError, ValueError, OSError) as exc:
        _fail(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
