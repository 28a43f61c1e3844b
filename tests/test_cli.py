"""End-to-end command line behavior, including exit codes."""

import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from ringrsa import PrimeElement, keypair_from_primes, parse_field_spec, quadratic_field
from ringrsa import cli
from ringrsa.cli import main
from ringrsa.errors import CiphertextFormatError
from ringrsa.keyfiles import fingerprint, parse_public, render_private, render_public

ROOT = pathlib.Path(__file__).resolve().parents[1]


def toy_key_files(tmp_path):
    field = quadratic_field(2)
    alpha = PrimeElement(field.ring.element((3, 0)))
    beta = PrimeElement(field.ring.element((5, 0)))
    pub, priv = keypair_from_primes(field, alpha, beta, e_choice=5)
    pub_path = tmp_path / "toy.pub"
    priv_path = tmp_path / "toy.priv"
    pub_path.write_text(render_public(pub))
    priv_path.write_text(render_private(priv, pub.e))
    return pub_path, priv_path, pub


def run_keygen(tmp_path, *extra, seed="0x2a"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    pub = tmp_path / "key.pub"
    priv = tmp_path / "key.priv"
    code = main(
        ["keygen", "--field", "quadratic:d=2", "--mode", "inert:bits=16",
         "--seed", seed, "--pub", str(pub), "--priv", str(priv), *extra]
    )
    return code, pub, priv


class TestKeygenCommand:
    def test_happy_path(self, tmp_path, capsys):
        code, pub_path, priv_path = run_keygen(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "degree: 2" in out
        assert "modulus bits:" in out
        assert "box radices:" in out
        pub = parse_public(pub_path.read_text())
        assert f"fingerprint: {fingerprint(pub)}" in out
        assert priv_path.exists()

    def test_seeded_runs_are_reproducible(self, tmp_path):
        _, pub_a, priv_a = run_keygen(tmp_path / "a")
        _, pub_b, priv_b = run_keygen(tmp_path / "b")
        assert pub_a.read_bytes() == pub_b.read_bytes()
        assert priv_a.read_bytes() == priv_b.read_bytes()
        _, pub_c, _ = run_keygen(tmp_path / "c", seed="0x2b")
        assert pub_c.read_bytes() != pub_a.read_bytes()

    def test_seed_recorded_as_comment(self, tmp_path):
        _, pub_path, priv_path = run_keygen(tmp_path)
        for path in (pub_path, priv_path):
            first = path.read_text().splitlines()[0]
            assert first == "# rng = python-random-mt19937 seed=0x2a"

    @pytest.mark.parametrize("seed", ["-1", "-0x2a"])
    def test_negative_seed_rejected(self, tmp_path, capsys, seed):
        # random.Random(-1) would silently seed with abs(-1)
        pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
        code = main(
            ["keygen", "--field", "quadratic:d=2", f"--seed={seed}",
             "--pub", str(pub), "--priv", str(priv)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: seed must not be negative\n"
        assert not pub.exists() and not priv.exists()

    def test_quartic_field(self, tmp_path, capsys):
        code = main(
            ["keygen", "--field", "cyclotomic:m=5", "--mode", "inert:bits=16",
             "--seed", "0x1", "--pub", str(tmp_path / "k.pub"),
             "--priv", str(tmp_path / "k.priv")]
        )
        assert code == 0
        assert "degree: 4" in capsys.readouterr().out

    def test_invalid_field_parameter(self, tmp_path, capsys):
        code = main(
            ["keygen", "--field", "quadratic:d=5",
             "--pub", str(tmp_path / "k.pub"), "--priv", str(tmp_path / "k.priv")]
        )
        assert code == 2
        assert "error: NC-property violated" in capsys.readouterr().err

    def test_undecidable_square_free_d(self, tmp_path, capsys):
        code = main(
            ["keygen", "--field", f"quadratic:d={2 * 1000003**2 * 1000033}",
             "--pub", str(tmp_path / "k.pub"), "--priv", str(tmp_path / "k.priv")]
        )
        assert code == 2
        assert "square-free" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,mode",
        [("nonsense", "inert:bits=16"), ("quadratic:d=2", "inert:count=3")],
    )
    def test_malformed_flags(self, tmp_path, capsys, field, mode):
        code = main(
            ["keygen", "--field", field, "--mode", mode,
             "--pub", str(tmp_path / "k.pub"), "--priv", str(tmp_path / "k.priv")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_search_exhaustion(self, tmp_path, capsys):
        # no prime below 4 is inert for d=3, so the search cannot finish
        code = main(
            ["keygen", "--field", "quadratic:d=3", "--mode", "inert:bits=2",
             "--seed", "0x1", "--pub", str(tmp_path / "k.pub"),
             "--priv", str(tmp_path / "k.priv")]
        )
        assert code == 3
        assert "search exhausted" in capsys.readouterr().err

    def test_explicit_exponent(self, tmp_path):
        code, pub_path, _ = run_keygen(tmp_path, "--e", "17")
        assert code == 0
        assert parse_public(pub_path.read_text()).e == 17

    def test_bad_exponent(self, tmp_path, capsys):
        code, *_ = run_keygen(tmp_path, "--e", "6")  # totient is even
        assert code == 2
        assert "coprime" in capsys.readouterr().err

    def test_exponent_one_refused(self, tmp_path, capsys):
        code, pub_path, priv_path = run_keygen(tmp_path, "--e", "1")
        assert code == 2
        assert capsys.readouterr().err == "error: requested public exponent out of range\n"
        assert not pub_path.exists() and not priv_path.exists()
        pub_path, _, pub = toy_key_files(tmp_path)
        pub_path.write_text(render_public(pub).replace("e = 5", "e = 1"))
        assert main(["inspect", "--pub", str(pub_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: public key file: public exponent out of range\n"


    def test_key_past_the_digit_limit_writes_neither_file(self, tmp_path, capsys, monkeypatch):
        # d of a 1000-bit inert key in degree 8 has about 4800 decimal
        # digits, past the interpreter's int-to-str limit: refused before any draw
        def draw(*args):
            raise AssertionError("keygen drew a candidate")

        monkeypatch.setattr(random.Random, "randrange", draw)
        pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
        code = main(
            ["keygen", "--field", "cyclotomic:m=16", "--mode", "inert:bits=1000",
             "--seed", "0x5", "--pub", str(pub), "--priv", str(priv)]
        )
        limit = sys.get_int_max_str_digits()
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: key too large for a key file: integers are limited to {limit} decimal digits\n"
        )
        assert not pub.exists() and not priv.exists()

    def test_key_past_the_budget_is_refused_before_the_search(self, tmp_path, capsys):
        # 2 * 128 * 64 bits of (p^128 - 1)(q^128 - 1): refused at once, not
        # after a search of 64-bit inert primes at degree 128
        pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
        start = time.monotonic()
        code = main(
            ["keygen", "--field", "cyclotomic:m=256", "--mode", "inert:bits=64",
             "--seed", "0x5", "--pub", str(pub), "--priv", str(priv)]
        )
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err == (
            "error: alpha and beta too large (norm bounds above 16332 bits, or one above 9190)\n"
        )
        assert not pub.exists() and not priv.exists()


class TestEncryptDecrypt:
    def roundtrip(self, tmp_path, payload, keygen_args=()):
        code, pub, priv = run_keygen(tmp_path, *keygen_args)
        assert code == 0
        src = tmp_path / "msg.bin"
        ct = tmp_path / "msg.ct"
        out = tmp_path / "msg.out"
        src.write_bytes(payload)
        assert main(["encrypt", "--pub", str(pub), "--in", str(src),
                     "--out", str(ct)]) == 0
        assert main(["decrypt", "--priv", str(priv), "--in", str(ct),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    def test_small_file(self, tmp_path):
        payload = bytes(range(256))
        assert self.roundtrip(tmp_path, payload) == payload

    def test_empty_file(self, tmp_path):
        assert self.roundtrip(tmp_path, b"") == b""

    def test_mebibyte_file(self, tmp_path):
        # 1 MiB through a 32-bit-prime quadratic key
        payload = random.Random(2024).randbytes(1 << 20)
        pub = tmp_path / "key.pub"
        priv = tmp_path / "key.priv"
        assert main(
            ["keygen", "--field", "quadratic:d=2", "--mode", "inert:bits=32",
             "--seed", "0xfeed", "--pub", str(pub), "--priv", str(priv)]
        ) == 0
        src = tmp_path / "big.bin"
        ct = tmp_path / "big.ct"
        out = tmp_path / "big.out"
        src.write_bytes(payload)
        assert main(["encrypt", "--pub", str(pub), "--in", str(src),
                     "--out", str(ct)]) == 0
        assert main(["decrypt", "--priv", str(priv), "--in", str(ct),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == payload

    def test_missing_key_file(self, tmp_path, capsys):
        code = main(["encrypt", "--pub", str(tmp_path / "nope.pub"),
                     "--in", str(tmp_path / "x"), "--out", str(tmp_path / "y")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_wrong_private_key(self, tmp_path, capsys):
        code, pub, _ = run_keygen(tmp_path)
        _, _, other_priv = run_keygen(tmp_path / "other", seed="0x99")
        src = tmp_path / "msg.bin"
        src.write_bytes(b"secret")
        ct = tmp_path / "msg.ct"
        main(["encrypt", "--pub", str(pub), "--in", str(src), "--out", str(ct)])
        code = main(["decrypt", "--priv", str(other_priv), "--in", str(ct),
                     "--out", str(tmp_path / "msg.out")])
        assert code == 4
        assert "fingerprint" in capsys.readouterr().err

    def test_truncated_ciphertext(self, tmp_path, capsys):
        code, pub, priv = run_keygen(tmp_path)
        src = tmp_path / "msg.bin"
        src.write_bytes(bytes(100))
        ct = tmp_path / "msg.ct"
        main(["encrypt", "--pub", str(pub), "--in", str(src), "--out", str(ct)])
        lines = ct.read_text().splitlines()
        ct.write_text("\n".join(lines[:-1]) + "\n")
        code = main(["decrypt", "--priv", str(priv), "--in", str(ct),
                     "--out", str(tmp_path / "msg.out")])
        assert code == 6
        assert "error: ciphertext" in capsys.readouterr().err

    def test_garbage_ciphertext(self, tmp_path):
        _, _, priv = run_keygen(tmp_path)
        ct = tmp_path / "bad.ct"
        ct.write_text("magic = wrong\n")
        assert main(["decrypt", "--priv", str(priv), "--in", str(ct),
                     "--out", str(tmp_path / "o")]) == 6

    def test_out_of_box_block(self, tmp_path, capsys):
        code, pub, priv = run_keygen(tmp_path)
        src = tmp_path / "msg.bin"
        src.write_bytes(b"abc")
        ct = tmp_path / "msg.ct"
        main(["encrypt", "--pub", str(pub), "--in", str(src), "--out", str(ct)])
        text = ct.read_text().splitlines()
        first_block = next(i for i, l in enumerate(text) if l.startswith("block"))
        text[first_block] = "block = -1,0"
        ct.write_text("\n".join(text) + "\n")
        code = main(["decrypt", "--priv", str(priv), "--in", str(ct),
                     "--out", str(tmp_path / "msg.out")])
        assert code == 6

    def test_modulus_too_small(self, tmp_path, capsys):
        # element mode with bound 3 caps the box capacity at 17*17
        pub = tmp_path / "k.pub"
        priv = tmp_path / "k.priv"
        assert main(
            ["keygen", "--field", "quadratic:d=2", "--mode", "element:bound=3",
             "--seed", "0x5", "--pub", str(pub), "--priv", str(priv)]
        ) == 0
        src = tmp_path / "msg.bin"
        src.write_bytes(b"hello")
        code = main(["encrypt", "--pub", str(pub), "--in", str(src),
                     "--out", str(tmp_path / "msg.ct")])
        assert code == 5
        assert "modulus too small" in capsys.readouterr().err


class TestInspect:
    def test_toy_public_report(self, tmp_path, capsys):
        pub_path, _, pub = toy_key_files(tmp_path)
        assert main(["inspect", "--pub", str(pub_path)]) == 0
        out = capsys.readouterr().out
        assert "field: quadratic:d=2" in out
        assert "hnf basis: 15,0;0,15" in out
        assert "box radices: 15,15" in out
        assert f"fingerprint: {fingerprint(pub)}" in out

    def test_private_report(self, tmp_path, capsys):
        _, priv_path, _ = toy_key_files(tmp_path)
        assert main(["inspect", "--priv", str(priv_path)]) == 0
        out = capsys.readouterr().out
        assert "role: private" in out
        assert "totient bits: 8" in out  # 192 needs 8 bits

    @pytest.mark.parametrize(
        "mode,seed,key_class",
        [
            ("inert:bits=16", "0x2a", "scalar"),
            ("element:bound=5", "0x0", "prime-norm"),  # lattice diagonal (391, 1)
            ("element:bound=3", "0x0", "prime-norm"),  # drawn again past norms (7, 7): (14, 1)
        ],
    )
    def test_private_report_names_key_class(self, tmp_path, capsys, mode, seed, key_class):
        # every key decrypts by CRT over its two prime ideals, so the
        # report names no decryption path
        code, _, priv_path = run_keygen(tmp_path, "--mode", mode, seed=seed)
        assert code == 0
        capsys.readouterr()
        assert main(["inspect", "--priv", str(priv_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "key class: " + key_class

    @pytest.mark.parametrize("command", ["decrypt", "inspect"])
    def test_quotient_not_cyclic_refused(self, tmp_path, capsys, command):
        # alpha = 3 + 3i has norm 18, and Z[i]/(3 + 3i) is not Z/18
        priv_path = tmp_path / "bad.priv"
        priv_path.write_text(
            "format_version = 1\nrole = private\nfield = quadratic:d=-1\n"
            "alpha = 3,3\nbeta = 7,0\nd = 653\ne = 5\n"
        )
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
        assert captured.err == (
            "error: private key file: the quotient by an element is not Z/N(element)\n"
        )

    def test_private_corner_past_the_digit_limit_refused(self, tmp_path, capsys):
        # Z = Z[x]/(x + 3): d = 65537^-1 mod (p - 1)(q - 1) has 640 digits and
        # parses, but the corner pq of the box has 641; the report is printed
        # whole or not at all, so not even the public lines of a toy key show
        field = parse_field_spec("generic:phi=3")
        p = 2**1279 - 1
        q = 10**640 // p + 1802
        primes = (PrimeElement(field.ring.element((v,))) for v in (p, q))
        pub, priv = keypair_from_primes(field, *primes)
        assert (len(str(priv.d)), len(str(p * q)), pub.e) == (640, 641, 65537)
        priv_path = tmp_path / "big.priv"
        priv_path.write_text(render_private(priv, pub.e))
        argv = ["inspect", "--priv", str(priv_path)]
        toy_pub_path = toy_key_files(tmp_path)[0]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            codes = [main(argv), main(argv + ["--pub", str(toy_pub_path)])]
        finally:
            sys.set_int_max_str_digits(limit)
        assert codes == [2, 2]
        assert capsys.readouterr() == (
            "", 2 * "error: key too large for a key file: integers are limited to 640 decimal digits\n"
        )

    def test_verify_matched(self, tmp_path, capsys):
        pub_path, priv_path, _ = toy_key_files(tmp_path)
        assert main(["inspect", "--pub", str(pub_path), "--priv",
                     str(priv_path), "--verify"]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_verify_mismatched(self, tmp_path, capsys):
        pub_path, _, _ = toy_key_files(tmp_path)
        _, _, other_priv = run_keygen(tmp_path)
        code = main(["inspect", "--pub", str(pub_path), "--priv",
                     str(other_priv), "--verify"])
        assert code == 1
        assert "key pair mismatch" in capsys.readouterr().err

    def test_verify_refuses_tampered_private_e(self, tmp_path, capsys):
        code, pub_path, priv_path = run_keygen(tmp_path, seed="0x1")
        assert code == 0
        capsys.readouterr()
        text = priv_path.read_text()
        e_line = next(line for line in text.splitlines() if line.startswith("e = "))
        priv_path.write_text(text.replace(e_line, "e = 3"))
        code = main(["inspect", "--pub", str(pub_path), "--priv",
                     str(priv_path), "--verify"])
        assert code == 2
        captured = capsys.readouterr()
        assert "verify: OK" not in captured.out
        assert captured.err == "error: private key file: e does not invert d modulo the totient\n"

    def test_verify_needs_both_files(self, tmp_path, capsys):
        pub_path, _, _ = toy_key_files(tmp_path)
        assert main(["inspect", "--pub", str(pub_path), "--verify"]) == 2
        assert capsys.readouterr() == ("", "error: --verify needs both --pub and --priv\n")

    def test_no_file_arguments(self, capsys):
        assert main(["inspect"]) == 2

    def test_malformed_key_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pub"
        bad.write_text("role = nonsense\n")
        assert main(["inspect", "--pub", str(bad)]) == 2


OVERSIZED_FIELDS = {
    "huge-m": "cyclotomic:m=10000000000000000000",
    "m-30030": "cyclotomic:m=30030",  # degree 5760
    "generic-129": "generic:phi=" + ",".join(["1"] * 129),
}


class TestUntrustedFieldSpecs:
    @pytest.mark.parametrize("spec", OVERSIZED_FIELDS.values(), ids=OVERSIZED_FIELDS.keys())
    @pytest.mark.parametrize("role", ["pub", "priv"])
    def test_oversized_field_refused_quickly(self, tmp_path, capsys, role, spec):
        pub_path, priv_path, _ = toy_key_files(tmp_path)
        key = pub_path if role == "pub" else priv_path
        key.write_text(key.read_text().replace("quadratic:d=2", spec))
        src = tmp_path / "in.bin"
        src.write_bytes(b"payload")
        command = "encrypt" if role == "pub" else "decrypt"
        start = time.monotonic()
        code = main([command, f"--{role}", str(key), "--in", str(src),
                     "--out", str(tmp_path / "out")])
        elapsed = time.monotonic() - start
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "degree above the limit of 128" in err[0]
        assert elapsed < 1.0

    @staticmethod
    def run_with_field(tmp_path, capsys, role, spec):
        """Exit code, stderr lines and seconds of encrypt/decrypt on a key with this field."""
        pub_path, priv_path, _ = toy_key_files(tmp_path)
        key = pub_path if role == "pub" else priv_path
        key.write_text(key.read_text().replace("quadratic:d=2", spec))
        command = "encrypt" if role == "pub" else "decrypt"
        start = time.monotonic()
        code = main([command, f"--{role}", str(key), "--in", str(key),
                     "--out", str(tmp_path / "out")])
        elapsed = time.monotonic() - start
        return code, capsys.readouterr().err.splitlines(), elapsed

    @pytest.mark.parametrize("role", ["pub", "priv"])
    def test_huge_quadratic_d_refused_quickly(self, tmp_path, capsys, role):
        # trial division alone costs about 2 s on a 4000-digit d
        code, err, elapsed = self.run_with_field(
            tmp_path, capsys, role, "quadratic:d=" + "7" * 4000
        )
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "cannot decide whether d is square-free" in err[0]
        assert elapsed < 0.5

    @pytest.mark.parametrize("role", ["pub", "priv"])
    def test_huge_generic_phi_refused_quickly(self, tmp_path, capsys, role):
        # the root screen alone costs about 3.7 s on a 4000-digit phi_0
        code, err, elapsed = self.run_with_field(
            tmp_path, capsys, role, "generic:phi=1" + "0" * 3998 + "7,1,1"
        )
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "generic phi coefficient above the limit of 100 digits" in err[0]
        assert elapsed < 0.5


HUGE = 100_000
LONG_ECHOES = {
    "priv-alpha": ("priv", "alpha = 3,0", "alpha = " + "3," * (HUGE // 2) + "x"),
    "priv-field": ("priv", "field = quadratic:d=2", "field = quadratic:d=" + "7" * HUGE),
    "priv-name": ("priv", "role = private", "role = private\n" + "x" * HUGE + " = 1"),
    "pub-lattice": ("pub", "lattice = 15,0;0,15", "lattice = 15,0;" + "0," * (HUGE // 2) + "x"),
    "pub-field": ("pub", "field = quadratic:d=2", "field = generic:phi=" + "1," * (HUGE // 2) + "x"),
    "pub-name": ("pub", "role = public", "role = public\n" + "y" * HUGE + " = 1"),
}


@pytest.mark.parametrize(
    "role,line,replacement", LONG_ECHOES.values(), ids=LONG_ECHOES.keys()
)
def test_error_line_bounds_echoed_input(tmp_path, capsys, role, line, replacement):
    pub_path, priv_path, _ = toy_key_files(tmp_path)
    key = pub_path if role == "pub" else priv_path
    assert line in key.read_text()
    key.write_text(key.read_text().replace(line, replacement))
    command = "encrypt" if role == "pub" else "decrypt"
    code = main([command, f"--{role}", str(key), "--in", str(key),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert len(err.encode()) < 300


def test_error_subclass_keeps_its_parents_exit_code(capsys, monkeypatch):
    class TruncatedBlock(CiphertextFormatError):
        pass

    def command(args):
        raise TruncatedBlock("block cut short")

    monkeypatch.setitem(cli._COMMANDS, "decrypt", command)
    assert main(["decrypt", "--priv", "k", "--in", "c", "--out", "m"]) == 6
    assert capsys.readouterr().err == "error: block cut short\n"


class TestArgumentParsing:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["explode"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "keygen" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    """The installed package must work as `python -m ringrsa`."""
    pub = tmp_path / "key.pub"
    priv = tmp_path / "key.priv"
    src = tmp_path / "in.bin"
    ct = tmp_path / "out.ct"
    back = tmp_path / "back.bin"
    src.write_bytes(b"subprocess roundtrip")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    steps = [
        ["keygen", "--field", "quadratic:d=2", "--mode", "inert:bits=16",
         "--seed", "0x7", "--pub", str(pub), "--priv", str(priv)],
        ["encrypt", "--pub", str(pub), "--in", str(src), "--out", str(ct)],
        ["decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(back)],
    ]
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-m", "ringrsa", *step],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
    assert back.read_bytes() == b"subprocess roundtrip"
