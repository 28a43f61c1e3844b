"""Text key and ciphertext files: determinism, roundtrips, rejection."""

import random

import pytest

from ringrsa import InertPrimeMode, PrimeNormElementMode, keygen, quadratic_field
from ringrsa.errors import CiphertextFormatError, KeyFileError
from ringrsa.keyfiles import (
    CIPHERTEXT_MAGIC,
    fingerprint,
    parse_ciphertext,
    parse_private,
    parse_public,
    render_ciphertext,
    render_private,
    render_public,
)

FIELD = quadratic_field(2)


def with_field(text, name, value):
    """The key file text with the value of the field `name` replaced."""
    return "".join(
        f"{name} = {value}\n" if line.startswith(f"{name} =") else line + "\n"
        for line in text.splitlines()
    )


@pytest.fixture(scope="module")
def keypair():
    return keygen(FIELD, InertPrimeMode(bits=12), rng=random.Random(100))


class TestPublicFiles:
    def test_roundtrip(self, keypair):
        pub, _ = keypair
        assert parse_public(render_public(pub)) == pub

    def test_rendering_is_deterministic(self, keypair):
        pub, _ = keypair
        assert render_public(pub) == render_public(pub)

    def test_field_order_is_fixed(self, keypair):
        pub, _ = keypair
        names = [line.split(" =")[0] for line in render_public(pub).splitlines()]
        assert names == ["format_version", "role", "field", "lattice", "e"]

    def test_comments_and_blank_lines_ignored(self, keypair):
        pub, _ = keypair
        text = "# made by hand\n\n" + render_public(pub) + "\n# trailing\n"
        assert parse_public(text) == pub

    def test_unknown_field_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub) + "extra = 1\n"
        with pytest.raises(KeyFileError, match="unknown field"):
            parse_public(text)

    @pytest.mark.parametrize("line", ["= 1", "block = 1,2"])
    def test_nameless_and_block_lines_rejected(self, keypair, line):
        # only a ciphertext repeats `block`; a key file knows no such field
        pub, _ = keypair
        with pytest.raises(KeyFileError, match="unknown field"):
            parse_public(render_public(pub) + line + "\n")

    def test_duplicate_field_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub) + "e = 3\n"
        with pytest.raises(KeyFileError, match="duplicate field"):
            parse_public(text)

    def test_missing_field_rejected(self, keypair):
        pub, _ = keypair
        lines = render_public(pub).splitlines()
        text = "\n".join(line for line in lines if not line.startswith("e ="))
        with pytest.raises(KeyFileError, match="missing field"):
            parse_public(text)

    def test_wrong_role_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub).replace("role = public", "role = private")
        with pytest.raises(KeyFileError, match="wrong role"):
            parse_public(text)

    def test_unsupported_version_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub).replace(
            "format_version = 1", "format_version = 2"
        )
        with pytest.raises(KeyFileError, match="unsupported format version"):
            parse_public(text)

    def test_bad_lattice_text_rejected(self, keypair):
        pub, _ = keypair
        original = render_public(pub)
        for bad in ("1,x;0,1", "15,0"):
            text = "\n".join(
                f"lattice = {bad}" if line.startswith("lattice") else line
                for line in original.splitlines()
            )
            with pytest.raises(KeyFileError):
                parse_public(text)

    def test_non_hnf_lattice_rejected(self, keypair):
        pub, _ = keypair
        text = render_public(pub)
        head = text.split("lattice = ")[0]
        tail = text.split("\n")[-2]
        with pytest.raises(KeyFileError):
            parse_public(head + "lattice = 2,3;0,3\n" + tail + "\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(KeyFileError, match="not 'name = value'"):
            parse_public("just some text\n")


class TestPrivateFiles:
    def test_roundtrip_recomputes_derived_parts(self, keypair):
        pub, priv = keypair
        text = render_private(priv, pub.e)
        back, e = parse_private(text)
        assert back == priv
        assert e == pub.e
        assert back.lattice == pub.lattice
        assert back.phi == priv.phi

    def test_tampered_d_rejected(self, keypair):
        pub, priv = keypair
        text = render_private(priv, pub.e).replace(
            f"d = {priv.d}", f"d = {priv.phi + 5}"
        )
        with pytest.raises(KeyFileError, match="private exponent"):
            parse_private(text)

    def test_associate_pair_rejected(self, keypair):
        pub, priv = keypair
        alpha = ",".join(map(str, priv.alpha.coeffs))
        text = with_field(render_private(priv, pub.e), "beta", alpha)
        with pytest.raises(KeyFileError, match="associate prime elements"):
            parse_private(text)

    @pytest.mark.parametrize("alpha", ["1,1", "0,0"])  # N(1 + sqrt(2)) = -1
    def test_unit_or_zero_rejected(self, keypair, alpha):
        pub, priv = keypair
        text = with_field(render_private(priv, pub.e), "alpha", alpha)
        with pytest.raises(KeyFileError, match="a unit or zero"):
            parse_private(text)

    def test_tampered_e_rejected(self, keypair):
        pub, priv = keypair
        text = with_field(render_private(priv, pub.e), "e", pub.e + 2)
        with pytest.raises(KeyFileError, match="e does not invert d"):
            parse_private(text)

    def test_non_integer_field_rejected(self, keypair):
        pub, priv = keypair
        text = render_private(priv, pub.e).replace(
            f"d = {priv.d}", "d = seventy"
        )
        with pytest.raises(KeyFileError, match="not an integer"):
            parse_private(text)

    def test_public_file_refused(self, keypair):
        pub, _ = keypair
        with pytest.raises(KeyFileError):
            parse_private(render_public(pub))


class TestFingerprint:
    def test_shape(self, keypair):
        pub, _ = keypair
        fp = fingerprint(pub)
        assert len(fp) == 16
        int(fp, 16)

    def test_stable_under_comments(self, keypair):
        pub, _ = keypair
        reparsed = parse_public("# note\n" + render_public(pub))
        assert fingerprint(reparsed) == fingerprint(pub)

    def test_distinct_keys_differ(self, keypair):
        pub, _ = keypair
        other, _ = keygen(
            FIELD, PrimeNormElementMode(coeff_bound=30), rng=random.Random(8)
        )
        assert fingerprint(other) != fingerprint(pub)


class TestCiphertextFiles:
    BLOCKS = [(1, 2), (3, 4), (0, 0)]

    def test_roundtrip(self):
        text = render_ciphertext("ab" * 8, self.BLOCKS)
        fp, blocks = parse_ciphertext(text)
        assert fp == "ab" * 8
        assert blocks == self.BLOCKS

    def test_empty_block_list(self):
        fp, blocks = parse_ciphertext(render_ciphertext("00" * 8, []))
        assert blocks == []

    def test_bad_magic(self):
        text = render_ciphertext("00" * 8, self.BLOCKS).replace(
            CIPHERTEXT_MAGIC, "something-else"
        )
        with pytest.raises(CiphertextFormatError, match="bad magic"):
            parse_ciphertext(text)

    def test_count_mismatch(self):
        text = render_ciphertext("00" * 8, self.BLOCKS) + "block = 5,6\n"
        with pytest.raises(CiphertextFormatError, match="count mismatch"):
            parse_ciphertext(text)

    def test_ragged_blocks(self):
        text = render_ciphertext("00" * 8, [(1, 2), (3, 4, 5)])
        with pytest.raises(CiphertextFormatError, match="ragged"):
            parse_ciphertext(text)

    def test_bad_block_integer(self):
        text = render_ciphertext("00" * 8, self.BLOCKS).replace("1,2", "1,x")
        with pytest.raises(CiphertextFormatError, match="bad block"):
            parse_ciphertext(text)

    def test_missing_header_field(self):
        lines = render_ciphertext("00" * 8, self.BLOCKS).splitlines()
        text = "\n".join(l for l in lines if not l.startswith("blocks"))
        with pytest.raises(CiphertextFormatError, match="missing field"):
            parse_ciphertext(text)

    def test_duplicate_header_field(self):
        text = "magic = x\n" + render_ciphertext("00" * 8, self.BLOCKS)
        with pytest.raises(CiphertextFormatError, match="duplicate"):
            parse_ciphertext(text)

    def test_unknown_field(self):
        text = render_ciphertext("00" * 8, self.BLOCKS) + "nonce = 7\n"
        with pytest.raises(CiphertextFormatError, match="unknown field"):
            parse_ciphertext(text)

    def test_bad_count_value(self):
        text = render_ciphertext("00" * 8, self.BLOCKS).replace(
            "blocks = 3", "blocks = three"
        )
        with pytest.raises(CiphertextFormatError, match="bad block count"):
            parse_ciphertext(text)
