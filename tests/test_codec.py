"""Byte framing over coset boxes, given by their radices: mixed-radix blocks with a length header."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringrsa import CapacityError, decode_blocks, encode_bytes
from ringrsa.errors import CiphertextFormatError

BOX = (300, 300)          # capacity 90000, 2 bytes per block
WIDE = (17, 23, 29, 31)   # capacity 351509, uneven radices
BIG = (1 << 40, 1 << 40)  # 10 bytes per block


class TestFraming:
    def test_empty_payload(self):
        blocks = encode_bytes(BOX, b"")
        # 8 header bytes at 2 bytes per block
        assert len(blocks) == 4
        assert decode_blocks(BOX, blocks) == b""

    def test_known_block_values(self):
        blocks = encode_bytes(BOX, b"\x01")
        # stream = 8-byte length 1, then 0x01, zero-padded to 10 bytes
        assert len(blocks) == 5
        # first chunk is 0x0000, last chunk is 0x0100
        assert blocks[0] == (0, 0)
        assert blocks[-1] == (256 % 300, 256 // 300)

    def test_trailing_zero_bytes_survive(self):
        payload = b"ab\x00\x00\x00"
        assert decode_blocks(BOX, encode_bytes(BOX, payload)) == payload

    def test_every_block_is_in_the_box(self):
        blocks = encode_bytes(WIDE, bytes(range(256)))
        for block in blocks:
            assert all(0 <= d < r for d, r in zip(block, WIDE))

    @given(st.binary(max_size=600))
    def test_roundtrip(self, payload):
        for box in (BOX, WIDE, BIG):
            assert decode_blocks(box, encode_bytes(box, payload)) == payload

    def test_capacity_floor(self):
        with pytest.raises(CapacityError, match="modulus too small"):
            encode_bytes((255, 255), b"hi")  # capacity 65025
        with pytest.raises(CapacityError, match="modulus too small"):
            decode_blocks((255, 255), [(0, 0)])
        # capacity 65536 = 2^16 is exactly enough for 2-byte chunks
        edge = (256, 256)
        assert decode_blocks(edge, encode_bytes(edge, b"ok")) == b"ok"


class TestRadices:
    def test_capacity_is_product(self):
        # sixteen radices of 2 hold 2-byte chunks; with one radix 1 the product is too small
        bits = (2,) * 16
        assert len(encode_bytes(bits, b"")) == 4
        assert decode_blocks(bits, encode_bytes(bits, b"ok")) == b"ok"
        with pytest.raises(CapacityError):
            encode_bytes((2,) * 15 + (1,), b"")

    def test_invalid_radices_rejected(self):
        # a plain ValueError, not the CapacityError a product <= 0 would give
        for radices in ((15, 0), (1 << 20, -3)):
            with pytest.raises(ValueError, match="radices must be positive") as info:
                encode_bytes(radices, b"hi")
            assert not isinstance(info.value, CapacityError)
            with pytest.raises(ValueError, match="radices must be positive"):
                decode_blocks(radices, [(0, 0)])


class TestDecodeValidation:
    def test_block_outside_box(self):
        blocks = encode_bytes(BOX, b"payload")
        bad = blocks[:-1] + [(300, 0)]
        with pytest.raises(CiphertextFormatError, match="block outside box"):
            decode_blocks(BOX, bad)
        with pytest.raises(CiphertextFormatError, match="block outside box"):
            decode_blocks(BOX, blocks[:-1] + [(-1, 0)])

    def test_wrong_block_length(self):
        blocks = encode_bytes(BOX, b"payload")
        with pytest.raises(CiphertextFormatError, match="block outside box"):
            decode_blocks(BOX, blocks[:-1] + [(0, 0, 0)])

    def test_value_beyond_chunk_range(self):
        # 70000 fits the radices but not 16 bits
        blocks = encode_bytes(BOX, b"payload")
        bad = blocks[:-1] + [(70000 % 300, 70000 // 300)]
        with pytest.raises(CiphertextFormatError, match="out of codec range"):
            decode_blocks(BOX, bad)

    def test_truncated_stream(self):
        blocks = encode_bytes(BOX, b"payload")
        with pytest.raises(CiphertextFormatError, match="corrupt length header"):
            decode_blocks(BOX, blocks[:-1])
        with pytest.raises(CiphertextFormatError, match="corrupt length header"):
            decode_blocks(BOX, [])

    def test_extra_blocks(self):
        blocks = encode_bytes(BOX, b"payload")
        with pytest.raises(CiphertextFormatError, match="corrupt length header"):
            decode_blocks(BOX, blocks + [(0, 0)])

    def test_header_length_beyond_stream(self):
        # header claims 1000 payload bytes but only one block follows
        header = (1000).to_bytes(8, "big")
        blocks = []
        for pos in range(0, 8, 2):
            value = int.from_bytes(header[pos : pos + 2], "big")
            blocks.append((value % 300, value // 300))
        with pytest.raises(CiphertextFormatError, match="corrupt length header"):
            decode_blocks(BOX, blocks)
