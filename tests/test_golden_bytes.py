"""Byte identity of seeded key files and ciphertexts across versions.

The hashes were recorded from `ringrsa keygen --seed 0x2a` and `ringrsa
encrypt` of a fixed 40-byte payload.  Key files must stay byte-identical
for a fixed seed, and a ciphertext of a fixed payload under a fixed key
must not change, so old ciphertexts keep decrypting.  The benchmark's key
files are pinned too: every keygen seed of every workload must reproduce
the SHA-256 pair recorded in perfbench/digests.json.  Every pinned public
key passes parse_public's rule, to the lattice of its private key.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ringrsa.cli import main
from ringrsa.keyfiles import parse_private, parse_public

PAYLOAD = bytes(range(40))


def assert_public_lattice_admitted(pub, priv):
    """parse_public admits the lattice, equal to product_lattice of alpha and beta."""
    assert parse_public(pub.read_text()).lattice == parse_private(priv.read_text())[0].lattice

# (field, mode) -> SHA-256 of the .pub, .priv and .ct files
GOLDEN = {
    ("quadratic:d=2", "inert:bits=64"): (
        "f5f879ba1f57406ef2dd7f99b66422735a2cfaae9ffd5921b9dfc6327f9fcea8",
        "3d2724a6166a7596b60c57e22ecfe98fa3741c37fc6bcbf2f413784780b85b1d",
        "eaf1f6e8733d4f97d658431e6b3edde7929af30fdc305cb9e67d235b928ff8fb",
    ),
    ("cyclotomic:m=16", "element:bound=100"): (
        "c3ef6661628bf3247379e82b61c9c63c3366607f0a1e353ebe0e42e4785be3ba",
        "f7f1136c4a1b62a0205d7c7bcd97bc973bbfa9ba517bafbbd5eee690f8a0f735",
        "4b290cb2d8774e7dc22d35673041e19bd087be06bfe8986eb110a0dcf1ca4866",
    ),
    ("generic:phi=1,1,0", "element:bound=50"): (
        "9fb9991b687ba5780af8e35b9d840c138c68bc92cb5802d1fe8451ab98fd9c03",
        "54613208c4baeec2ed384111ff7edc347617baf0ea646469c4b1da341aa76f6a",
        "67e332c423755c671e5ed5f5b1146982a43b517a507073822d64879c558274fe",
    ),
}


@pytest.mark.parametrize("field, mode", GOLDEN, ids=["inert-d2", "element-m16", "element-generic"])
def test_seeded_files_are_byte_identical(tmp_path, field, mode):
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    src, ct, back = tmp_path / "m.bin", tmp_path / "m.ct", tmp_path / "m.out"
    src.write_bytes(PAYLOAD)
    assert main(["keygen", "--field", field, "--mode", mode, "--seed", "0x2a",
                 "--pub", str(pub), "--priv", str(priv)]) == 0
    assert main(["encrypt", "--pub", str(pub), "--in", str(src), "--out", str(ct)]) == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (pub, priv, ct))
    assert got == GOLDEN[field, mode]
    assert_public_lattice_admitted(pub, priv)
    assert main(["decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(back)]) == 0
    assert back.read_bytes() == PAYLOAD


BENCH_DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text()
)
# workload -> (field, mode), as perfbench/bench.py runs them
BENCH_WORKLOADS = {
    "inert-q512-bulk": ("quadratic:d=2", "inert:bits=512"),
    "element-c16-bulk": ("cyclotomic:m=16", "element:bound=100"),
    "element-c64-keys": ("cyclotomic:m=64", "element:bound=4"),
}
BENCH_KEYS = [
    (workload, seed, pair)
    for workload, recorded in BENCH_DIGESTS.items()
    for seed, pair in recorded["keys"].items()
]


def test_every_benchmark_workload_has_its_keys_recorded():
    assert set(BENCH_DIGESTS) == set(BENCH_WORKLOADS)
    assert sorted(seed for _, seed, _ in BENCH_KEYS) == sorted(
        f"{s:#x}" for first in (0x100, 0x200, 0x301) for s in range(first, first + 6)
    )


@pytest.mark.parametrize(
    "workload, seed, pair", BENCH_KEYS, ids=[f"{w}-{s}" for w, s, _ in BENCH_KEYS]
)
def test_benchmark_keys_are_byte_identical(tmp_path, workload, seed, pair):
    field, mode = BENCH_WORKLOADS[workload]
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    assert main(["keygen", "--field", field, "--mode", mode, "--seed", seed,
                 "--pub", str(pub), "--priv", str(priv)]) == 0
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (pub, priv)] == pair
    assert_public_lattice_admitted(pub, priv)
