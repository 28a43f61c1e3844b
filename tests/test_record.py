"""The frozen records of ringrsa._record, and the import set of the CLI.

Other modules test the rest of what the records do: the __post_init__
refusals of HnfBasis (test_lattice.py), RingElement (test_ring.py) and
PublicKey (test_scheme.py); cached_property values left out of equality
(test_fields.py); and the _primes that keypair_from_primes seeds, so that
validate_keypair after a keygen takes no norm (test_scheme.py).
"""

import os
import pathlib
import subprocess
import sys

import pytest

from ringrsa import InertPrimeMode, PrimeElement, PrimeNormElementMode, PublicKey
from ringrsa._record import record
from ringrsa.fields import FieldDescriptor, quadratic_field
from ringrsa.lattice import HnfBasis
from ringrsa.ring import make_ring
from ringrsa.scheme import CiphertextBlock, _PrimeHalf

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIELD = quadratic_field(2)
LATTICE = HnfBasis(((15, 0), (0, 15)))


def test_fields_are_frozen():
    pub = PublicKey(FIELD, LATTICE, 5)
    for target, name in ((pub, "e"), (pub, "other"), (LATTICE, "entries"),
                         (InertPrimeMode(8), "bits")):
        with pytest.raises(AttributeError, match="frozen"):
            setattr(target, name, 1)
        with pytest.raises(AttributeError, match="frozen"):
            delattr(target, name)
    assert pub.e == 5


def test_equality_needs_the_same_class():
    assert InertPrimeMode(8) != PrimeNormElementMode(8)
    assert InertPrimeMode(8) == InertPrimeMode(8) != InertPrimeMode(9)
    assert InertPrimeMode(8) != 8 and InertPrimeMode(8) != (8,)


def test_equal_records_hash_equal():
    pairs = [
        (FIELD.ring.element((1, 2)), make_ring((2, 0)).element([1, 2])),
        (PrimeElement(FIELD.ring.element((3, 0))), PrimeElement(FIELD.ring.element((3, 0)))),
        (LATTICE, HnfBasis(((15, 0), (0, 15)))),
        (PublicKey(FIELD, LATTICE, 5), PublicKey(quadratic_field(2), LATTICE, 5)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)


def test_keywords_and_defaults():
    assert PublicKey(e=5, lattice=LATTICE, field=FIELD) == PublicKey(FIELD, LATTICE, 5)
    assert FieldDescriptor("generic", FIELD.ring).param is None
    assert FieldDescriptor(kind="quadratic", ring=FIELD.ring, param=2) == FIELD
    half = _PrimeHalf(7, 3, (1,))
    assert (half.lattice, half.frobenius) == (None, ())
    assert _PrimeHalf(7, None, (1,), frobenius=((1,),)).frobenius == ((1,),)


@pytest.mark.parametrize(
    "args, kwargs",
    [((FIELD, LATTICE), {}), ((FIELD, LATTICE, 5, 6), {}), ((FIELD, LATTICE, 5), {"e": 5}),
     ((FIELD, LATTICE), {"d": 5})],
    ids=["missing", "extra", "twice", "unknown"],
)
def test_bad_arguments(args, kwargs):
    with pytest.raises(TypeError, match="PublicKey"):
        PublicKey(*args, **kwargs)


def test_repr_names_the_fields():
    assert repr(InertPrimeMode(8)) == "InertPrimeMode(bits=8)"
    assert repr(CiphertextBlock(FIELD.ring.element((1, 2)))) == (
        "CiphertextBlock(vector=RingElement(context=RingContext(phi_coeffs=(2, 0)), "
        "coeffs=(1, 2)))"
    )


def test_record_without_post_init():
    @record
    class Pair:
        a: int
        b: int = 2

    assert Pair(1) == Pair(1, 2) == Pair(b=2, a=1) and Pair(1).b == 2
    assert vars(Pair(1, 3)) == {"a": 1, "b": 3}


def test_cli_import_set():
    # python -S: without site, which may import typing by itself
    probe = "import ringrsa.cli, sys; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ringrsa.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing", "ast", "dis"})
