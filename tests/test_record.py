"""The frozen records of ringrsa._record, and the import set of the CLI.

Records check no values when they are built: HnfBasis, RingElement and
PublicKey are checked where key files are parsed (test_lattice.py,
test_ring.py and test_scheme.py test those refusals).  Other modules test
the rest of what the records do: cached_property values left out of
equality (test_fields.py), and the _primes that keypair_from_primes
seeds, so that validate_keypair and decrypt_block after a keygen take no
norm, primality test or Frobenius matrix again (test_scheme.py).
"""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import ringrsa
from ringrsa import InertPrimeMode, PrimeElement, PrimeNormElementMode, PublicKey
from ringrsa._record import record
from ringrsa.fields import FieldDescriptor, quadratic_field
from ringrsa.lattice import HnfBasis
from ringrsa.ring import make_ring
from ringrsa.scheme import CiphertextBlock

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


def test_no_record_defines_post_init():
    # record calls no __post_init__, so one would be a check that never runs
    @record
    class Hooked:
        a: int

        def __post_init__(self):
            raise AssertionError("called")

    assert Hooked(1).a == 1
    names = [m.name for m in pkgutil.iter_modules(ringrsa.__path__) if m.name != "__main__"]
    modules = [importlib.import_module(f"ringrsa.{name}") for name in names]
    records = {
        cls for module in modules for cls in vars(module).values()
        if isinstance(cls, type) and getattr(cls.__init__, "__module__", None) == record.__module__
    }
    assert {"HnfBasis", "PublicKey", "RingElement"} <= {cls.__name__ for cls in records}
    assert [cls for cls in records if "__post_init__" in vars(cls)] == []


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
