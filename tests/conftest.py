"""Shared test configuration and the acceptance summary hook."""

import collections
import sys
import time
from contextlib import contextmanager

import pytest
from hypothesis import settings

from ringrsa import ring

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# (number, title, passed, seconds), filled in by the acceptance fixture
_ACCEPTANCE_RESULTS = []


@pytest.fixture
def acceptance():
    """Recorder for the numbered acceptance checks.

    Usage: `with acceptance(3, "title", budget=60): ...`.  The block is
    timed, a budget overrun fails the test, and the verdict is replayed
    in the terminal summary whether the body passed or not.
    """

    @contextmanager
    def record(number: int, title: str, budget: float | None = None):
        start = time.monotonic()
        ok = False
        try:
            yield
            elapsed = time.monotonic() - start
            if budget is not None and elapsed > budget:
                raise AssertionError(
                    f"time budget exceeded: {elapsed:.2f}s > {budget}s"
                )
            ok = True
        finally:
            _ACCEPTANCE_RESULTS.append(
                (number, title, ok, time.monotonic() - start)
            )

    return record


@pytest.fixture
def ring_products(monkeypatch):
    """Counts the calls of the generated kernels: ["sqr"] squarings, ["mul"] the rest.

    ring._kernels is wrapped, so every kernel pair conv_multi_pow fetches
    comes back with each function counting its calls.
    """
    counts = collections.Counter()
    real_kernels = ring._kernels

    def counted(name, kernel):
        def counting(*args):
            counts[name] += 1
            return kernel(*args)

        return counting

    def counting_kernels(phi_coeffs):
        sqr, mul = real_kernels(phi_coeffs)
        return counted("sqr", sqr), counted("mul", mul)

    monkeypatch.setattr(ring, "_kernels", counting_kernels)
    return counts


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(module, name, record) wraps module.name in every ringrsa
    module that imported it: each call passes its arguments to record, then
    runs the real function.
    """

    def wrap(module, name, record):
        real = getattr(module, name)

        def recording(*args):
            record(*args)
            return real(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ringrsa" and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, recording)

    return wrap


@pytest.fixture
def norm_calls(record_calls):
    """(function, coefficients) of every norm a ringrsa module takes, in call order.

    The function is "norm" for ring.norm, which halves the degree over a
    binomial phi and gives PrimeElement.norm_abs, or "norm_and_linear" for
    the subresultant PRS that PrimeElement.root takes.  ring.norm calls no
    norm_and_linear, so each norm is recorded once.
    """
    calls = []
    for name in ("norm", "norm_and_linear"):
        record_calls(ring, name, lambda ctx, elem, name=name: calls.append((name, elem.coeffs)))
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance checks")
    for number, title, ok, elapsed in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"{number:3d}. {title}: {verdict} ({elapsed:.2f}s)"
        )
