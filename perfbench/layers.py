"""Traced run: the CLI's commands replayed in process, one span per public call.

Each CLI-equivalent command (keygen, encrypt, decrypt) gets a root span and
a command id; inside it the benchmark calls the `ringrsa` modules' public
functions in the order the CLI calls them, with a span around each call.
Two more commands per key take the CLI's black boxes apart on the same
inputs: `keygen-steps` calls what the library keygen calls (prime search,
keypair assembly) plus the norm / ideal matrix / HNF / primality steps that
keypair assembly and key parsing repeat, and `probe` times repeated
unreduced convolutions of two ciphertext points and lattice reductions of
their product.  Spans stay in memory and are written out by bench.main.  A
layer's self time is its span's duration minus the part its child spans
cover.  The tracing overhead is what a span costs, timed on a no-op call,
times the spans of a round.

Counts come from outside the program: rng draws through a counting
`random.Random` passed into the prime search, products per power from the
exponents, ciphertext expansion from file sizes.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

import bench

STARTUP_RUNS = 7
PROBE_REPEATS = 41
MIN_BLOCK_SAMPLES = 20
OVERHEAD_CALLS = 20000
OVERHEAD_REPEATS = 7


class CountingRandom(random.Random):
    """random.Random that counts randrange draws; the stream is unchanged."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


class Recorder:
    """In-memory spans: [id, parent id, command id, name, start ns, end ns, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._command = 0

    @contextmanager
    def command(self, name: str):
        self._command += 1
        sid = len(self.spans)
        span = [sid, None, self._command, name, time.perf_counter_ns(), 0, 1]
        self.spans.append(span)
        self._open.append(sid)
        try:
            yield
        finally:
            span[5] = time.perf_counter_ns()
            self._open.pop()

    def call(self, name: str, fn, *args, count: int = 1, **kwargs):
        """fn(*args, **kwargs) inside a span; count is the work units it covers."""
        parent = self._open[-1] if self._open else None
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
        self.spans.append([len(self.spans), parent, self._command, name, t0, t1, count])
        return out

    def count_last(self, count: int) -> None:
        """Set the work units of the span just closed, once its result shows them."""
        self.spans[-1][6] = count


def self_times(spans: list[list]) -> dict[str, list[tuple[int, int]]]:
    """name -> [(self ns, count)]: duration minus the union of child intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for sid, _, _, name, start, end, count in spans:
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name].append((end - start - covered, count))
    return out


def _render_keys(keyfiles, pub, priv, comment: str) -> tuple[str, str]:
    return (
        comment + keyfiles.render_public(pub),
        comment + keyfiles.render_private(priv, pub.e),
    )


def products(x: int) -> int:
    """Convolution products in square-and-multiply of x: squarings plus multiplies."""
    return x.bit_length() - 1 + bin(x).count("1") - 1


class Replay:
    """The workload's commands, in the CLI's order, against one Recorder."""

    def __init__(self, wl, seed, key_seeds, jobs, checks, digests, modules) -> None:
        self.wl, self.seed, self.key_seeds, self.jobs = wl, seed, key_seeds, jobs
        self.checks, self.digests, self.m = checks, digests, modules
        kind, _, value = wl.mode.partition(":")
        self.mode_kind, self.mode_param = kind, int(value.partition("=")[2])
        self.candidates = 0
        self.primes_found = 0
        self.exponents: list[tuple[int, int]] = []
        self.expansions: list[float] = []
        self.last = None

    def round(self, rec: Recorder) -> float:
        t0 = time.perf_counter()
        for s in self.key_seeds:
            self._guarded(f"keygen {s:#x}", self.keygen, rec, s)
        for job in self.jobs:
            self._guarded(f"encrypt+decrypt {job.key_seed:#x}", self.roundtrip, rec, job)
        return time.perf_counter() - t0

    def _guarded(self, what: str, fn, *args) -> None:
        try:
            problems = fn(*args)
        except Exception as exc:  # a failed command is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        self.checks.record(what, problems)

    def keygen(self, rec: Recorder, s: int) -> list[str]:
        m = self.m
        mode = (
            m.scheme.InertPrimeMode(self.mode_param)
            if self.mode_kind == "inert"
            else m.scheme.PrimeNormElementMode(self.mode_param)
        )
        with rec.command("cli.keygen"):
            field = rec.call("fields.field_build", m.fields.parse_field_spec, self.wl.field)
            pub, priv = rec.call("scheme.keygen", m.scheme.keygen, field, mode, rng=random.Random(s))
            comment = f"# rng = python-random-mt19937 seed={s:#x}\n"
            pub_text, priv_text = rec.call(
                "keyfiles.render_keys", _render_keys, m.keyfiles, pub, priv, comment
            )

        ctx = field.ring
        rng = CountingRandom(s)
        with rec.command("keygen-steps"):
            if self.mode_kind == "inert":
                find, per_candidate = m.fields.find_inert_prime, 1
                alpha = rec.call("fields.prime_search", find, field, self.mode_param, rng)
                beta = rec.call(
                    "fields.prime_search", find, field, self.mode_param, rng,
                    exclude=alpha.element.coeffs[0],
                )
                secret = alpha.element.coeffs[0]
            else:
                find, per_candidate = m.fields.find_prime_norm_element, ctx.degree
                alpha = rec.call("fields.prime_search", find, field, self.mode_param, rng)
                beta = rec.call("fields.prime_search", find, field, self.mode_param, rng)
                secret = alpha.norm_abs
            rec.call("primes.is_probable_prime", m.primes.is_probable_prime, secret)
            rec.call("ring.norm", m.ring.norm, ctx, alpha.element)
            gamma = m.ring.conv_mul(ctx, alpha.element, beta.element)
            im = rec.call("ring.ideal_matrix", m.ring.ideal_matrix, ctx, gamma)
            basis = rec.call("lattice.hnf", m.lattice.hnf, im.entries)
            steps = rec.call("fields.keypair", m.scheme.keypair_from_primes, field, alpha, beta)
        self.candidates += rng.draws // per_candidate
        self.primes_found += 2
        self.exponents.append((pub.e, priv.d))

        problems = []
        if steps != (pub, priv) or basis != pub.lattice:
            problems.append("step-by-step keygen differs from library keygen")
        pub_path, priv_path = bench.WORK / "keygen.pub", bench.WORK / "keygen.priv"
        pub_path.write_text(pub_text, encoding="utf-8", newline="\n")
        priv_path.write_text(priv_text, encoding="utf-8", newline="\n")
        problems += bench.key_problems(self.digests, self.wl, s, pub_path, priv_path)
        return problems

    def roundtrip(self, rec: Recorder, job) -> list[str]:
        m = self.m
        pub_text = job.pub.read_text(encoding="utf-8")
        priv_text = job.priv.read_text(encoding="utf-8")

        with rec.command("cli.encrypt"):
            pub = rec.call("keyfiles.parse_public", m.keyfiles.parse_public, pub_text)
            box = m.lattice.coset_box(pub.lattice)
            blocks = rec.call("scheme.encode", m.scheme.encode_bytes, box, job.payload)
            rec.count_last(len(blocks))
            cts = [
                rec.call("scheme.encrypt_block", m.scheme.encrypt_block, pub, b).vector.coeffs
                for b in blocks
            ]
            fp = m.keyfiles.fingerprint(pub)
            ct_text = rec.call(
                "keyfiles.render_ct", m.keyfiles.render_ciphertext, fp, cts, count=len(cts)
            )
        job.cipher.write_text(ct_text, encoding="utf-8", newline="\n")
        problems = bench.cipher_problems(self.digests, self.wl, self.seed, job)
        self.expansions.append(job.cipher.stat().st_size / len(job.payload))

        with rec.command("cli.decrypt"):
            priv, e = rec.call("keyfiles.parse_private", m.keyfiles.parse_private, priv_text)
            got_fp, ct_blocks = rec.call(
                "keyfiles.parse_ct", m.keyfiles.parse_ciphertext, ct_text, count=len(cts)
            )
            derived = m.scheme.PublicKey(priv.field, priv.lattice, e)
            if got_fp != m.keyfiles.fingerprint(derived):
                problems.append("ciphertext fingerprint does not match the key")
            out_box = m.lattice.coset_box(priv.lattice)
            vectors = [
                rec.call("scheme.decrypt_block", m.scheme.decrypt_block, priv, c).coeffs
                for c in ct_blocks
            ]
            payload = rec.call(
                "scheme.decode", m.scheme.decode_blocks, out_box, vectors, count=len(vectors)
            )
        if payload != job.payload:
            problems.append("decrypted bytes differ from the payload")

        ctx = pub.field.ring
        a, b = ctx.element(cts[0]), ctx.element(cts[-1])
        with rec.command("probe"):
            for _ in range(PROBE_REPEATS):
                prod = rec.call("ring.conv_mul", m.ring.conv_mul, ctx, a, b)
            for _ in range(PROBE_REPEATS):
                rec.call("lattice.reduce", m.lattice.reduce_mod_lattice, pub.lattice, prod.coeffs)
        self.last = (pub, priv, blocks, cts)
        return problems

    def top_up_blocks(self, rec: Recorder, have: int) -> None:
        """Repeat block calls of the last key until the tail percentile exists."""
        pub, priv, blocks, cts = self.last
        m = self.m
        with rec.command("probe"):
            for i in range(have, MIN_BLOCK_SAMPLES):
                rec.call("scheme.encrypt_block", m.scheme.encrypt_block, pub, blocks[i % len(blocks)])
                rec.call("scheme.decrypt_block", m.scheme.decrypt_block, priv, cts[i % len(cts)])


def span_overhead_ns() -> float:
    """Median cost of one span: rec.call of a no-op minus a direct call."""

    def noop() -> None:
        pass

    costs = []
    for _ in range(OVERHEAD_REPEATS):
        rec = Recorder()
        t0 = time.perf_counter_ns()
        for _ in range(OVERHEAD_CALLS):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(OVERHEAD_CALLS):
            rec.call("noop", noop)
        t2 = time.perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / OVERHEAD_CALLS)
    return statistics.median(costs)


def _import_ringrsa():
    sys.path.insert(0, str(bench.SRC))
    # ringrsa.cli too, so an eager numpy import in the CLI fails the guard.
    from ringrsa import cli, fields, keyfiles, lattice, primes, ring, scheme  # noqa: F401

    where = bench.Path(fields.__file__).resolve()
    if bench.SRC not in where.parents:
        raise ImportError(f"ringrsa imported from {where}, not from {bench.SRC}")
    return SimpleNamespace(
        fields=fields, keyfiles=keyfiles, lattice=lattice, primes=primes, ring=ring, scheme=scheme
    )


def run_traced(cli, seed, seconds, smoke, checks, digests):
    wl = cli.wl
    _, key_seeds, jobs = bench.setup(cli, seed, smoke, checks, digests)
    startup_ms = []
    for _ in range(2 if smoke else STARTUP_RUNS):
        took, code, _, err = cli.run("--help")
        if checks.record("--help", bench.exit_problems(code, err)):
            startup_ms.append(took * 1e3)

    numpy_before = "numpy" in sys.modules
    replay = Replay(wl, seed, key_seeds, jobs, checks, digests, _import_ringrsa())
    rec = Recorder()
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(replay.round(rec))
        if time.perf_counter() - start + 1.2 * rounds[-1] > seconds:
            break
    spans_per_round = len(rec.spans) / len(rounds)
    have = sum(1 for span in rec.spans if span[3] == "scheme.encrypt_block")
    if have < MIN_BLOCK_SAMPLES and replay.last is not None:
        replay.top_up_blocks(rec, have)
    numpy_loaded = not numpy_before and "numpy" in sys.modules
    checks.record(
        "numpy stays unimported",
        ["ringrsa.cli or the production calls imported numpy"] if numpy_loaded else [],
    )

    selfs = self_times(rec.spans)
    span_ns = span_overhead_ns()

    def med(name: str, scale: float) -> float:
        vals = [t / scale for t, _ in selfs.get(name, ())]
        return statistics.median(vals) if vals else float("nan")

    def per_unit(name: str, scale: float) -> float:
        vals = [t / scale / max(n, 1) for t, n in selfs.get(name, ())]
        return statistics.median(vals) if vals else float("nan")

    def block(name: str) -> tuple[float, float, dict]:
        vals = [t / 1e6 for t, _ in selfs.get(name, ())]
        summ = bench.summary(vals)
        nan = float("nan")
        return summ["p50"] or nan, summ["tail"] or nan, summ

    enc_p50, enc_tail, enc_summary = block("scheme.encrypt_block")
    dec_p50, dec_tail, dec_summary = block("scheme.decrypt_block")
    e_count = statistics.median_low([products(e) for e, _ in replay.exponents] or [float("nan")])
    d_count = statistics.median_low([products(d) for _, d in replay.exponents] or [float("nan")])
    ms, us = 1e6, 1e3
    metrics = {
        "cli.startup_ms": (statistics.median(startup_ms) if startup_ms else float("nan"), "ms"),
        "fields.field_build_ms": (med("fields.field_build", ms), "ms"),
        "fields.prime_search_ms": (med("fields.prime_search", ms), "ms"),
        "fields.candidates_per_prime": (replay.candidates / max(replay.primes_found, 1), "count"),
        "fields.keypair_ms": (med("fields.keypair", ms), "ms"),
        "primes.is_probable_prime_us": (med("primes.is_probable_prime", us), "us"),
        "ring.norm_ms": (med("ring.norm", ms), "ms"),
        "ring.ideal_matrix_ms": (med("ring.ideal_matrix", ms), "ms"),
        "ring.conv_mul_us": (med("ring.conv_mul", us), "us"),
        "ring.products_e": (float(e_count), "count"),
        "ring.products_d": (float(d_count), "count"),
        "lattice.hnf_ms": (med("lattice.hnf", ms), "ms"),
        "lattice.reduce_us": (med("lattice.reduce", us), "us"),
        "scheme.keygen_ms": (med("scheme.keygen", ms), "ms"),
        "scheme.encrypt_block_ms.p50": (enc_p50, "ms"),
        "scheme.encrypt_block_ms.tail": (enc_tail, "ms"),
        "scheme.decrypt_block_ms.p50": (dec_p50, "ms"),
        "scheme.decrypt_block_ms.tail": (dec_tail, "ms"),
        "scheme.encode_us_per_block": (per_unit("scheme.encode", us), "us"),
        "scheme.decode_us_per_block": (per_unit("scheme.decode", us), "us"),
        "keyfiles.parse_public_ms": (med("keyfiles.parse_public", ms), "ms"),
        "keyfiles.parse_private_ms": (med("keyfiles.parse_private", ms), "ms"),
        "keyfiles.render_keys_ms": (med("keyfiles.render_keys", ms), "ms"),
        "keyfiles.render_ct_us_per_block": (per_unit("keyfiles.render_ct", us), "us"),
        "keyfiles.parse_ct_us_per_block": (per_unit("keyfiles.parse_ct", us), "us"),
        "keyfiles.ct_expansion": (
            statistics.median_low(replay.expansions) if replay.expansions else float("nan"), "ratio"
        ),
        "trace.overhead_ms": (span_ns * spans_per_round / 1e6, "ms"),
    }
    details = {
        "rounds": len(rounds),
        "round_s": rounds,
        "spans": len(rec.spans),
        "span_overhead_ns": span_ns,
        "cli_startup_ms": bench.summary(startup_ms),
        "encrypt_block_ms": enc_summary,
        "decrypt_block_ms": dec_summary,
        "candidates": replay.candidates,
        "primes_found": replay.primes_found,
        "numpy_imported": numpy_loaded,
    }
    spans = {
        "fields": ["id", "parent", "command", "name", "start_ns", "end_ns", "count"],
        "rows": rec.spans,
    }
    return metrics, details, {"spans": spans}
