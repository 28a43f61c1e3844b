"""ringrsa benchmark: the CLI end to end, and each module as a layer.

Run from the repository root:

    python3 perfbench/run.py --workload inert-q512-bulk --seed 0 --seconds 32 --trace 0

With --trace 0 the benchmark drives the real CLI (`python -m ringrsa
keygen|encrypt|decrypt`), one child process at a time (closed loop, one
client), and prints the end-to-end metrics.  The benchmark and its children
run on one CPU, and every timed command is followed by the workload's
reference child (reference.py); each time is scaled by the reference runs
around it, which takes out the host's changes of speed (see Clock).  With
--trace 1 it replays the same commands in this process, calling each
module's public functions in the order the CLI calls them with a span
around each call (see layers.py), and prints the per-layer metrics.  Every command's output is checked: exit code,
roundtrip, and the SHA-256 of key files and ciphertexts against digests.json.

The last stdout line is the result JSON; the line before it holds the
details (sample counts, tail percentiles, environment stamp), which are also
written with the spans to .perfbench_out/.  --smoke shrinks every workload
to one key (two without a bulk key) and a MESSAGE_BYTES payload, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
MESSAGE_BYTES = 32
# Scaled times are seconds on a CPU where the reference child takes this long.
REFERENCE_S = 0.1
# Reference runs on each side of a command that its time is scaled by.
REFERENCE_WINDOW = 2


@dataclass(frozen=True)
class Workload:
    """One field/mode configuration and the commands run on it.

    key_seeds are the keygen seeds timed for keygen_s; they are fixed per
    workload so that every run and every version times the same prime
    searches.  A bulk workload encrypts and decrypts one payload of
    payload_bytes under the key of bulk_key_seed.  A workload without a
    bulk key encrypts and decrypts a MESSAGE_BYTES message under the key of
    each of its keygen seeds.  Set-up makes these keys; payload bytes come
    from --seed.  reference holds the arguments of reference.py (degree,
    coefficient bits, repetitions): a miniature of the workload's own
    arithmetic that takes about REFERENCE_S on a calm CPU.
    """

    name: str
    field: str
    mode: str
    key_seeds: tuple[int, ...]
    bulk_key_seed: int | None
    payload_bytes: int
    reference: tuple[int, int, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "inert-q512-bulk", "quadratic:d=2", "inert:bits=512",
            (0x101, 0x102, 0x103, 0x104, 0x105), 0x100, 4096, (2, 1024, 3000),
        ),
        Workload(
            "element-c16-bulk", "cyclotomic:m=16", "element:bound=100",
            (0x201, 0x202, 0x203, 0x204, 0x205), 0x200, 16384, (8, 100, 1800),
        ),
        Workload(
            "element-c64-keys", "cyclotomic:m=64", "element:bound=4",
            (0x301, 0x302, 0x303, 0x304, 0x305, 0x306), None, MESSAGE_BYTES, (32, 40, 160),
        ),
    )
}


@dataclass(frozen=True)
class Job:
    """One encrypt + decrypt of a payload under one key pair."""

    key_seed: int
    pub: Path
    priv: Path
    payload: bytes
    plain: Path
    cipher: Path
    out: Path


class Checks:
    """Counts attempted commands and failed ones, keeping the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")
        return not problems


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def key_problems(digests: dict, wl: Workload, seed: int, pub: Path, priv: Path) -> list[str]:
    want = digests[wl.name]["keys"].get(f"{seed:#x}")
    if want is None:
        return [f"no recorded digest for key seed {seed:#x}"]
    got = [sha256_file(pub), sha256_file(priv)]
    return [] if got == want else [f"key digests {got} != recorded {want}"]


def cipher_problems(digests: dict, wl: Workload, seed: int, job: Job) -> list[str]:
    """Ciphertext digest check; digests are recorded for DEFAULT_SEED payloads."""
    if seed != DEFAULT_SEED:
        return []
    label = f"{job.key_seed:#x}/{len(job.payload)}"
    want = digests[wl.name]["ciphertext"].get(label)
    if want is None:
        return [f"no recorded ciphertext digest for {label}"]
    got = sha256_file(job.cipher)
    return [] if got == want else [f"ciphertext digest {got} != recorded {want}"]


def payload_for(wl: Workload, seed: int, key_seed: int, nbytes: int) -> bytes:
    return random.Random(f"{wl.name}/{seed}/{key_seed:#x}").randbytes(nbytes)


class Cli:
    """Runs children one at a time through the spawner (spawner.py).

    Children run `python -m ringrsa` from the checkout's src.  Close the
    Cli to stop the spawner and any child still running.
    """

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.child: int | None = None
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", "-u", str(HERE / "spawner.py")],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.spawner_peak_kib = int(self.spawner.stdout.readline())

    def close(self) -> None:
        if self.child is not None:
            try:
                os.kill(self.child, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def spawn(self, argv: list[str]) -> tuple[float, int, int, str]:
        """(wall seconds, exit code, ru_maxrss KiB, stderr) of one child."""
        err_path = WORK / "child.err"
        self.spawner.stdin.write("\0".join([str(err_path), *argv]) + "\n")
        self.spawner.stdin.flush()
        self.child = int(self.spawner.stdout.readline())
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (self.child, signal.SIGKILL))
        killer.start()
        try:
            took, code, rss, peak = self.spawner.stdout.readline().split()
        finally:
            killer.cancel()
        self.child = None
        self.spawner_peak_kib = int(peak)
        stderr = err_path.read_text(errors="replace").strip()
        return float(took), int(code), int(rss), stderr

    def run(self, *args: str) -> tuple[float, int, int, str]:
        return self.spawn([sys.executable, "-m", "ringrsa", *args])

    def keygen(self, seed: int, pub: Path, priv: Path):
        return self.run(
            "keygen", "--field", self.wl.field, "--mode", self.wl.mode, "--seed", f"{seed:x}",
            "--pub", str(pub), "--priv", str(priv),
        )

    def reference(self) -> float:
        took, code, _, err = self.spawn(
            [sys.executable, str(HERE / "reference.py"), *map(str, self.wl.reference)]
        )
        if code != 0:
            raise RuntimeError(f"reference child failed with exit {code}: {err}")
        return took


class Clock:
    """Scales each command's wall time by the reference runs around it.

    Other tenants of a shared host slow a CPU by up to 2x, in stretches of
    seconds to minutes, and the two CPUs of a small virtual machine change
    speed independently.  The benchmark and its children are pinned to one
    CPU (see main), and the workload's reference child runs on it right after
    every timed command.  A command's scaled time is its wall time times
    REFERENCE_S over the median of the REFERENCE_WINDOW reference runs on
    either side of it: seconds on a CPU where the reference takes
    REFERENCE_S.  The reference is a miniature of the workload's arithmetic,
    so it slows about as much as the commands do.
    """

    def __init__(self, cli: Cli) -> None:
        self.cli = cli
        self.references = [cli.reference()]

    def tick(self, took: float) -> tuple[float, int]:
        """Runs the reference after a command; (wall time, index of that reference)."""
        self.references.append(self.cli.reference())
        return took, len(self.references) - 1

    def scaled(self, sample: tuple[float, int]) -> float:
        took, after = sample
        near = self.references[max(0, after - REFERENCE_WINDOW) : after + REFERENCE_WINDOW]
        return took * REFERENCE_S / statistics.median(near)


def exit_problems(code: int, stderr: str) -> list[str]:
    last = stderr.splitlines()[-1] if stderr else ""
    return [] if code == 0 else [f"exit {code}: {last}"]


def key_paths(seed: int) -> tuple[Path, Path]:
    return WORK / f"k{seed:x}.pub", WORK / f"k{seed:x}.priv"


def make_job(wl: Workload, seed: int, key_seed: int, nbytes: int) -> Job:
    pub, priv = key_paths(key_seed)
    tag = f"m{key_seed:x}"
    job = Job(
        key_seed, pub, priv, payload_for(wl, seed, key_seed, nbytes),
        WORK / f"{tag}.bin", WORK / f"{tag}.ct", WORK / f"{tag}.out",
    )
    job.plain.write_bytes(job.payload)
    return job


def setup(cli: Cli, seed: int, smoke: bool, checks: Checks, digests: dict):
    """Fresh work directory, the workload's keys by CLI keygen, and payloads.

    Returns (seconds taken, key seeds to time, jobs).  A bulk workload has
    one job under its bulk key; a workload without one has a job per keygen
    seed.  --smoke keeps one key seed (two without a bulk key) and a
    MESSAGE_BYTES payload.
    """
    wl = cli.wl
    t0 = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    key_seeds = wl.key_seeds
    nbytes = wl.payload_bytes
    if smoke:
        key_seeds = key_seeds[: 1 if wl.bulk_key_seed is not None else 2]
        nbytes = min(nbytes, MESSAGE_BYTES)
    job_keys = [wl.bulk_key_seed] if wl.bulk_key_seed is not None else key_seeds
    for s in job_keys:
        pub, priv = key_paths(s)
        _, code, _, err = cli.keygen(s, pub, priv)
        problems = exit_problems(code, err) or key_problems(digests, wl, s, pub, priv)
        checks.record(f"setup keygen {s:#x}", problems)
    jobs = [make_job(wl, seed, s, nbytes) for s in job_keys]
    return time.perf_counter() - t0, key_seeds, jobs


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its value.

    None below 20 samples, where that percentile would not lie above the median.
    """
    n = len(samples)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(samples)[rank - 1]


def summary(samples: list[float]) -> dict:
    t = tail(samples)
    return {
        "n": len(samples),
        "p50": statistics.median(samples) if samples else None,
        "tail_pct": t[0] if t else None,
        "tail": t[1] if t else None,
    }


def over_keys(times: dict[int, list[float]]) -> float:
    """Geometric mean over keys (or keygen seeds) of each one's median time.

    Keys differ in cost, so each key's samples are summarised by their
    median first, and every key weighs the same in proportion, however many
    repeats it got.  A median over keys would rest on the few samples of
    the middle key alone.
    """
    medians = [statistics.median(ts) for ts in times.values() if ts]
    return statistics.geometric_mean(medians) if medians else math.nan


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload_seed": seed,
        "git_commit": git_commit(),
    }


def run_untraced(cli: Cli, seed: int, seconds: int, smoke: bool, checks: Checks, digests: dict):
    wl = cli.wl
    clock = Clock(cli)
    setup_samples = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        took, key_seeds, jobs = setup(cli, seed, smoke, checks, digests)
        setup_samples.append(clock.tick(took))
    by_key = {job.key_seed: job for job in jobs}
    rss_kib: list[int] = []
    # kind -> key -> [(wall seconds, index of the reference after it)]
    samples: dict[str, dict[int, list[tuple[float, int]]]] = {
        "keygen": {s: [] for s in key_seeds},
        "encrypt": {job.key_seed: [] for job in jobs},
        "decrypt": {job.key_seed: [] for job in jobs},
    }

    def timed(kind: str, key: int, result, problems: list[str]) -> None:
        took, code, rss, err = result
        problems = exit_problems(code, err) or problems
        if kind != "keygen" and not problems:
            # A reading at or below the spawner's own peak may be the
            # spawner's (see spawner.py), so it says nothing of the program.
            if rss <= cli.spawner_peak_kib:
                problems = [f"ru_maxrss {rss} KiB is not above the spawner's {cli.spawner_peak_kib} KiB"]
            rss_kib.append(rss)
        if checks.record(f"{kind} {key:#x}", problems):
            samples[kind][key].append(clock.tick(took))

    def enc_dec(job: Job) -> None:
        result = cli.run(
            "encrypt", "--pub", str(job.pub), "--in", str(job.plain), "--out", str(job.cipher)
        )
        problems = [] if result[1] else cipher_problems(digests, wl, seed, job)
        timed("encrypt", job.key_seed, result, problems)
        result = cli.run(
            "decrypt", "--priv", str(job.priv), "--in", str(job.cipher), "--out", str(job.out)
        )
        if result[1] == 0 and job.out.read_bytes() != job.payload:
            problems = ["decrypted bytes differ from the payload"]
        else:
            problems = []
        timed("decrypt", job.key_seed, result, problems)

    # Every kind of command is spread through the run: each keygen is
    # followed by an encrypt and a decrypt.  Key seeds are taken in turn,
    # at least once each, and no step starts unless 1.2 times the last one
    # still fits.
    kg_pub, kg_priv = WORK / "keygen.pub", WORK / "keygen.priv"
    start = time.perf_counter()
    steps = 0
    while True:
        t_step = time.perf_counter()
        s = key_seeds[steps % len(key_seeds)]
        result = cli.keygen(s, kg_pub, kg_priv)
        problems = [] if result[1] else key_problems(digests, wl, s, kg_pub, kg_priv)
        timed("keygen", s, result, problems)
        enc_dec(by_key.get(s, jobs[0]))
        steps += 1
        now = time.perf_counter()
        if steps >= len(key_seeds) and now - start + 1.2 * (now - t_step) > seconds:
            break
    setup_s = [clock.scaled(sample) for sample in setup_samples]
    scaled_s = {
        kind: {key: [clock.scaled(sample) for sample in ss] for key, ss in by_key.items()}
        for kind, by_key in samples.items()
    }
    payload_kib = len(jobs[0].payload) / 1024
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "keygen_s": (over_keys(scaled_s["keygen"]), "s"),
        "encrypt_kib_s": (payload_kib / over_keys(scaled_s["encrypt"]), "KiB/s"),
        "decrypt_kib_s": (payload_kib / over_keys(scaled_s["decrypt"]), "KiB/s"),
        "peak_rss_mib": (max(rss_kib) / 1024 if rss_kib else math.nan, "MiB"),
    }
    details = {
        "steps": steps,
        "payload_bytes": len(jobs[0].payload),
        "reference_s": summary(clock.references),
        "setup_wall_s": [took for took, _ in setup_samples],
        "setup_s": setup_s,
        **{
            f"{kind}_wall_s": summary([took for ss in by_key.values() for took, _ in ss])
            for kind, by_key in samples.items()
        },
        **{
            f"{kind}_scaled_s": summary([t for ts in by_key.values() for t in ts])
            for kind, by_key in scaled_s.items()
        },
        "spawner_peak_rss_kib": cli.spawner_peak_kib,
        "peak_rss_kib": max(rss_kib, default=None),
    }
    record = {
        "reference_s": clock.references,
        "setup": setup_samples,
        **{kind: {f"{k:#x}": v for k, v in by_key.items()} for kind, by_key in samples.items()},
    }
    return metrics, details, {"samples": record}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "ringrsa" / "__init__.py").is_file():
        print(f"error: no ringrsa sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    checks = Checks()
    digests = load_digests()
    # One CPU for the benchmark and, by inheritance, every child: the
    # reference runs then see the speed of the CPU the commands ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(parents=True, exist_ok=True)
    cli = None
    try:
        cli = Cli(wl)
        run = run_untraced
        if args.trace:
            import layers

            run = layers.run_traced
        metrics, details, record = run(cli, args.seed, args.seconds, args.smoke, checks, digests)
    finally:
        if cli is not None:
            cli.close()
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    details["fail_ratio"] = checks.failed / max(checks.attempted, 1)
    details["failures"] = checks.reasons
    details["environment"] = environment(args.seed)
    # One file per workload and mode, so repeated runs do not pile up spans.
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"details": details, **record}, fh)
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": checks.failed == 0 and finite,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": v if math.isfinite(v) else None, "unit": u}
            for name, (v, u) in metrics.items()
        },
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


