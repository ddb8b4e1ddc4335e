"""Shared helpers: statistics, run metadata, set-up probes, output checks."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs from (its working directory).
ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
#: Scratch space for logs, fleet output and span files (git-ignored).
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters started per run to time set-up (median reported);
#: the first also runs one op and reports peak memory.
SETUP_PROBES = 3


def median(values) -> float:
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail(values) -> tuple[str, float]:
    """The gated tail: the higher of p90 and p80 that leaves at least
    ten samples beyond it, else the median.  Not p99: on a shared 2-CPU
    VM single requests stall for 15-40 ms at random, and a p99 over
    ~1000 samples moved 4x between passes of one seed, measuring the
    host, not the program."""
    for q in (0.90, 0.80):
        if len(values) * (1.0 - q) >= 10:
            return f"p{round(q * 100)}", percentile(values, q)
    return "p50", median(values)


def peak_rss_mb(children_mb: float) -> float:
    """Peak resident memory of this process (plus ``children_mb``).

    Read from ``VmHWM``, the high-water mark of this process image:
    ``ru_maxrss`` survives ``exec``, so a process spawned from a large
    one (a probe from the timed run, the benchmark from its caller)
    would report its parent's peak instead of its own."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0 + children_mb
    raise RuntimeError("no VmHWM in /proc/self/status")


def children_peak_rss_mb() -> float:
    """Peak resident memory of the largest child reaped so far.  A child
    spawned by this process carries this process's peak at spawn time
    into its own (see :func:`peak_rss_mb`), so this is exact when, as
    for pool workers, the child's peak exceeds that."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def sha256_json(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def source_digest() -> str:
    """SHA-256 over the program's source files, in path order (the
    checkout the benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    return done.stdout.strip() or None


def metadata(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def workdir(name: str) -> Path:
    """A fresh directory ``name`` under :data:`OUT`."""
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_probes(workload: str, seed: int, ref) -> list[dict]:
    """Time set-up in :data:`SETUP_PROBES` fresh interpreters, one after
    another: each probe runs ``run.py --setup-probe``, prints its phase
    times once ready and its peak memory before it exits; the first
    probe runs one op in between.  The wall time from spawn to the
    first line is the probe's raw ``setup_s``; measuring memory in a
    process that set up once keeps it from counting the ops a timed run
    repeats (it repeats exactly per seed, so one probe measures it).  A
    host reference sample (``ref``) follows every probe."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-probe",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    probes = []
    for index in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
            cmd + (["--probe-op"] if index == 0 else []),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - started
            rest = child.stdout.read().splitlines()
            code = child.wait(timeout=60)
        if code != 0 or not line.strip() or not rest:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        ref.sample()
        probes.append({"setup_s": ready, **json.loads(line), **json.loads(rest[-1])})
    return probes


class Checks:
    """Named pass/fail output checks of one run."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def close(self, name: str, measured: float, expected: float, tol: float) -> bool:
        ok = abs(measured - expected) <= tol * max(1.0, abs(expected))
        return self.check(name, ok, f"{float(measured)!r} vs {float(expected)!r}")

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.results)

    def lines(self) -> list[str]:
        out = []
        for name, ok, detail in self.results:
            mark = "ok  " if ok else "FAIL"
            out.append(f"  [{mark}] {name}" + (f"  ({detail})" if detail else ""))
        return out


def same_counts(checks: Checks, label: str, per_op: list[dict]) -> dict:
    """Check that exact-repeat counts repeat exactly; return them."""
    first = per_op[0]
    for index, counts in enumerate(per_op[1:], start=2):
        checks.check(
            f"{label} counts repeat (op 1 vs op {index})",
            counts == first,
            "" if counts == first else f"{first} vs {counts}",
        )
    return first
