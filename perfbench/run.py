"""exactspan benchmark: one seeded, closed-loop, single-process workload per
run, every answer checked.

    python3 perfbench/run.py --workload proofs-small --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass.  The last stdout line is the result
object; the line before it is the run's context (sample counts, error
rate, output digest, Python, CPU, ``src/`` size).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
COLD_START_RUNS = 7
# Times are reported at the speed where calibrate() takes this long; the
# shared host's speed drifts by +-20 % over minutes, and scaling by a
# calibration interleaved every CAL_EVERY seconds cancels that drift.
REF_CALIBRATION_S = 0.005
CAL_EVERY = 0.1
UNITS = {  # end-to-end metrics
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_import():
    """Import exactspan from src/ as a first-time user would; earlier
    copies are dropped so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == "exactspan" or n.startswith("exactspan.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("exactspan")
    importlib.import_module("exactspan.cli")
    return lib


def setup(workload: str, seed: int, tmpdir: str, tiny: bool):
    """Import, generate inputs and write files; returns (lib, ops)."""
    lib = fresh_import()
    return lib, WORKLOADS[workload](lib, random.Random(seed), tmpdir, tiny)


_BIG = [3 ** (200 + 7 * i) | 1 for i in range(12)]


def _small_int_kernel() -> None:
    """Gauss-Jordan on a fixed 14×14 matrix mod 65521 and a Fraction sum."""
    p = 65521
    rows = [[(i * 31 + j * 17 + i * j) % p for j in range(14)] for i in range(14)]
    r = 0
    for c in range(14):
        pr = next((i for i in range(r, 14) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(14):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k, k + 1)


def _big_int_kernel() -> None:
    """Bareiss-style updates on 300-2000 bit integers and Fraction reduction."""
    acc = 0
    for i in range(12):
        for j in range(12):
            acc = (_BIG[i] * _BIG[j] - acc * _BIG[(i + j) % 12]) // _BIG[(i * j) % 12]
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(_BIG[k % 12] % 1000003, _BIG[(k + 3) % 12] % 999983 + 1)


def calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes right now (about 5 ms).  It
    mixes the arithmetic the workloads do: small ints mod p, Fractions, big
    integers.  It never touches exactspan, and the collector is off while it
    runs, so the program's heap cannot slow it down."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(8):
            _small_int_kernel()
        for _ in range(2):
            _big_int_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Pass:
    """Runs every op once and checks each answer as it arrives, so answers
    do not pile up on the heap.  Calibrates every CAL_EVERY seconds; each
    op's latency is scaled to the reference speed by the mean of the two
    calibrations around it."""

    def __init__(self, ops: List[Op], canon: Optional[list] = None):
        """Canonical answers are appended to ``canon`` when given."""
        self.raw: List[float] = []
        self.cals: List[float] = []
        self.failed = 0
        factors: List[float] = []
        gc.collect()
        cal = calibrate()
        self.cals.append(cal)
        segment: List[float] = []
        last = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # any exception is a failed operation
                out = exc
            t1 = time.perf_counter()
            segment.append(t1 - t0)
            self._check(op, out, canon)
            if t1 - last >= CAL_EVERY or i == len(ops) - 1:
                after = calibrate()
                self.cals.append(after)
                factors += [REF_CALIBRATION_S / ((cal + after) / 2)] * len(segment)
                self.raw += segment
                segment, cal, last = [], after, time.perf_counter()
        self.latencies = [x * f for x, f in zip(self.raw, factors)]
        self.wall = sum(self.raw)
        self.time = sum(self.latencies)

    def _check(self, op: Op, out, canon: Optional[list]) -> None:
        try:
            if isinstance(out, Exception):
                raise out
            raw = op.check(out)
        except Exception as exc:
            self.failed += 1
            print(f"FAILED {op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            raw = None
        if canon is not None:
            canon.append(repr((op.kind, raw)))


def cold_start_ms(tmpdir: str) -> float:
    path = os.path.join(tmpdir, "cold.mat")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("field gf 2\ndims 2 2\n1 0\n1 1\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(COLD_START_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "exactspan.cli", "rank", "-s", path],
                       env=env, cwd=tmpdir, check=True, capture_output=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "exactspan").glob("*.py"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, tmpdir: str, tiny: bool = False) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _, ops = setup(workload, seed, tmpdir, tiny)
        elapsed = time.perf_counter() - t0
        setup_times.append(elapsed * REF_CALIBRATION_S / statistics.median(calibrate() for _ in range(3)))

    canon: list = []
    passes: List[Pass] = []
    failed = attempted = 0
    budget = seconds / 2 if trace else seconds
    while not passes or sum(p.wall for p in passes) < budget:
        p = Pass(ops, canon if not passes else None)
        failed += p.failed
        attempted += len(ops)
        passes.append(p)

    digest = hashlib.sha256("\n".join(canon).encode()).hexdigest()
    digest_ok = True
    if seed == DEFAULT_SEED and not tiny:
        with open(HERE / "digests.json", encoding="utf-8") as fh:
            digest_ok = json.load(fh).get(workload) == digest
        if not digest_ok:
            print(f"output digest {digest} differs from digests.json", file=sys.stderr)

    ops_per_s = statistics.median(len(ops) / p.time for p in passes)
    latencies = [x for p in passes for x in p.latencies]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    raw_deciles = statistics.quantiles([x for p in passes for x in p.raw], n=10, method="inclusive")
    metrics: Dict[str, float]
    if trace:
        with tracing.Tracer() as tracer:
            traced = Pass(ops)
        failed += traced.failed
        attempted += len(ops)
        metrics = tracing.layer_metrics(tracer, len(ops))
        speed = traced.time / traced.wall
        metrics = {k: v * speed if k.endswith("ms") else v for k, v in metrics.items()}
        metrics["cli.cold_start_ms"] = cold_start_ms(tmpdir)
        metrics["trace.overhead_ratio"] = (len(ops) / traced.time) / ops_per_s
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": deciles[4] * 1e3,
            "latency_p90_ms": deciles[8] * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    context = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(x > deciles[8] for x in latencies),
        "error_rate": failed / attempted,
        "digest": digest,
        "calibration_ms": statistics.median(c for p in passes for c in p.cals) * 1e3,
        "unscaled": {
            "ops_per_s": statistics.median(len(ops) / p.wall for p in passes),
            "latency_p50_ms": raw_deciles[4] * 1e3,
            "latency_p90_ms": raw_deciles[8] * 1e3,
        },
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "src_loc": src_loc(),
    }
    return {
        "context": context,
        "result": {
            "correct": failed == 0 and digest_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        },
    }


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("ms"):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def main(argv: Optional[List[str]] = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "exactspan" / "__init__.py").is_file():
        print(f"error: exactspan sources not found under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmpdir, tiny)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(out["context"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
