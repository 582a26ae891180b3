"""blindid benchmark: drives the ``blindid`` CLI front door in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S]

One process, one client, closed loop: each ``blindid.cli.main(argv)`` call
starts when the previous one has returned. BLAS is pinned to one thread.
Each call writes its CSV/JSON to a scratch ``--out`` file inside the
checkout, which the checker parses. With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run. ``--all`` runs every workload on the
baseline and the held-out seed (and one traced run each) and prints a table.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

from checker import check_call  # noqa: E402
from workloads import BASELINE_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_REPS = 5
# Stop starting passes after this long, so a much slower program still ends
# within the per-run limit; quality is then taken over the passes completed.
MAX_RUN_S = 120.0
TIMING_NOTE = ("user-space wall-clock timing only (time.perf_counter): no "
               "CPU pinning, no cache dropping, no hardware counters")
# Host-speed probes. The host's speed drifts by up to a quarter within a
# minute, Python and BLAS alike, and that drift swamps the spread between
# runs. So a fixed probe is timed after every pass, and each pass's goodput
# is scaled to the speed at which the probe takes its nominal time (seconds,
# typical on a 2-vCPU x86-64 VM). The probe is benchmark code: a change to
# blindid moves the pass time but not the probe's.
def _probe_small() -> None:
    """Python-bound calls on small matrices: 40 SVDs of 25 x 16 complex, and
    an interpreter loop that takes about as long."""
    import numpy as np
    rng = np.random.default_rng(0)
    for _ in range(40):
        np.linalg.svd(rng.standard_normal((25, 16)) + 1j * rng.standard_normal((25, 16)))
    total = 0
    for i in range(60000):
        total += i * i % 7


def _probe_dense() -> None:
    """One dense 1024 x 1024 complex exponential, the size of a DFT matrix."""
    import numpy as np
    k = np.arange(1024)
    np.exp(-2j * np.pi * np.outer(k, k) / 1024).sum()


HOST_PROBES = {"small": (_probe_small, 0.011), "dense": (_probe_dense, 0.075)}
# Probe repeatedly, for about this share of the time just measured, and take
# the median repeat, so that the probe's own noise stays small on long passes.
# Set-up repeats are few and short, so they get the larger share.
PASS_PROBE_SHARE = 0.03
SETUP_PROBE_SHARE = 0.1


def host_speed(kind: str, budget_s: float = 0.0) -> float:
    """Probe time over its nominal time, from probe repeats that run for at
    least budget_s seconds: above 1 when the host runs slow."""
    probe, nominal_s = HOST_PROBES[kind]
    times = []
    while not times or sum(times) < budget_s:
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / nominal_s


# Fresh-interpreter set-up cost every CLI call pays: import, parse one argv.
SETUP_SNIPPET = "import sys, blindid.cli as c; c.parse_config(sys.argv[1:])"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_version(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    import blindid
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "blindid": getattr(blindid, "__version__", "unknown"),
        "load": "closed loop, one client, in-process blindid.cli.main",
        "timing": TIMING_NOTE,
    }


def measure_setup_s(argv, reps: int = SETUP_REPS) -> list:
    """Wall seconds for a fresh interpreter to import blindid and parse argv,
    each repeat scaled to nominal host speed by the small probe."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    host_speed("small")  # warm the probe's imports and caches
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *argv],
                              env=env, cwd=ROOT, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        times.append(elapsed / host_speed("small", SETUP_PROBE_SHARE * elapsed))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    return times


def percentile_summary(samples_ms) -> dict:
    """Median plus the highest of p90/p95/p99 with at least ten samples
    beyond it, and the sample count."""
    xs = sorted(samples_ms)
    n = len(xs)
    out = {"n": n, "p50_ms": statistics.median(xs)}
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}_ms"] = xs[min(n - 1, int(round(p / 100 * (n - 1))))]
            break
    return out


class Runner:
    """Runs passes of one workload, checks every output, keeps the tallies."""

    def __init__(self, workload, seed: int):
        import blindid.cli
        self.cli = blindid.cli
        self.workload = workload
        self.seed = seed
        self.out_path = OUT_DIR / f"call-{os.getpid()}.out"
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.quality = [0.0, 0.0]
        self.quality_ops = [0, 0]  # failed, attempted over the quality passes
        self.latency_ms = {}
        self._digests = {}
        self.run_id = 0

    def _call(self, call):
        start = time.perf_counter()
        try:
            code = self.cli.main(call.argv() + ["--out", str(self.out_path)])
        except Exception as exc:  # the program crashed: the call failed
            code = 1
            self.errors.append(f"{' '.join(call.argv())}: uncaught {exc!r}")
        elapsed = time.perf_counter() - start
        try:
            text = self.out_path.read_text()
            self.out_path.unlink()
        except FileNotFoundError:
            text = ""
        return code, text, elapsed

    def run_pass(self, p: int, tracer=None) -> tuple:
        """Run pass p; return (useful operations, seconds inside cli.main)."""
        useful, busy = 0, 0.0
        for j, call in enumerate(self.workload.pass_calls(self.seed, p)):
            self.run_id += 1
            if tracer is not None:
                tracer.run = self.run_id
            code, text, elapsed = self._call(call)
            busy += elapsed
            out = check_call(call, code, text)
            key = (p % self.workload.quality_passes, j)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self._digests.setdefault(key, digest) != digest:
                out.errors.append(f"pass {p} call {j}: output differs from an "
                                  "earlier run of the same argv")
                out.failed = out.ops
            self.attempted += out.ops
            self.failed += out.failed
            self.errors += out.errors
            if p < self.workload.quality_passes:
                self.quality[0] += out.quality_num
                self.quality[1] += out.quality_den
                self.quality_ops[0] += out.failed
                self.quality_ops[1] += out.ops
            useful += out.useful
            label = " ".join(f"{k}={v}" for k, v in call.options if k != "seed")
            self.latency_ms.setdefault(f"{call.subcommand} {label}", []).append(elapsed * 1e3)
        return useful, busy


def run_untraced(workload, seed: int, seconds: float):
    setup = measure_setup_s(workload.pass_calls(seed, 0)[0].argv())
    runner = Runner(workload, seed)
    useful_ops, busy_s, speeds = [], [], []
    host_speed(workload.host_probe)  # warm the probe's imports and caches
    start = time.perf_counter()
    p = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_RUN_S or (p >= workload.quality_passes and elapsed >= seconds):
            break
        useful, busy = runner.run_pass(p)
        useful_ops.append(useful)
        busy_s.append(busy)
        speeds.append(host_speed(workload.host_probe, PASS_PROBE_SHARE * busy))
        p += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_q, attempted_q = runner.quality_ops
    metrics = {
        "setup_s": statistics.median(setup),
        "goodput_per_s": statistics.median(
            u / b * v for u, b, v in zip(useful_ops, busy_s, speeds)),
        "search_quality": runner.quality[0] / runner.quality[1],
        "ok_frac": 1.0 - failed_q / attempted_q,
        "peak_rss_mb": peak_mb,
    }
    details = {"passes": p, "setup_samples_s": setup,
               "pass_useful": useful_ops, "pass_busy_s": busy_s,
               "host_probe": workload.host_probe, "host_speed_samples": speeds}
    return runner, metrics, details


def run_traced(workload, seed: int, seconds: float):
    from tracing import Tracer, layer_metrics

    runner = Runner(workload, seed)
    tracer = Tracer()
    ratios = []
    cycles = 0
    first_cycle_spans = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < min(seconds, MAX_RUN_S):
        for p in range(workload.quality_passes):
            _, plain = runner.run_pass(p)
            tracer.install()
            try:
                _, traced = runner.run_pass(p, tracer)
            finally:
                tracer.uninstall()
            ratios.append(traced / plain)
        cycles += 1
        first_cycle_spans = first_cycle_spans or len(tracer.spans)
    metrics = layer_metrics(tracer.spans, cycles)
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    details = {"cycles": cycles, "spans": len(tracer.spans)}
    return runner, metrics, details, tracer.spans[:first_cycle_spans]


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _write_spans(path: Path, spans) -> None:
    with path.open("w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent,
                                 "run": s.run, "info": s.info}) + "\n")


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    if not (SRC / "blindid" / "__init__.py").is_file():
        print(f"error: no blindid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    prov = provenance(name, seed, trace)
    spans = None
    if trace:
        runner, metrics, details, spans = run_traced(workload, seed, seconds)
    else:
        runner, metrics, details = run_untraced(workload, seed, seconds)
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    correct = not runner.errors
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}

    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# workload {name}: {workload.why}; stresses {workload.stresses}; "
          f"bypasses {workload.bypasses}")
    print(f"# search_quality = {workload.quality}")
    print(f"# failed_frac = {runner.failed}/{runner.attempted}"
          f" = {runner.failed / runner.attempted:.6g}; correct = {correct}")
    for label, samples in sorted(runner.latency_ms.items()):
        summary = percentile_summary(samples)
        print("# latency " + " ".join(f"{k}={v:.6g}" for k, v in summary.items())
              + f"  [{label}]")
    for k, u in units.items():
        print(f"# metric {k} = {metrics[k]:.6g} {u}")
    for err in runner.errors[:20]:
        print(f"# check failed: {err}")

    stem = OUT_DIR / f"{name}-seed{seed}-trace{trace}"
    record = dict(result, provenance=prov, details=details,
                  errors=runner.errors,
                  latency={k: percentile_summary(v) for k, v in runner.latency_ms.items()})
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        _write_spans(stem.with_suffix(".spans.jsonl"), spans)
    print(json.dumps(result))
    return 0


def run_all(seconds: float) -> int:
    """Every workload on both seeds untraced, plus one traced run each."""
    status = 0
    for name in WORKLOADS:
        for seed, trace in ((BASELINE_SEED, 0), (HELD_OUT_SEED, 0), (BASELINE_SEED, 1)):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed={seed} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            frac = result["failed"] / result["attempted"]
            print(f"== {name} seed={seed} trace={trace} correct={result['correct']} "
                  f"failed_frac={result['failed']}/{result['attempted']}={frac:.6g}")
            for k, m in result["metrics"].items():
                print(f"   {k:44s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload on the baseline and held-out seeds")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
