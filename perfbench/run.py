"""Benchmark of the ``lsa`` package: one workload per invocation, one client.

    python3 perfbench/run.py --workload catalog_audit --seed 1 --seconds 30 --trace 0

Runs from any working directory without installing ``lsa``: the ``src``
directory next to this one goes on ``sys.path``.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it (starting with ``#``) give the environment, the failed
fraction and the raw wall-clock figures.

``--trace 0`` measures the workload closed loop (the next operation starts
when the previous one and its output check are done) for ``--seconds``,
stopping only between batches, and reports the end-to-end metrics.  Times
are scaled to a reference machine speed (see ``speed.py``).  Set-up (import,
input generation, warm-up) is timed in this process and in two fresh child
processes; the median is reported.

``--trace 1`` runs a fixed, seed-determined list of operations twice, first
untraced and then with span tracing installed, and reports the per-layer
metrics and the tracing overhead.  Counts depend only on the seed and
``--seconds``.  Spans are written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2
TRACED_BATCHES_PER_S = 0.1  # a traced run executes one batch per ten seconds of --seconds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("catalog_audit", "affine_audit", "file_commands"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_sha() -> str | None:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "lsa").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Tally:
    """Outcomes and clock readings of executed operations."""

    def __init__(self):
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.outcomes: Counter = Counter()
        self.by_kind: Counter = Counter()
        self.details: list[str] = []

    def add(self, kind: str, t0: float, t1: float, outcome: str, detail: str) -> None:
        self.t0.append(t0)
        self.t1.append(t1)
        self.outcomes[outcome] += 1
        self.by_kind[(kind, outcome)] += 1
        if detail and len(self.details) < 20:
            self.details.append(f"{kind}: {outcome}: {detail}")

    def extend(self, other: "Tally") -> None:
        self.t0 += other.t0
        self.t1 += other.t1
        self.outcomes += other.outcomes
        self.by_kind += other.by_kind
        self.details += other.details

    def latencies(self, track):
        """(wall seconds without the kernel runs inside, the same scaled to
        the reference speed) per operation."""
        import numpy as np

        t0, t1 = np.asarray(self.t0), np.asarray(self.t1)
        wall = t1 - t0 - track.kernel_inside(t0, t1)
        return wall, wall * track.scale(t0, t1)

    @property
    def attempted(self) -> int:
        return len(self.t0)

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    @property
    def wrong(self) -> int:
        return self.outcomes["wrong"]


def run_ops(ops, tally: Tally, tracer=None) -> None:
    """Execute ops in order; each output check runs after its clock stops."""
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        result = op.run()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        tally.add(op.kind, t0, t1, *op.check(result))


def setup(workload: str, seed: int, workdir: Path):
    """Import ``lsa``, build the first batch of inputs and warm up; timed by the caller."""
    import workloads

    wl = workloads.make(workload, seed, workdir)
    first = wl.batch(0)
    warm = Tally()
    run_ops(wl.warm_up(), warm)
    return wl, first, warm


def probe_setup(args) -> list[dict]:
    out = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe {k} failed: {proc.stderr.strip()[-400:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(seconds: float, wl, first, tally: Tally) -> None:
    """Closed loop over batches until ``seconds`` have passed."""
    index, batch = 0, first
    start = time.perf_counter()
    while True:
        run_ops(batch, tally)
        index += 1
        if time.perf_counter() - start >= seconds:
            return
        batch = wl.batch(index)


def trace_passes(seconds: float, wl, first):
    """The same seed-determined ops untraced, then traced: (plain, traced, tracer)."""
    import tracing

    n = max(1, round(seconds * TRACED_BATCHES_PER_S))
    ops = [op for i in range(n) for op in (first if i == 0 else wl.batch(i))]
    plain, traced = Tally(), Tally()
    run_ops(ops, plain)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        run_ops(ops, traced, tracer)
    finally:
        restore()
    return plain, traced, tracer


def layer_report(plain: Tally, traced: Tally, tracer, track) -> dict:
    import numpy as np
    import tracing

    _, plain_lat = plain.latencies(track)
    _, traced_lat = traced.latencies(track)
    metrics = tracing.layer_metrics(tracer, track, track.scale(np.asarray(traced.t0), np.asarray(traced.t1)))
    metrics["trace.untraced_ops_per_s"] = len(plain_lat) / plain_lat.sum()
    metrics["trace.traced_ops_per_s"] = len(traced_lat) / traced_lat.sum()
    metrics["trace.overhead_ratio"] = traced_lat.sum() / plain_lat.sum()
    return {m["name"]: metric(metrics[m["name"]], m["unit"]) for m in tracing.LAYER_METRICS}


def end_to_end(lat, tally: Tally, setup_runs: list[float], peak_rss_mb: float) -> dict:
    import numpy as np

    return {
        "ops_per_s": metric(len(lat) / lat.sum(), "1/s"),
        "op_p50_ms": metric(np.percentile(lat, 50) * 1000, "ms"),
        "op_p90_ms": metric(np.percentile(lat, 90) * 1000, "ms"),
        "ok_frac": metric((tally.attempted - tally.failed) / tally.attempted, "fraction"),
        "setup_s": metric(statistics.median(setup_runs), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lsa" / "__init__.py").is_file():
        print(f"error: no lsa package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        import speed  # imports numpy, as lsa would

        tally = Tally()
        with speed.SpeedTrack() as track:
            wl, first, warm = setup(args.workload, args.seed, workdir)
            t1 = time.perf_counter()
            if args.trace:
                plain, traced, tracer = trace_passes(args.seconds, wl, first)
            elif not args.setup_probe:
                measure(args.seconds, wl, first, tally)
        setup_raw = (t1 - t0) - float(track.kernel_inside(t0, t1))
        setup_scaled = setup_raw * float(track.scale(t0, t1))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_scaled, "raw_s": setup_raw, "wrong": warm.wrong}))
            return 0
        raw = {}
        if args.trace:
            metrics = layer_report(plain, traced, tracer, track)
            tally.extend(plain)
            tally.extend(traced)
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
            setup_runs = [setup_scaled]
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            probes = probe_setup(args)
            setup_runs = [setup_scaled] + [p["setup_s"] for p in probes]
            warm.outcomes["wrong"] += sum(p["wrong"] for p in probes)
            wall, scaled = tally.latencies(track)
            metrics = end_to_end(scaled, tally, setup_runs, peak_rss_mb)
            raw = end_to_end(wall, tally, [setup_raw] + [p["raw_s"] for p in probes], peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy as np

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": src_digest(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "speed_reference_s": speed.REFERENCE_S,
    }
    summary = {
        "env": env,
        "ops": tally.attempted,
        "failed_frac": tally.failed / tally.attempted,
        "kernel_samples": len(track.start),
        "setup_runs_s": setup_runs,
        "raw_wall_clock": raw,
        "outcomes_by_kind": {f"{k}:{o}": c for (k, o), c in sorted(tally.by_kind.items())},
        "warm_up_wrong": warm.wrong,
        "failure_details": warm.details + tally.details,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "metrics": metrics}, indent=1)
    )
    print("# " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload}: {tally.attempted} ops (latency samples), failed_frac={summary['failed_frac']:.6g}, "
          f"set-up runs={len(setup_runs)}, median kernel={statistics.median(np.subtract(track.end, track.start)) * 1000:.3f} ms")
    for k, m in metrics.items():
        wall = f"  (raw wall clock {raw[k]['value']:.6g})" if k in raw else ""
        print(f"#   {k} = {m['value']:.6g} {m['unit']}{wall}")
    result = {
        "correct": tally.wrong == 0 and warm.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
