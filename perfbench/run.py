"""symdual benchmark: closed-loop CLI jobs, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports symdual from
its src/ directory and exits 2 when there is none.  One client sends the next
job only after the previous one returns: each job is `symdual.cli.main` run
in this process with the argv a user would type, its stdout captured.

A pass is the workload's full job list (see workloads.py).  With --trace 0
the run measures the first pass in full, then jobs of further passes until
the summed job time reaches S seconds, and reports the end-to-end metrics.
With --trace 1 it runs the first pass once untraced and once traced and
reports the per-layer metrics.  Outputs are checked after each job, outside
the timed region.  Job and set-up times are scaled to a reference host
speed measured next to each of them (see calibrate.py); per-layer self
times are wall seconds.

The last line of stdout is the result object; the lines before it print each
metric with its name and unit.  A record with the schema fields, per-job
stdout digests and counts is written to perfbench/out/, and with --trace 1
the spans too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import workloads
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# Integration points per order statistic in quantile().
QUANTILE_STEPS = 64


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_job(cli, argv) -> tuple[int, float, str, str]:
    """One CLI invocation: exit code, wall seconds, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def tail_percentile(jobs: int) -> int:
    """The highest whole percentile that leaves at least ten of `jobs` above it.

    Never below the median, for passes of fewer than 20 jobs.
    """
    p = 100 * (jobs - 10) // jobs
    while p > 0 and jobs - -(-p * jobs // 100) < 10:
        p -= 1
    return max(p, 50)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values`.

    A weighted mean of all order statistics, the i-th of n weighted by the
    Beta(p(n+1), (1-p)(n+1)) mass on [(i-1)/n, i/n].  A pass holds a few
    dozen distinct job sizes, so a single order statistic jumps from one
    job's time to the next one's when two jobs near the rank swap places;
    this estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)

    # Trapezoid rule, QUANTILE_STEPS points per order statistic.
    h = 1.0 / (n * QUANTILE_STEPS)
    weights = []
    prev = density(0.0)
    for i in range(n):
        mass = 0.0
        for k in range(1, QUANTILE_STEPS + 1):
            cur = density((i * QUANTILE_STEPS + k) * h)
            mass += (prev + cur) * h / 2
            prev = cur
        weights.append(mass)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, ordered)) / total


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


class Run:
    """Runs jobs, checks them and keeps what the metrics and the record need."""

    def __init__(self, cli, golden):
        self.cli = cli
        self.golden = golden
        # Reference-host seconds per job (see calibrate.py), and wall seconds.
        self.times: list[float] = []
        self.wall: list[float] = []
        self.digests: list[dict] = []
        self.failures: list[dict] = []
        self.oracle_jobs: list = []

    def job(self, job) -> float:
        """Run, time and check one job; returns its wall seconds."""
        # Start each job from a clean heap, as a fresh CLI process would: no
        # garbage left by the previous job, and the benchmark's own objects
        # frozen out of the collector's scans.
        gc.collect()
        gc.freeze()
        before = calibrate.probe()
        code, wall, stdout, stderr = run_job(self.cli, job.argv)
        after = calibrate.probe()
        elapsed = wall * calibrate.scale(before, after)
        self.times.append(elapsed)
        self.wall.append(wall)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        self.digests.append({"id": job.id, "key": job.key, "sha256": digest,
                             "seconds": elapsed, "wall_seconds": wall,
                             "probe_s": [before, after]})
        doc, problems = checks.parse_output(job, code, stdout, stderr)
        if doc is not None:
            try:
                problems = checks.check_job(job, doc, self.golden)
                if not problems and checks.wants_oracle(job):
                    self.oracle_jobs.append((job, checks.orbit_set(doc, job.perm)))
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed output: {exc!r}"]
        if problems:
            self.failures.append({"id": job.id, "key": job.key, "problems": problems})
        return wall

    def oracle_checks(self) -> None:
        for job, orbits in self.oracle_jobs:
            problems = checks.oracle_check(job, orbits)
            if problems:
                self.failures.append({"id": job.id, "key": job.key, "problems": problems})
        self.oracle_jobs.clear()


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Setup seconds of fresh processes: import, job generation, warm-up jobs.

    Returns the samples in reference-host seconds and in wall seconds.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        seconds, before, after = map(float, proc.stdout.split()[-3:])
        wall.append(seconds)
        scaled.append(seconds * calibrate.scale(before, after))
    return scaled, wall


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "symdual").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metric(name, layer, unit, value, samples=None, params=None) -> dict:
    samples = samples if samples is not None else [value]
    return {
        "name": name,
        "layer": layer,
        "unit": unit,
        "value": value,
        "median": statistics.median(samples),
        "iqr": iqr(samples),
        "repeats": len(samples),
        "params": params or {},
    }


def per_layer_metrics(tracer, jobs_per_s_plain, jobs_per_s_traced) -> list[dict]:
    selfs = tracer.self_times()
    counts = tracer.counts

    def s(name):
        return selfs.get(name, 0.0)

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    rows = [
        ("dual_core.prune.self_s", "dual_core", "s", s("dual_core.prune")),
        ("dual_core.divides.calls", "dual_core", "count", counts["dual_core.divides.calls"]),
        ("dual_core.prune.kept_ratio", "dual_core", "ratio",
         ratio("dual_core.prune.kept", "dual_core.candidates.out")),
        ("dual_core.candidates.self_s", "dual_core", "s", s("dual_core.candidates")),
        ("dual_core.candidates.calls", "dual_core", "count", counts["dual_core.candidates.calls"]),
        ("dual_core.candidates.out", "dual_core", "count", counts["dual_core.candidates.out"]),
        ("dual_core.one_orbit.calls", "dual_core", "count", counts["dual_core.one_orbit.calls"]),
        ("dual_core.one_orbit.self_s", "dual_core", "s", s("dual_core.one_orbit")),
        ("orbit_monomials.from_counts.calls", "orbit_monomials", "count",
         counts["orbit_monomials.from_counts.calls"]),
        ("cli.self_s", "cli", "s", s("cli.main")),
        ("orbit_monomials.codec.self_s", "orbit_monomials", "s", s("orbit_monomials.codec")),
        ("boolean_poset.ideals.self_s", "boolean_poset", "s", s("boolean_poset.ideals")),
        ("boolean_poset.ideals.calls", "boolean_poset", "count", counts["boolean_poset.ideals.calls"]),
        ("counting.fit.self_s", "counting", "s", s("counting.fit")),
        ("counting.faces.self_s", "counting", "s", s("counting.faces")),
        ("lattice_geometry.decompose.self_s", "lattice_geometry", "s",
         s("lattice_geometry.decompose")),
        ("lattice_geometry.orthants", "lattice_geometry", "count",
         counts["lattice_geometry.orthants"]),
        ("lattice_geometry.slice.self_s", "lattice_geometry", "s", s("lattice_geometry.slice")),
        ("avoidance.match.self_s", "avoidance", "s", s("avoidance.match")),
        ("avoidance.match.calls", "avoidance", "count", counts["avoidance.match.calls"]),
        ("avoidance.certificate.self_s", "avoidance", "s", s("avoidance.certificate")),
        ("avoidance.feasible_ratio", "avoidance", "ratio",
         ratio("avoidance.feasible", "avoidance.match.calls")),
        ("oracle.min_gens.self_s", "oracle", "s", s("oracle.min_gens")),
        ("oracle.f_vector.self_s", "oracle", "s", s("oracle.f_vector")),
        ("oracle.involution.self_s", "oracle", "s", s("oracle.involution")),
        ("oracle.divides.self_s", "oracle", "s", s("oracle.divides")),
        ("oracle.masks_scanned", "oracle", "count", counts["oracle.masks_scanned"]),
    ]
    for layer in LAYERS:
        total = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
        rows.append((f"{layer}.total_self_s", layer, "s", total))
    rows.append(("trace.overhead_ratio", "trace", "ratio", jobs_per_s_plain / jobs_per_s_traced))
    return [metric(name, layer, unit, value) for name, layer, unit, value in rows]


def _job_stream(workloads, workload, seed, first):
    """Pass 0, then further passes (new labels and order) for as long as asked."""
    yield from first
    index = 1
    while True:
        yield from workloads.generate(workload, seed, index)
        index += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symdual" / "__init__.py").is_file():
        print(f"error: no symdual sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.TEMPLATES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())[args.workload]

    setup, setup_wall = ([], []) if args.trace else setup_samples(args.workload, args.seed)

    from symdual import cli

    tracer = Tracer()
    jobs = workloads.generate(args.workload, args.seed)
    if args.trace:
        tracer.install()
        tracer.job = "warmup"
    try:
        for warm in workloads.WARMUP[args.workload]:
            code = run_job(cli, warm)[0]
            if code != 0:
                print(f"error: warm-up job {warm[0]} exited {code}", file=sys.stderr)
                return 1
    finally:
        tracer.uninstall()

    run = Run(cli, golden)
    if args.trace:
        for job in jobs:
            run.job(job)
        plain = sum(run.times)
        traced_run = Run(cli, golden)
        tracer.install()
        try:
            for job in jobs:
                tracer.job = job.id
                traced_run.job(job)
        finally:
            tracer.uninstall()
        traced = sum(traced_run.times)
        run.oracle_checks()
        # The traced pass is checked like the untraced one, except that the
        # oracle is not run again: its stdout must equal the untraced stdout.
        failed_ids = {f["id"] for f in traced_run.failures}
        for before, after in zip(run.digests, traced_run.digests):
            if before["sha256"] != after["sha256"] and before["id"] not in failed_ids:
                traced_run.failures.append({"id": before["id"], "key": before["key"],
                                            "problems": ["traced stdout differs from untraced"]})
        attempted = len(run.times) + len(traced_run.times)
        failures = run.failures + traced_run.failures
        results = per_layer_metrics(tracer, len(jobs) / plain, len(jobs) / traced)
        wall_results = []
        passes = 1
    else:
        busy = 0.0
        for index, job in enumerate(_job_stream(workloads, args.workload, args.seed, jobs)):
            busy += run.job(job)
            if index + 1 >= len(jobs) and busy >= args.seconds:
                break
        passes = -(-len(run.times) // len(jobs))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.oracle_checks()
        attempted = len(run.times)
        failures = run.failures
        times = run.times
        p_tail = tail_percentile(len(jobs))
        results = [
            metric("jobs_per_s", "end_to_end", "1/s", len(times) / sum(times),
                   params={"jobs": len(times), "busy_s": sum(times)}),
            metric("job_s_p50", "end_to_end", "s", quantile(times, 0.5), times),
            metric("job_s_tail", "end_to_end", "s", quantile(times, p_tail / 100), times,
                   params={"percentile": p_tail, "jobs_per_pass": len(jobs)}),
            metric("setup_s", "end_to_end", "s", statistics.median(setup), setup),
            metric("peak_rss_mb", "end_to_end", "MB", peak_rss_mb),
        ]
        # The same time metrics from unscaled wall seconds, for the record.
        wall = run.wall
        wall_results = [
            metric("wall.jobs_per_s", "end_to_end", "1/s", len(wall) / busy,
                   params={"jobs": len(wall), "busy_s": busy}),
            metric("wall.job_s_p50", "end_to_end", "s", quantile(wall, 0.5), wall),
            metric("wall.job_s_tail", "end_to_end", "s", quantile(wall, p_tail / 100), wall),
            metric("wall.setup_s", "end_to_end", "s", statistics.median(setup_wall), setup_wall),
        ]

    failed = len(failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "jobs_per_pass": len(jobs),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "results": results,
        "wall_results": wall_results,
        "reference_probe_s": calibrate.REFERENCE_S,
        "counts": dict(sorted(tracer.counts.items())),
        "failures": failures,
        "digests": run.digests,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    for f in failures:
        print(f"FAILED {f['id']} {f['key']}: {'; '.join(f['problems'])}")
    for r in results + wall_results:
        print(f"{r['name']:40s} {r['value']:>14.6g} {r['unit']}")
    print(f"error_rate {record['error_rate']:.4g} ({failed}/{attempted}); record {OUT / stem}.json")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {r["name"]: {"value": r["value"], "unit": r["unit"]} for r in results},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
