"""Benchmark of the certified-bound pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload chained-quantum --seed 0 --seconds 35 --trace 0

Each workload (see workloads.py) runs in this process as a closed loop with
one client: the next job starts when the previous one has finished.  The
library is imported from the checkout's ``src`` directory and called
in-process with one BLAS thread.

``--trace 0`` reports the end-to-end metrics, with no tracing:

- ``setup_s``: import of ``tsirelson.cli`` plus one warm-up pass, the median
  over this process and two fresh interpreters;
- ``wall_s``: one pass over the job list, as the sum of each job's median
  latency over the passes;
- ``job_p50_s``: the median over passes of each pass's median job latency;
- ``largest_job_s``: the median latency of the workload's largest job;
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

These timings are scaled to a nominal host speed (see hostspeed.py); the run
record keeps them unscaled too.

``--trace 1`` alternates untraced and traced passes over the same inputs and
reports per-layer self times and counts (see tracing.py), unscaled, from the
fastest traced pass; the fastest traced pass minus the fastest untraced pass
is the tracing overhead.

Every job's result is checked.  A failed check or a raised error counts as
failed and the run goes on.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run record (machine, versions, BLAS threads, sample counts, failures and
``failed_frac``) and the spans of a traced run are written under
``perfbench/out/``.
"""

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

BLAS_THREADS = 1  # the matrices are at most 64 x 64; one thread is the steadiest
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3  # this process plus two fresh probe interpreters
PROBE_TIMEOUT_S = 170

COUNTS = [
    "sdp.solve_primal.sweeps", "sdp.solve_primal.unconverged", "sdp.solve.calls",
    "sdp.solve.restarts", "realization.correlation.calls",
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=int, metavar="PASS",
                   help="internal: time the import plus one warm-up pass on the inputs "
                        "of pass PASS, print it and exit")
    return p.parse_args(argv)


def limit_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("TSIRELSON_SEED", None)


def import_library():
    """Import tsirelson from this checkout's src; returns seconds taken, or None."""
    if not (SRC / "tsirelson" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tsirelson.cli  # the package and its command line, as a CLI user loads them

    elapsed = time.perf_counter() - start
    if Path(tsirelson.__file__).resolve().parent != SRC / "tsirelson":
        return None
    return elapsed


# ---------------------------------------------------------------------------
# passes


def run_pass(jobs, tracer=None, pass_index=0, speed=None):
    """One closed-loop pass; failures are collected, never raised.

    With a HostSpeed, the kernel is timed a few times before the first job
    and after each job, and every latency is also reported scaled by the
    median of the kernel times on either side of it (see hostspeed.py).
    """
    latencies, scaled, gaps = {}, {}, []
    failures = []
    start = time.perf_counter()
    if speed is not None:
        gaps.append(speed.samples())
    for job in jobs:
        if tracer is not None:
            tracer.job_id = f"{pass_index}:{job.name}"
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a failing job is counted, the run goes on
            problems = [f"raised {exc!r}"]
        else:
            problems = None
        latency = latencies[job.name] = time.perf_counter() - t0
        if speed is not None:
            gaps.append(speed.samples())
            scaled[job.name] = latency * speed.nominal_s / statistics.median(gaps[-2] + gaps[-1])
        if problems is None:
            try:
                problems = job.check(result)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        if problems:
            failures.append(f"pass {pass_index} {job.name}: " + "; ".join(problems))
    return {"wall_s": time.perf_counter() - start, "latencies": latencies,
            "scaled": scaled, "kernel_gaps": gaps,
            "failures": failures, "attempted": len(jobs)}


def timed_loop(seconds, step):
    """Call step(i) for i = 1, 2, ... while the next call is expected to fit."""
    start = time.perf_counter()
    durations = []
    i = 1
    while True:
        t0 = time.perf_counter()
        step(i)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return
        i += 1


def setup_probe(workload, seed, warm_index):
    """Setup time of a fresh interpreter, measured by that interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--setup-probe", str(warm_index)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# run record


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_info():
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "threads_requested": BLAS_THREADS}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "tsirelson").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args):
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def check_counts_repeat(record, per_pass_counts, store_path):
    """Counts must repeat exactly for the same source, workload, seed and pass.

    Returns the passes whose counts differ from an earlier run's, and stores
    the counts of passes not seen before.
    """
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    key = f"{record['source_digest']}/{record['workload']}/seed{record['seed']}"
    seen = store.setdefault(key, {})
    mismatches = []
    for pass_index, counts in per_pass_counts.items():
        earlier = seen.setdefault(str(pass_index), counts)
        if earlier != counts:
            mismatches.append(f"pass {pass_index} counts {counts} differ from {earlier}")
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return mismatches


# ---------------------------------------------------------------------------
# modes


def measure_untraced(workload, seed, seconds, workdir, first_setup_s, speed):
    """End-to-end metrics, scaled to the nominal host speed.

    Returns (metrics, sample counts, passes, probes, the same metrics unscaled).
    """
    setups = [first_setup_s]
    probes = []
    for warm_index in range(1, SETUP_SAMPLES):
        # each warm-up draws other random inputs, so one hard draw cannot set the median
        probe = setup_probe(workload, seed, warm_index)
        setups.append(probe["setup_s"])
        probes.append(probe)
    passes = []
    timed_loop(seconds, lambda i: passes.append(
        run_pass(workload.make_jobs(seed, i, workdir), pass_index=i, speed=speed)))

    def summary(key):
        per_job = {name: [p[key][name] for p in passes] for name in passes[0][key]}
        return {
            # each job's median over the passes, summed: a hard random draw in one
            # pass moves one job's samples, not every job's
            "wall_s": sum(statistics.median(v) for v in per_job.values()),
            # the median over passes of each pass's median job: one pass's job mix
            # cannot tip it, as it can a median pooled over all passes
            "job_p50_s": statistics.median(statistics.median(p[key].values()) for p in passes),
            "largest_job_s": statistics.median(per_job[workload.largest_job]),
        }

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (statistics.median(s for s, _ in setups), "s")}
    metrics.update({k: (v, "s") for k, v in summary("scaled").items()})
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    unscaled = dict(summary("latencies"), setup_s=statistics.median(r for _, r in setups))
    jobs = len(passes[0]["latencies"])
    samples = {"setup_s": len(setups), "wall_s": len(passes), "job_p50_s": jobs * len(passes),
               "largest_job_s": len(passes), "peak_rss_mb": 1}
    return metrics, samples, passes, probes, unscaled


def measure_traced(workload, seed, seconds, workdir, spans_path):
    """Per-layer metrics from traced passes paired with untraced ones on the same inputs.

    Self times come from the fastest traced pass, so that they and the
    unattributed remainder add up to that pass's wall time.  Counts come from
    the first traced pass, whose inputs depend on the seed alone.
    """
    from tracing import TARGETS, Tracer

    tracer = Tracer()
    untraced, traced = [], []

    def traced_pass(i):
        tracer.begin_pass()
        tracer.install()
        try:
            result = run_pass(workload.make_jobs(seed, i, workdir), tracer, pass_index=i)
        finally:
            tracer.uninstall()
        result.update(self_s=dict(tracer.self_s), counts=dict(tracer.counts))
        traced.append(result)

    def untraced_pass(i):
        untraced.append(run_pass(workload.make_jobs(seed, i, workdir), pass_index=i))

    def pair(i):
        # alternate which kind of pass runs first, so neither always finds warm caches
        for step in ((untraced_pass, traced_pass) if i % 2 else (traced_pass, untraced_pass)):
            step(i)

    timed_loop(seconds, pair)
    spans_path.write_text(json.dumps(tracer.spans))

    fastest = min(traced, key=lambda p: p["wall_s"])
    self_s = {name: fastest["self_s"].get(name, 0.0) for name in TARGETS}
    wall = fastest["wall_s"]
    untraced_wall = min(p["wall_s"] for p in untraced)
    sweeps = fastest["counts"].get("sdp.solve_primal.sweeps", 0)
    strategies = fastest["counts"].get("classical.lhv_bound.strategies", 0)
    first = traced[0]["counts"]
    metrics = {f"{name}.self_s": (value, "s") for name, value in self_s.items()}
    metrics.update({name: (first.get(name, 0), "count") for name in COUNTS})
    metrics["realization.realize.max_dim"] = (first.get("realization.realize.max_dim", 0),
                                              "dim")
    metrics["sdp.solve_primal.s_per_sweep"] = (
        self_s["sdp.solve_primal"] / sweeps if sweeps else 0.0, "s")
    metrics["classical.lhv_bound.strategies_per_s"] = (
        strategies / self_s["classical.lhv_bound"] if strategies else 0.0, "1/s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    metrics["trace.unattributed_s"] = (wall - sum(self_s.values()), "s")
    metrics["trace.spans_per_pass"] = (len(tracer.spans) / len(traced), "count")
    samples = {name: len(traced) for name in metrics}
    samples["trace.untraced_wall_s"] = len(untraced)
    counts = {i + 1: p["counts"] for i, p in enumerate(traced)}
    return metrics, samples, traced + untraced, counts


# ---------------------------------------------------------------------------


def main(argv=None):
    process_start = time.perf_counter()
    args = parse_args(argv)
    limit_threads()
    import_s = import_library()
    if import_s is None:
        print(f"error: no tsirelson package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workload, workdir, import_s, process_start)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()


def measure(args, workload, workdir, import_s, process_start):
    from hostspeed import HostSpeed  # imports numpy, so only after the timed import

    speed = None if args.trace else HostSpeed()
    warm_index = args.setup_probe or 0
    warm = run_pass(workload.make_jobs(args.seed, warm_index, workdir), pass_index=warm_index,
                    speed=speed)
    if speed is not None:
        # the import is scaled like the warm-up pass's jobs
        setup_raw = import_s + sum(warm["latencies"].values())
        kernel = statistics.median(k for gap in warm["kernel_gaps"] for k in gap)
        setup = (setup_raw * speed.nominal_s / kernel, setup_raw)  # (scaled, unscaled)
    if args.setup_probe is not None:
        print(json.dumps({"setup_s": setup, "attempted": warm["attempted"],
                          "failures": warm["failures"]}))
        return 0

    record = run_record(args)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    attempted = warm["attempted"]
    failures = list(warm["failures"])
    if args.trace:
        metrics, samples, passes, counts = measure_traced(
            workload, args.seed, args.seconds, workdir, OUT / f"{stem}-spans.json")
        count_mismatches = check_counts_repeat(record, counts, OUT / "counts.json")
        record["counts_per_traced_pass"] = counts
    else:
        metrics, samples, passes, probes, unscaled = measure_untraced(
            workload, args.seed, args.seconds, workdir, setup, speed)
        record["unscaled_s"] = unscaled
        record["passes_detail"] = [{k: p[k] for k in ("latencies", "kernel_gaps")}
                                   for p in passes]
        count_mismatches = []
        for probe in probes:
            attempted += probe["attempted"]
            failures += [f"setup probe {f}" for f in probe["failures"]]
    attempted += sum(p["attempted"] for p in passes)
    failures += [f for p in passes for f in p["failures"]]
    failed = len(failures) + len(count_mismatches)
    record.update(
        passes=len(passes),
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        failures=failures,
        count_mismatches=count_mismatches,
        sample_counts=samples,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        run_s=time.perf_counter() - process_start,
    )
    record_path = OUT / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"{workload.name}: seed {args.seed}, trace {args.trace}, {len(passes)} passes, "
          f"{record['nproc']} CPUs, BLAS threads {record['blas']['threads']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:6s} (n={samples[name]})")
    print(f"  failed {failed} of {attempted} attempted (failed_frac {failed / attempted:.4g})")
    for line in (failures + count_mismatches)[:20]:
        print(f"  FAILED {line}")
    print(f"  run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
