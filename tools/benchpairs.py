"""Run the benchmark in two checkouts as alternating pairs and write BENCH_<pr>.json.

Usage, from anywhere:

    python3 tools/benchpairs.py PARENT CHANGE --pr N

PARENT and CHANGE are source checkouts, each holding ``src/tsirelson`` and
``perfbench/``; CHANGE also holds ``BENCHMARK.json``, which names the
workloads, their run length and the end-to-end metrics.  For each workload,
pair i (1..10) runs

    python3 perfbench/run.py --workload W --seed S --seconds 35 --trace 0

once in each checkout with seed S = 1000 N + i, the parent first in odd
pairs and the change first in even ones, so that a drift of the machine
over the session falls on both sides alike.  Each run's last line of
standard output gives its metrics, failures and attempts; its run record
under ``perfbench/out/`` gives the machine, the source digest and the
pass count.  The file written to the working directory holds, per workload
and side, every run's value of every end-to-end metric with their
quartiles, and per metric the pairs in which the change read lower, the
relative and absolute change of the medians and the parent's interquartile
range.  The script changes nothing in either checkout but what perfbench
itself writes under ``perfbench/out/``.

On Linux a process starts its ``ru_maxrss`` from the peak RSS of the
process that launched it, so a launcher heavier than a run would raise
every run's ``peak_rss_mb`` to its own.  This one keeps only the fields it
reports from each run record (an untraced chained-quantum record holds about
1 MB of per-pass latencies) and imports no numpy.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
RUN_TIMEOUT_S = 900  # 35 s of passes plus the setup probes, with room for a slow host
RECORD_FIELDS = ("source_digest", "passes", "git_commit", "nproc", "cpu_model", "python",
                 "numpy", "blas")


def _run(checkout, workload, seed, seconds):
    """(last stdout line as a dict, RECORD_FIELDS of its run record) of one untraced run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S).stdout
    result = json.loads(out.splitlines()[-1])
    path = Path(checkout, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")
    record = json.loads(path.read_text())
    return result, {key: record[key] for key in RECORD_FIELDS}


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _side(runs, metrics):
    """The layout of one side of a workload: totals, passes and per-metric runs."""
    side = {
        "source_digest": runs[0][1]["source_digest"],
        "failed": sum(result["failed"] for result, _ in runs),
        "attempted": sum(result["attempted"] for result, _ in runs),
        "passes": [record["passes"] for _, record in runs],
        "metrics": {},
    }
    for name in metrics:
        values = [result["metrics"][name]["value"] for result, _ in runs]
        side["metrics"][name] = {**_quartiles(values),
                                 "unit": runs[0][0]["metrics"][name]["unit"],
                                 "runs": values}
    return side


def _comparison(parent, change):
    out = {}
    for name, p in parent["metrics"].items():
        c = change["metrics"][name]
        lower = sum(b < a for a, b in zip(p["runs"], c["runs"]))
        out[name] = {
            "change_lower_in": f"{lower}/{len(p['runs'])}",
            "median_change": (c["median"] - p["median"]) / p["median"],
            "parent_iqr": p["q3"] - p["q1"],
            "median_diff": c["median"] - p["median"],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", type=int, required=True,
                        help="the change's number: seeds and the output file's name")
    args = parser.parse_args(argv)
    bench = json.loads(Path(args.change, "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    seeds = [1000 * args.pr + i for i in range(1, PAIRS + 1)]
    doc = {
        "description": f"perfbench/run.py --seconds {seconds} --trace 0, {PAIRS} alternating "
                       "parent/change pairs per workload (odd pairs run the parent first), "
                       "one seed per pair; timings are perfbench's host-speed-scaled values",
        "parent_commit": None,
        "change": "the commit that adds this file",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                   "--trace 0",
        "seconds": float(seconds),
        "trace": 0,
        "seeds": seeds,
        "machine": None,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds, start=1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                runs[side].append(_run(getattr(args, side), workload, seed, seconds))
                result = runs[side][-1][0]
                print(f"{workload} pair {i} {side}: failed {result['failed']}, "
                      + ", ".join(f"{m} {result['metrics'][m]['value']:.6g}" for m in metrics),
                      file=sys.stderr, flush=True)
        record = runs["parent"][0][1]
        doc["parent_commit"] = doc["parent_commit"] or record["git_commit"]
        doc["machine"] = doc["machine"] or {
            key: record[key] for key in ("nproc", "cpu_model", "python", "numpy", "blas")}
        parent, change = (_side(runs[s], metrics) for s in ("parent", "change"))
        doc["workloads"][workload] = {"parent": parent, "change": change,
                                      "comparison": _comparison(parent, change)}
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
