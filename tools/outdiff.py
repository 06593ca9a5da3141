"""Compare the library's outputs in two checkouts on a fixed corpus.

Usage, from anywhere:

    python3 tools/outdiff.py PARENT CHANGE [--show FIELD ...]

PARENT and CHANGE are source checkouts (directories holding ``src/tsirelson``).
Each one runs the corpus in a fresh interpreter with one BLAS thread and its
own ``src`` first on the path, and prints one JSON record per input.  The
corpus is fixed: chsh, chained 1-64, gisin 1-32, STUCK (a 6 x 6 integral input
whose run stalls at a saddle) and 600 seeded blocks up to 20 x 20, integral in
-3..3 or Gaussian, some scaled by 1e300 or 1e-300, some with a zero row or
column, some all zero.  A record holds every field of ``solve(ineq,
classical=False)`` (prefix ``q.``) and of ``solve(ineq)`` (prefix ``c.``), each
run of ``runs`` flattened by index, ``extract_dual(c, v)`` on the first solve's
vectors v, ``certify`` on those multipliers (``cert.``) and ``certify`` on them
lowered by 1e-3 of their largest, which takes the shift path (``shift.``).  A
raised error is recorded by its class name.  The corpus also holds the
``tsirelson bound --format json`` requests of perfbench's cli-mixed workload:
chsh, chained 2-8, gisin 2-8 and seeded integral 3 x 3 to 6 x 6 files, each
recorded as its exit status (``cli.status``) and output bytes (``cli.out``).

The summary groups records by the parent's ``q.runs[0].method`` (``cli`` for
the requests) and prints,
per field, how many records are identical, how many moved, how many of the
numeric moves rose or fell, and the largest relative move with its record.
A relative move is |a - b| / max(|a|, |b|), taken entrywise on arrays and
maximized.  ``--show FIELD`` lists every record whose FIELD moved.  The
script changes nothing; it only reads what the two checkouts compute.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SEEDED = 600
STUCK = [[-1, -3, 2, 2, -1, 2], [-1, 2, -2, -2, -1, 0], [-1, -3, 0, 2, 2, 2],
         [-3, 2, 2, -1, 3, 1], [1, -1, 0, -2, 3, -1], [-1, 2, 2, -1, -3, -1]]


def _corpus():
    import numpy as np
    from tsirelson import chained, chsh, gisin, new_inequality

    yield chsh()
    yield from (chained(n) for n in range(1, 65))
    yield from (gisin(n) for n in range(1, 33))
    yield new_inequality("stuck", STUCK)
    for seed in range(SEEDED):
        rng = np.random.default_rng([22, seed])
        na, nb = (int(k) for k in rng.integers(1, 21, 2))
        gauss = seed % 3 == 2
        c = rng.standard_normal((na, nb)) if gauss else rng.integers(-3, 4, (na, nb)) * 1.0
        tags = ["gauss" if gauss else "int"]
        if seed % 5 == 1:
            c[rng.integers(na)] = 0.0
            tags.append("zero-row")
        if seed % 5 == 3:
            c[:, rng.integers(nb)] = 0.0
            tags.append("zero-column")
        if seed % 40 == 7:
            c[:] = 0.0
            tags.append("zero")
        scale = {3: 1e300, 5: 1e-300}.get(seed % 7)
        if scale:
            c *= scale
            tags.append(f"x{scale:.0e}")
        yield new_inequality(f"seeded-{seed}-{na}x{nb}-{'-'.join(tags)}", c)


def _requests():
    """(name, argv) of each bound request; a file is written to the working directory."""
    import numpy as np

    yield "cli bound chsh", ["bound", "--inequality", "chsh"]
    for family in ("chained", "gisin"):
        for n in range(2, 9):
            yield f"cli bound {family} {n}", ["bound", "--inequality", family, "--n", str(n)]
    for k in range(3, 7):
        c = np.random.default_rng(k).integers(-3, 4, (k, k)).tolist()
        Path(f"rand-{k}.json").write_text(json.dumps({"name": f"rand-{k}", "coefficients": c}))
        yield f"cli bound rand-{k}", ["bound", "--inequality", "file", "--file", f"rand-{k}.json"]


def _plain(x):
    """x as JSON-ready data: floats stay exact through json's repr."""
    import numpy as np

    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    return x


def _fields(prefix, thunk, into):
    try:
        obj = thunk()
    except Exception as exc:  # an error is an output too
        into[prefix + "error"] = type(exc).__name__
        return None
    if hasattr(obj, "runs"):  # a BoundReport
        for name in ("primal", "dual"):
            for key, value in vars(getattr(obj, name)).items():
                into[f"{prefix}{name}.{key}"] = _plain(value)
        for key in ("name", "gap", "relative_gap", "classical_bound", "certified_optimal"):
            into[prefix + key] = _plain(getattr(obj, key))
        for i, run in enumerate(obj.runs):
            for key, value in vars(run).items():
                into[f"{prefix}runs[{i}].{key}"] = _plain(value)
    else:
        for key, value in vars(obj).items():
            into[prefix + key] = _plain(value)
    return obj


def _run():
    """Print one JSON record per corpus input, in this interpreter's checkout."""
    import contextlib
    import io
    import tempfile

    import numpy as np
    from tsirelson import certify, extract_dual, solve
    from tsirelson.cli import main

    for ineq in _corpus():
        record = {"input": ineq.name}
        report = _fields("q.", lambda: solve(ineq, classical=False), record)
        _fields("c.", lambda: solve(ineq), record)
        if report is not None:
            c = ineq.coefficients
            lam = extract_dual(c, report.primal.vectors)
            record["extract_dual"] = _plain(lam)
            _fields("cert.", lambda: certify(c, lam), record)
            low = lam - 1e-3 * float(np.abs(lam).max())
            _fields("shift.", lambda: certify(c, low), record)
        print(json.dumps(record), flush=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # files by a relative name, so each config block reads the same
        for name, argv in _requests():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = main([*argv, "--format", "json"])
            record = {"input": name, "cli.status": status, "cli.out": out.getvalue()}
            print(json.dumps(record), flush=True)


def _records(checkout):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--run"], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return {r["input"]: r for r in map(json.loads, out.splitlines())}


def _flat(x):
    if isinstance(x, list):
        for item in x:
            yield from _flat(item)
    else:
        yield x


def _move(a, b):
    """(relative move, sign of b - a) of numbers or equal-shape arrays, or (None, 0)."""
    fa, fb = list(_flat(a)), list(_flat(b))
    if (len(fa) != len(fb) or isinstance(a, list) != isinstance(b, list)
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in fa + fb)):
        return None, 0
    rel = 0.0
    for u, v in zip(fa, fb):
        if u != v:
            top = max(abs(u), abs(v))
            rel = max(rel, abs(u - v) / top if top and math.isfinite(top) else math.inf)
    sign = (fb[0] > fa[0]) - (fb[0] < fa[0]) if len(fa) == 1 else 0
    return rel, sign


def _text_move(a, b):
    """Where two strings first differ, with 20 characters of context either side."""
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(0, i - 20)
    return f"...{a[lo:i + 20]!r} -> ...{b[lo:i + 20]!r}"


def _same(a, b):
    return json.dumps(a) == json.dumps(b)


def _summary(parent, change, show):
    keys = sorted(set(parent) | set(change))
    missing = [k for k in keys if k not in parent or k not in change]
    groups = {}
    for key in keys:
        if key in parent and key in change:
            method = parent[key].get("q.runs[0].method", "cli" if "cli.out" in parent[key]
                                     else "error")
            groups.setdefault(method, []).append(key)
    print(f"{len(keys)} inputs; missing on one side: {len(missing)}")
    for key in missing:
        print(f"  missing: {key}")
    for method, group in sorted(groups.items()):
        identical = sum(_same(parent[k], change[k]) for k in group)
        print(f"\n[{method}] {len(group)} records, {identical} identical in every field")
        print(f"  {'field':34} {'same':>5} {'moved':>5} {'rose':>5} {'fell':>5}  largest move")
        fields = sorted({f for k in group for f in (*parent[k], *change[k])} - {"input"})
        for field in fields:
            same = moved = rose = fell = 0
            worst, where = 0.0, ""
            for k in group:
                a, b = parent[k].get(field), change[k].get(field)
                if _same(a, b):
                    same += 1
                    continue
                moved += 1
                rel, sign = _move(a, b)
                rose += sign > 0
                fell += sign < 0
                if rel is None or rel > worst or not where:
                    worst, where = (math.inf if rel is None else rel), k
            tail = f"{worst:.3g} ({where})" if moved else ""
            print(f"  {field:34} {same:5} {moved:5} {rose:5} {fell:5}  {tail}")
    for field in show:
        print(f"\nmoved {field}:")
        for k in keys:
            if k in parent and k in change and not _same(parent[k].get(field),
                                                         change[k].get(field)):
                a, b = parent[k].get(field), change[k].get(field)
                rel, _ = _move(a, b)
                values = (_text_move(a, b) if isinstance(a, str) and isinstance(b, str)
                          else "" if isinstance(a, list) else f"{a!r} -> {b!r}")
                print(f"  {k}: {values} rel {rel if rel is None else f'{rel:.3g}'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--show", action="append", default=[], metavar="FIELD",
                        help="list every record whose FIELD moved")
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        _run()
        return 0
    if not (args.parent and args.change):
        parser.error("PARENT and CHANGE checkouts are required")
    _summary(_records(args.parent), _records(args.change), args.show)
    return 0


if __name__ == "__main__":
    sys.exit(main())
