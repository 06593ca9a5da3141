"""Command-line interface.

Subcommands: bound, certify, classical, realize, spectrum, table.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O error.
All reports embed the configuration that produced them; identical
configurations (including the seed) produce identical output bytes.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import analytic, inequality as ineq_mod, realization, sdp
from .classical import lhv_bound
from .errors import TsirelsonError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

NUMERICAL_GAP_THRESHOLD = 1e-4


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# canonical serialization


def _fmt_float(x):
    return format(float(x), ".17g")


def canonical_json(obj):
    """JSON with sorted keys and 17-significant-digit floats.

    Parsing the output and re-serializing it reproduces the same bytes.
    """
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    return json.dumps(str(obj))


def _render_text(obj, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    return lines


def _scalar_text(v):
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    return str(v)


def _render_csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_scalar_text(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument handling


def _default_seed():
    env = os.environ.get("TSIRELSON_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise UsageError(f"TSIRELSON_SEED must be an integer, got {env!r}") from exc


def _check_solver_args(args):
    """Reject solver settings the library would refuse, as usage errors."""
    if args.seed < 0:
        raise UsageError(f"seed must be >= 0, got {args.seed}")
    if args.rank is not None and args.rank < 2:
        raise UsageError(f"--rank must be >= 2, got {args.rank}")
    if args.max_iter < 1:
        raise UsageError(f"--max-iter must be >= 1, got {args.max_iter}")
    if not (0.0 < args.tol < float("inf")):
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tsirelson",
        description="Quantum and classical bounds for two-party correlation "
        "Bell inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver=True, formats=("text", "json")):
        p.add_argument(
            "--inequality",
            choices=["chained", "chsh", "gisin", "file"],
            default="chained",
        )
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--file", dest="file_path")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", dest="output_path")
        if solver:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--rank", type=int, default=None)
            p.add_argument("--max-iter", type=int, default=sdp.DEFAULT_MAX_ITER)
            p.add_argument("--tol", type=float, default=sdp.DEFAULT_TOL)

    add_common(sub.add_parser("bound", help="primal + certified dual bound"))
    p_cert = sub.add_parser("certify", help="certify a lambda vector from file")
    add_common(p_cert, solver=False)
    p_cert.add_argument("--lambda-file", dest="lambda_file", required=True)
    add_common(sub.add_parser("classical", help="exact LHV bound with witnesses"),
               solver=False)
    add_common(sub.add_parser("realize", help="observables achieving the bound"))
    add_common(sub.add_parser("spectrum", help="closed-form chained spectrum"),
               solver=False)
    p_table = sub.add_parser("table", help="bound table over a range of n")
    add_common(p_table, formats=("text", "json", "csv"))
    p_table.add_argument("--n-range", dest="n_range", default="2..8")
    return parser


def _load_inequality(args):
    kind = args.inequality
    if kind == "file":
        if not args.file_path:
            raise UsageError("--inequality file requires --file")
        return _read_inequality_file(args.file_path)
    if kind == "chsh":
        return ineq_mod.chsh()
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if kind == "chained":
        return ineq_mod.chained(args.n)
    return ineq_mod.gisin(args.n)


def _read_json(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IOError(str(exc)) from exc
    try:
        # an integer literal beyond the float range reads as inf: rejected as non-finite
        return json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _read_inequality_file(path):
    doc = _read_json(path)
    if not isinstance(doc, dict) or "name" not in doc or "coefficients" not in doc:
        raise UsageError(f'{path}: expected {{"name": ..., "coefficients": [[...]]}}')
    try:
        return ineq_mod.new_inequality(doc["name"], doc["coefficients"])
    except (TsirelsonError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _read_lambda_file(path, expected_len):
    doc = _read_json(path)
    if not isinstance(doc, list) or not all(isinstance(v, (int, float)) for v in doc):
        raise UsageError(f"{path}: expected a JSON array of numbers")
    if len(doc) != expected_len:
        raise UsageError(f"{path}: expected {expected_len} entries, got {len(doc)}")
    lam = np.array(doc, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise UsageError(f"{path}: entries must be finite numbers")
    return lam


def _config_block(args):
    cfg = {
        "command": args.command,
        "inequality": args.inequality,
    }
    if args.inequality in ("chained", "gisin"):
        cfg["n"] = args.n
    if args.file_path:
        cfg["file"] = args.file_path
    if hasattr(args, "seed"):
        cfg["seed"] = args.seed
        cfg["rank"] = args.rank
        cfg["max_iter"] = args.max_iter
        cfg["tol"] = args.tol
    if getattr(args, "lambda_file", None):
        cfg["lambda_file"] = args.lambda_file
    if getattr(args, "n_range", None):
        cfg["n_range"] = args.n_range
    cfg["format"] = args.format
    return cfg


def _solve_options(args):
    return sdp.SolveOptions(
        rank=args.rank, seed=args.seed, max_iter=args.max_iter, tol=args.tol
    )


def _analytic_bound(args):
    if args.inequality == "chained":
        return analytic.chained_quantum_bound(args.n)
    if args.inequality == "chsh":
        return analytic.chained_quantum_bound(2)
    return None


# ---------------------------------------------------------------------------
# commands


def _cmd_bound(args):
    ineq = _load_inequality(args)
    report = sdp.solve(ineq, _solve_options(args))
    out = {
        "config": _config_block(args),
        "inequality": ineq.name,
        "primal": {
            "value": report.primal.value,
            "iterations": report.primal.iterations,
            "residual": report.primal.residual,
            "converged": report.primal.converged,
        },
        "dual": {
            "lambda": [float(v) for v in report.dual.lam],
            "feasibility_margin": report.dual.feasibility_margin,
            "certified_bound": report.dual.certified_bound,
        },
        "gap": report.gap,
        "certified_optimal": report.gap <= sdp.OPTIMAL_GAP,
        "classical_bound": report.classical_bound,
        "runs": report.runs,
    }
    bound = _analytic_bound(args)
    if bound is not None:
        out["analytic_bound"] = bound
    status = EXIT_OK
    if not report.primal.converged and report.gap > NUMERICAL_GAP_THRESHOLD:
        status = EXIT_NUMERICAL
    return out, status


def _cmd_certify(args):
    ineq = _load_inequality(args)
    w = ineq_mod.build_objective(ineq)
    lam = _read_lambda_file(args.lambda_file, w.shape[0])
    cert = sdp.certify(w, lam)
    out = {
        "config": _config_block(args),
        "inequality": ineq.name,
        "lambda": [float(v) for v in cert.lam],
        "feasibility_margin": cert.feasibility_margin,
        "certified_bound": cert.certified_bound,
    }
    return out, EXIT_OK


def _cmd_classical(args):
    ineq = _load_inequality(args)
    bound = lhv_bound(ineq)
    out = {
        "config": _config_block(args),
        "inequality": ineq.name,
        "value": bound.value,
        "witness_x": [int(v) for v in bound.witness_x],
        "witness_y": [int(v) for v in bound.witness_y],
    }
    return out, EXIT_OK


def _cmd_realize(args):
    ineq = _load_inequality(args)
    if args.inequality == "chained":
        xs, ys = analytic.chained_primal_vectors(args.n)
        # the optimal vectors live in a 2-plane: realize on a single EPR pair
        xs, ys = xs[:, :2], ys[:, :2]
        certified = analytic.chained_quantum_bound(args.n)
    else:
        report = sdp.solve(ineq, _solve_options(args), classical=False)
        na = ineq.n_alice
        v = report.primal.vectors
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        xs, ys = v[:na], v[na:]
        certified = report.dual.certified_bound
    real = realization.realize(xs, ys)
    table = realization.correlation_table(real)
    out = {
        "config": _config_block(args),
        "inequality": ineq.name,
        "dimension": real.dim,
        "achieved_value": float(np.sum(ineq.coefficients * table)),
        "certified_bound": certified,
        "max_correlation_error": float(np.abs(table - xs @ ys.T).max()),
    }
    return out, EXIT_OK


def _cmd_spectrum(args):
    if args.inequality != "chained":
        raise UsageError("spectrum is defined for the chained family only")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    spec = analytic.chained_A_spectrum(args.n)
    out = {
        "config": _config_block(args),
        "n": spec.n,
        "gammas": [[float(g.real), float(g.imag)] for g in spec.gammas],
        "sigmas": [float(s) for s in spec.sigmas],
        "w_max": spec.w_max,
    }
    return out, EXIT_OK


def _parse_range(text):
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError(f"bad --n-range {text!r}, expected A..B")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"bad --n-range {text!r}, expected integers") from exc
    if lo < 1 or hi < lo:
        raise UsageError(f"bad --n-range {text!r}, need 1 <= A <= B")
    return lo, hi


def _cmd_table(args):
    if args.inequality not in ("chained", "gisin"):
        raise UsageError("table supports the chained and gisin families")
    lo, hi = _parse_range(args.n_range)
    base_seed = args.seed
    rows = []
    for n in range(lo, hi + 1):
        ineq = (
            ineq_mod.chained(n) if args.inequality == "chained" else ineq_mod.gisin(n)
        )
        opts = sdp.SolveOptions(
            rank=args.rank, seed=base_seed + n, max_iter=args.max_iter, tol=args.tol
        )
        report = sdp.solve(ineq, opts)
        quantum_analytic = (
            analytic.chained_quantum_bound(n) if args.inequality == "chained" else ""
        )
        rows.append(
            (n, report.classical_bound, quantum_analytic, report.primal.value,
             report.gap)
        )
    header = ["n", "classical", "quantum_analytic", "quantum_numeric", "gap"]
    if args.format == "json":
        out = {
            "config": _config_block(args),
            "rows": [dict(zip(header, r)) for r in rows],
        }
        return out, EXIT_OK
    return _render_csv(rows, header), EXIT_OK


_COMMANDS = {
    "bound": _cmd_bound,
    "certify": _cmd_certify,
    "classical": _cmd_classical,
    "realize": _cmd_realize,
    "spectrum": _cmd_spectrum,
    "table": _cmd_table,
}


def _emit(payload, args):
    if isinstance(payload, str):
        text = payload
    elif args.format == "json":
        text = canonical_json(payload) + "\n"
    else:
        text = "\n".join(_render_text(payload)) + "\n"
    if args.output_path:
        try:
            with open(args.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if hasattr(args, "seed"):
            if args.seed is None:
                args.seed = _default_seed()
            _check_solver_args(args)
        payload, status = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TsirelsonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    emit_status = _emit(payload, args)
    if emit_status != EXIT_OK:
        return emit_status
    return status


if __name__ == "__main__":
    sys.exit(main())
