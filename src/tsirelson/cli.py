"""Command-line interface.

Subcommands: bound, certify, classical, realize, spectrum, table.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O error.
All reports embed the configuration that produced them; identical
configurations produce identical output bytes.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import analytic, inequality as ineq_mod, linalg, realization, sdp
from .classical import ENUM_LIMIT, lhv_bound
from .errors import TooLarge, TsirelsonError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

NUMERICAL_GAP_THRESHOLD = 1e-4  # on BoundReport.relative_gap


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# canonical serialization


def _fmt_float(x):
    return format(float(x), ".17g")


def canonical_json(obj):
    """JSON with sorted keys, no spaces and shortest round-trip floats.

    Parsing the output and re-serializing it reproduces the same bytes.
    Raises ValueError on a NaN or infinite float, which JSON cannot hold.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


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
        lines.append(",".join("" if v is None else _scalar_text(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument handling


def _add_common(p, n=True, file=True, formats=("text", "json")):
    """Every subcommand's options; --n and --file only where the subcommand reads them."""
    p.add_argument("--inequality", choices=["chained", "chsh", "gisin", "file"],
                   default="chained")
    if n:
        p.add_argument("--n", type=int, default=2)
    if file:
        p.add_argument("--file", dest="file_path")
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--output", dest="output_path")


def _add_certify(p):
    _add_common(p)
    p.add_argument("--lambda-file", dest="lambda_file", required=True)


def _add_table(p):
    _add_common(p, n=False, file=False, formats=("text", "json", "csv"))
    p.add_argument("--n-range", dest="n_range", default="2..8")


_SUBCOMMANDS = {  # name: (help, add_arguments)
    "bound": ("primal + certified dual bound", _add_common),
    "certify": ("certify a lambda vector from file", _add_certify),
    "classical": ("exact LHV bound with witnesses", _add_common),
    "realize": ("observables achieving the bound", _add_common),
    "spectrum": ("closed-form chained spectrum", functools.partial(_add_common, file=False)),
    "table": ("bound table over a range of n", _add_table),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tsirelson",
        description="Quantum and classical bounds for two-party correlation "
        "Bell inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text, allow_abbrev=False))
    return parser


@functools.cache
def _subcommand_parser(name, add_arguments):
    """The parser of one subcommand, built on its first request and then reused.

    Keyed by add_arguments too, so a changed _SUBCOMMANDS entry gets its own.
    """
    parser = argparse.ArgumentParser(prog=f"tsirelson {name}", allow_abbrev=False)
    add_arguments(parser)
    return parser


def _parse_args(argv):
    """build_parser().parse_args(argv), by the parser of the subcommand argv[0] names.

    That parser is built by the first request for its subcommand in this
    process and reused by later ones; parsing leaves no state in it.  The full
    parser is built for help, an unknown command or the "unrecognized
    arguments" error it raises when the subcommand leaves arguments over.
    """
    name = argv[0] if argv else None
    if name in _SUBCOMMANDS:
        parser = _subcommand_parser(name, _SUBCOMMANDS[name][1])
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
        if not extras:
            return args
    return build_parser().parse_args(argv)


_FAMILIES = {"chained": ineq_mod.chained, "gisin": ineq_mod.gisin}


def _sized(build, n):
    """build(n), where numpy's refusal to size an array that large is TooLarge."""
    try:
        return build(n)
    except ValueError as exc:  # "Maximum allowed dimension exceeded", "array is too big"
        raise TooLarge(f"--n {n} is too large: {exc}") from exc


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
    return _sized(_FAMILIES[kind], args.n)


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
    if not isinstance(doc["name"], str):
        raise UsageError(f"{path}: name must be a string")
    rows = doc["coefficients"]
    # every JSON number reads as a float, so this rejects strings, booleans and null
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(isinstance(v, float) for v in row) for row in rows
    ):
        raise UsageError(f"{path}: coefficients must be a list of rows of numbers")
    try:
        return ineq_mod.new_inequality(doc["name"], rows)
    except (TsirelsonError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _read_lambda_file(path, expected_len):
    doc = _read_json(path)
    if not isinstance(doc, list) or not all(isinstance(v, float) for v in doc):
        raise UsageError(f"{path}: expected a JSON array of numbers")
    if len(doc) != expected_len:
        raise UsageError(f"{path}: expected {expected_len} entries, got {len(doc)}")
    lam = np.array(doc, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise UsageError(f"{path}: entries must be finite numbers")
    return lam


def _config_block(args):
    cfg = {"command": args.command, "inequality": args.inequality}
    if args.inequality in _FAMILIES and "n" in args:
        cfg["n"] = args.n
    if getattr(args, "file_path", None):
        cfg["file"] = args.file_path
    if getattr(args, "lambda_file", None):
        cfg["lambda_file"] = args.lambda_file
    if getattr(args, "n_range", None):
        cfg["n_range"] = args.n_range
    cfg["format"] = args.format
    return cfg


def _analytic_bound(kind, n):
    if kind == "chained":
        return analytic.chained_quantum_bound(n)
    if kind == "chsh":
        return analytic.chained_quantum_bound(2)
    return None


def _dual_fields(cert):
    return {
        "lambda": [float(v) for v in cert.lam],
        "feasibility_margin": cert.feasibility_margin,
        "certified_bound": cert.certified_bound,
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_bound(args):
    ineq = _load_inequality(args)
    report = sdp.solve(ineq)
    out = {
        "config": _config_block(args),
        "inequality": ineq.name,
        "primal": {
            "value": report.primal.value,
            "iterations": report.primal.iterations,
            "residual": report.primal.residual,
            "converged": report.primal.converged,
        },
        "dual": _dual_fields(report.dual),
        "gap": report.gap,
        "certified_optimal": report.certified_optimal,
        "classical_bound": report.classical_bound,
        "runs": [vars(run) for run in report.runs],
    }
    bound = _analytic_bound(args.inequality, args.n)
    if bound is not None:
        out["analytic_bound"] = bound
    status = EXIT_OK
    if not report.primal.converged and report.relative_gap > NUMERICAL_GAP_THRESHOLD:
        status = EXIT_NUMERICAL
    return out, status


def _cmd_certify(args):
    ineq = _load_inequality(args)
    c = ineq.coefficients
    lam = _read_lambda_file(args.lambda_file, sum(c.shape))
    cert = sdp.certify(c, lam)
    out = {
        "config": _config_block(args),
        "inequality": ineq.name,
        **_dual_fields(cert),
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
    report = sdp.solve(ineq, classical=False)
    u = report.primal.vectors
    _, s, vt = np.linalg.svd(u, full_matrices=False)
    v = u @ vt[s * s > linalg.PSD_TOL].T
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    xs, ys = v[: ineq.n_alice], v[ineq.n_alice :]
    real = realization.realize(xs, ys)
    table = realization.correlation_table(real)
    out = {
        "config": _config_block(args),
        "inequality": ineq.name,
        "dimension": real.dim,
        "achieved_value": float(np.sum(ineq.coefficients * table)),
        "certified_bound": report.dual.certified_bound,
        "max_correlation_error": float(np.abs(table - xs @ ys.T).max()),
    }
    return out, EXIT_OK


def _cmd_spectrum(args):
    if args.inequality != "chained":
        raise UsageError("spectrum is defined for the chained family only")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    spec = _sized(analytic.chained_A_spectrum, args.n)
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
    if args.inequality not in _FAMILIES:
        raise UsageError("table supports the chained and gisin families")
    lo, hi = _parse_range(args.n_range)
    if hi > ENUM_LIMIT:  # row n enumerates n settings a side: fail before the first row
        raise TooLarge(f"enumeration limited to {ENUM_LIMIT} settings per side")
    rows = []
    for n in range(lo, hi + 1):
        ineq = _FAMILIES[args.inequality](n)
        report = sdp.solve(ineq)
        rows.append(
            (n, report.classical_bound, _analytic_bound(args.inequality, n),
             report.primal.value, report.gap)
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
        try:
            text = canonical_json(payload) + "\n"
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
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
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
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
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL
    return _emit(payload, args) or status  # an output failure outranks the command's status


if __name__ == "__main__":
    sys.exit(main())
