"""Batch command-line front end.

Subcommands: audit, spectrum, coherent, su2, eval, arcsin-audit.
Exit codes: 0 success (including documented printed-relation FAILs that
the oracles agree on), 1 configuration or parse errors, 2 contract
violations (pipelines disagreeing with each other or with tolerance).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import math
import re
import sys
from bisect import bisect_left
from json.encoder import encode_basestring_ascii

import numpy as np

from .audit import audit_crosscheck, eval_expr, run_full_audit
from .coherent import (EIGENSTATE_TOL, LambdaChoice, build_coherent,
                       compare_closed_form, eigenstate_residual,
                       normalization_poly)
from .errors import (DegenerateNodes, GentileError, InconsistentVerdict,
                     OutOfRange, ParseError)
from .linalg import max_abs_diff
from .oscillator import spectrum_crosscheck
from .rep import build_rep, number_from_arcsin
from .su2 import DiagonalChoice, solve_representation, verify_representation
from .symbolic import normal_order, parse

DEFAULT_SWEEP = "1..24"


def _items_text(items, pad: str) -> str:
    """The items of a non-empty list, one per line at ``pad``.

    Lists of finite exact floats or complex numbers, the bulk of the
    spectrum and coherent reports, are written in one join; anything
    else item by item.
    """
    sep = ",\n" + pad
    kinds = set(map(type, items))
    if kinds == {float} and all(map(math.isfinite, items)):
        return sep.join(map(float.__repr__, items))
    if kinds == {complex} and all(map(cmath.isfinite, items)):
        inner = pad + "  "
        # z.real and z.imag are exact floats, so %r is float.__repr__
        pair = "[\n" + inner + "%r,\n" + inner + "%r\n" + pad + "]"
        return sep.join([pair % (z.real, z.imag) for z in items])
    return sep.join([_json_text(x, pad) for x in items])


def _json_text(obj, pad: str) -> str:
    """JSON text of a report value that starts on a line indented by ``pad``.

    Byte for byte what ``json.dumps(obj, indent=2, sort_keys=True)``
    writes, with complex numbers as ``[re, im]`` and numpy scalars as
    their Python values; dict keys must be strings.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + inner + _items_text(obj, inner) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = (",\n" + inner).join([
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())])
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(obj, complex):
        return _json_text([obj.real, obj.imag], pad)
    if isinstance(obj, np.generic):
        return _json_text(obj.item(), pad)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dump_json(payload) -> str:
    return _json_text(payload, "") + "\n"


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# Largest n accepted: every n builds dense (n+1) x (n+1) matrices.
MAX_N = 1024


def _digits_key(digits: str):
    """Sort key of an ASCII digit string by value, without int(): Python
    refuses to convert strings of more than 4,300 digits."""
    digits = digits.lstrip("0") or "0"
    return len(digits), digits


def parse_n_values(spec_text: str):
    """Parse '--n 5' or '--n 2..6' into an ascending list of ints."""
    match = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", spec_text)
    lo, hi = (match[1], match[2] or match[1]) if match else ("0", "0")
    lo, hi = _digits_key(lo), _digits_key(hi)
    if lo < _digits_key("1") or hi < lo:
        raise OutOfRange(f"invalid n range {spec_text!r} (need 1 <= A <= B)")
    if hi > _digits_key(str(MAX_N)):
        raise OutOfRange(f"n = {hi[1]} is above the maximum {MAX_N}")
    return list(range(int(lo[1]), int(hi[1]) + 1))


def _diagnostic(contract: str, detail) -> str:
    return _dump_json({"contract": contract, "detail": detail})


def cmd_audit(args) -> int:
    n_values = parse_n_values(args.n)
    try:
        seed = int(args.seed) if re.fullmatch(r"[0-9]+", args.seed) else -1
    except ValueError:  # more digits than int() converts
        seed = -1
    if seed < 0:
        raise OutOfRange(f"invalid --seed {args.seed} (need >= 0)")
    free, limit, matrix = run_full_audit(n_values=tuple(n_values), seed=seed)
    try:
        audit_crosscheck(matrix)
    except InconsistentVerdict as exc:
        sys.stderr.write(_diagnostic("audit_crosscheck", str(exc)))
        return 2
    if args.format == "table":
        text = "\n".join(["# free suite", free.table(),
                          "# limit suite", limit.table(),
                          "# matrix suite", matrix.table(), ""])
    else:
        text = _dump_json({
            "free": [r.to_record(free.seed) for r in free.results],
            "limit": [r.to_record(limit.seed) for r in limit.results],
            "matrix": [r.to_record(matrix.seed) for r in matrix.results],
            "crosscheck": "PASS",
            "n_values": n_values,
        })
    _emit(text, args.out)
    return 0


def _spectrum_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "nu", "energy", "level_index", "multiplicity"])
    for report in reports:
        levels = report.levels
        energies = [e for e, _ in levels]  # ascending
        for nu, energy in enumerate(report.per_state_energies):
            # the nearest level is one of the two around the bisection
            # point; min breaks a tie to the lower index
            k = bisect_left(energies, energy)
            idx = min(range(max(k - 1, 0), min(k + 1, len(levels))),
                      key=lambda i: abs(energies[i] - energy))
            writer.writerow([report.n, nu, format(energy, ".17g"),
                             idx, levels[idx][1]])
    return buf.getvalue()


def cmd_spectrum(args) -> int:
    n_values = parse_n_values(args.n)
    reports, failures = [], []
    for n in n_values:
        passed, deviation, report = spectrum_crosscheck(n)
        reports.append(report)
        if not passed:
            failures.append({"n": n, "deviation": deviation})
    if failures:
        sys.stderr.write(_diagnostic("spectrum_crosscheck", failures))
        return 2
    if args.format == "csv":
        text = _spectrum_csv(reports)
    elif args.format == "table":
        lines = []
        for report in reports:
            lines.append(f"n={report.n}  case {report.case_class}  "
                         f"levels {report.levels}")
        text = "\n".join(lines) + "\n"
    else:
        text = _dump_json([r.to_dict() for r in reports])
    _emit(text, args.out)
    return 0


def cmd_coherent(args) -> int:
    n_values = parse_n_values(args.n)
    choice = LambdaChoice(args.lam)
    records, failures = [], []
    for n in n_values:
        state = build_coherent(n, choice)
        residual = eigenstate_residual(state)
        records.append({
            "n": n,
            "lambda_variant": args.lam,
            "delta": list(state.delta),
            "normalization_poly": list(normalization_poly(state)),
            "eigenstate_residual": residual,
            "closed_form_modulus_gap": max(
                row[4] for row in compare_closed_form(state)),
        })
        if residual > EIGENSTATE_TOL:
            failures.append({"n": n, "residual": residual})
    if failures:
        sys.stderr.write(_diagnostic("eigenstate_residual", failures))
        return 2
    _emit(_dump_json(records), args.out)
    return 0


def cmd_su2(args) -> int:
    n_values = parse_n_values(args.n)
    choice = DiagonalChoice(args.diag)
    records, failures = [], []
    for n in n_values:
        try:
            rep = solve_representation(n, choice)
        except DegenerateNodes as exc:
            records.append({
                "n": n, "choice": choice.value,
                "degenerate_nodes": {"pair": list(exc.pair),
                                     "separation": exc.separation},
            })
            continue
        residuals, ok = verify_representation(rep)
        records.append({
            "n": n, "j": rep.j, "choice": choice.value,
            "lambdas": list(rep.lambdas),
            "residuals": residuals,
        })
        if not ok:
            failures.append({"n": n, "residuals": residuals})
    if failures:
        sys.stderr.write(_diagnostic("verify_representation", failures))
        return 2
    _emit(_dump_json(records), args.out)
    return 0


def cmd_eval(args) -> int:
    expr = parse(args.expression)
    poly = normal_order(expr)  # OutOfRange -> exit 1 via main()
    n_values = parse_n_values(args.n)
    records = []
    for n in n_values:
        rep = build_rep(n)
        assignment = {"adag": rep.a_dag, "b": rep.b, "N": rep.num}
        direct = eval_expr(expr, assignment, rep.q, rep.dim)
        ordered = poly.eval_rep(rep)
        records.append({"n": n,
                        "matrix_residual": max_abs_diff(direct, ordered)})
    payload = {"expression": args.expression,
               "normal_form": repr(poly),
               "per_n": records}
    if args.format == "table":
        lines = [f"normal form: {poly!r}"]
        for row in records:
            lines.append(f"n={row['n']:3d}  "
                         f"residual {row['matrix_residual']:.3e}")
        text = "\n".join(lines) + "\n"
    else:
        text = _dump_json(payload)
    _emit(text, args.out)
    return 0


def cmd_arcsin_audit(args) -> int:
    n_values = parse_n_values(args.n)
    records = []
    for n in n_values:
        audit = number_from_arcsin(build_rep(n))
        records.append({
            "n": n,
            "table": [list(row) for row in audit.table],
            "collisions": [list(pair) for pair in audit.collisions],
            "collision_flag": audit.collision_flag,
            "max_reconstruction_error": max(
                abs(value - v) for v, value, _ in audit.table),
        })
    _emit(_dump_json(records), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentile",
        description="Intermediate-statistics verification toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, formats=()):
        p.add_argument("--n", default=DEFAULT_SWEEP,
                       help="single n or range A..B (default %(default)s)")
        p.add_argument("--out", default=None, help="output file (UTF-8)")
        if formats:
            p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("audit", help="identity-audit catalog")
    common(p, ("json", "table"))
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("spectrum", help="oscillator spectrum crosscheck")
    common(p, ("json", "csv", "table"))
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("coherent", help="coherent-state construction")
    common(p)
    p.add_argument("--lambda", dest="lam", default="plus",
                   choices=sorted(c.value for c in LambdaChoice))
    p.set_defaults(func=cmd_coherent)

    p = sub.add_parser("su2", help="su(2) representation solver")
    common(p)
    p.add_argument("--A", dest="diag", default="num",
                   choices=[c.value for c in DiagonalChoice])
    p.set_defaults(func=cmd_su2)

    p = sub.add_parser("eval", help="normal-order and evaluate an expression")
    p.add_argument("expression")
    common(p, ("json", "table"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("arcsin-audit",
                       help="Eq. (N2) arcsin reconstruction audit")
    common(p)
    p.set_defaults(func=cmd_arcsin_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for bad usage; remap to 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ParseError, OutOfRange, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:  # only _emit touches the file system
        sys.stderr.write(f"error: cannot write {args.out or 'stdout'}: "
                         f"{exc.strerror or exc}\n")
        return 1
    except InconsistentVerdict as exc:
        sys.stderr.write(_diagnostic("consistency", str(exc)))
        return 2
    except GentileError as exc:
        sys.stderr.write(_diagnostic(type(exc).__name__, str(exc)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
