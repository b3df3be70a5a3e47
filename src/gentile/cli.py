"""Batch command-line front end.

``SUBCOMMANDS`` declares each subcommand once; ``build_parser`` builds
only the subparser that argv names. A handler returns its report text or
raises, and ``main`` maps the outcome to an exit code: 0 success
(including documented printed-relation FAILs that the oracles agree on),
1 configuration or parse errors, 2 contract violations (pipelines
disagreeing with each other or with tolerance), with one JSON diagnostic
on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from bisect import bisect_left
from json.encoder import encode_basestring_ascii

import numpy as np

from .audit import (audit_crosscheck, audit_table, run_full_audit,
                    sweep_algebra)
from .coherent import (EIGENSTATE_TOL, LambdaChoice, build_coherent,
                       closed_form_modulus_gap, eigenstate_residual,
                       normalization_poly)
from .errors import (DegenerateNodes, GateFailed, GentileError, OutOfRange,
                     ParseError)
from .oscillator import spectrum_crosscheck
from .rep import build_rep, number_from_arcsin
from .su2 import (N_LIMIT, DiagonalChoice, newton_coefficients,
                  solve_representation, verify_representation)
from .symbolic import fold, normal_order, parse

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
    writes, with complex numbers as ``[re, im]``, numpy scalars as their
    Python values and a non-finite float as the string ``"NaN"``,
    ``"Infinity"`` or ``"-Infinity"`` (strict JSON, RFC 8259, has no bare
    NaN or Infinity); dict keys must be strings.
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
        return ('"NaN"' if obj != obj else '"Infinity"' if obj > 0
                else '"-Infinity"')
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


# Largest n accepted.  audit and eval hold a sweep's values as one
# (len(n_values), n+1) complex array per band, 16 MB each at --n 1..1024,
# so their memory grows as n^2; audit fails its own gate at n = 1024.
MAX_N = 1024

# Longest normal-form word eval prints.  Nested powers grow a word
# exponentially (((b^64)^64)^64 is b^262144) and each letter prints as up
# to five characters, so this keeps one word under 5 MB.
MAX_WORD = 10 ** 6


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


def cmd_audit(args) -> str:
    n_values = parse_n_values(args.n)
    try:
        seed = int(args.seed) if re.fullmatch(r"[0-9]+", args.seed) else -1
    except ValueError:  # more digits than int() converts
        seed = -1
    if seed < 0:
        raise OutOfRange(f"invalid --seed {args.seed} (need >= 0)")
    free, limit, matrix = run_full_audit(n_values=tuple(n_values), seed=seed)
    audit_crosscheck(matrix)  # GateFailed -> exit 2 via main()
    if args.format == "table":
        return "\n".join(["# free suite", audit_table(free),
                          "# limit suite", audit_table(limit),
                          "# matrix suite", audit_table(matrix), ""])
    # the symbolic-only free and limit records draw nothing: seed 0
    return _dump_json({
        "free": [r.to_record(0) for r in free],
        "limit": [r.to_record(0) for r in limit],
        "matrix": [r.to_record(seed) for r in matrix],
        "crosscheck": "PASS",
        "n_values": n_values,
    })


def _spectrum_csv(reports) -> str:
    # no field holds a comma, quote or line break, so none is quoted
    rows = ["n,nu,energy,level_index,multiplicity\n"]
    for report in reports:
        levels = report.levels
        energies = [e for e, _ in levels]  # ascending
        for nu, energy in enumerate(report.per_state_energies):
            # the nearest level is one of the two around the bisection
            # point; min breaks a tie to the lower index
            k = bisect_left(energies, energy)
            idx = min(range(max(k - 1, 0), min(k + 1, len(levels))),
                      key=lambda i: abs(energies[i] - energy))
            rows.append(f"{report.n},{nu},{energy:.17g},{idx},"
                        f"{levels[idx][1]}\n")
    return "".join(rows)


def cmd_spectrum(args) -> str:
    n_values = parse_n_values(args.n)
    reports, failures = [], []
    for n, (passed, deviation, report) in zip(
            n_values, spectrum_crosscheck(n_values)):
        reports.append(report)
        if not passed:
            failures.append({"n": n, "deviation": deviation})
    if failures:
        raise GateFailed("spectrum_crosscheck", failures)
    if args.format == "csv":
        return _spectrum_csv(reports)
    if args.format == "table":
        return "".join(f"n={report.n}  case {report.case_class}  "
                       f"levels {report.levels}\n" for report in reports)
    return _dump_json([r.to_dict() for r in reports])


def cmd_coherent(args) -> str:
    n_values = parse_n_values(args.n)
    choice = LambdaChoice(args.lam)
    records, failures = [], []
    for n in n_values:
        state = build_coherent(n, choice)
        residual = eigenstate_residual(state)
        records.append({
            "n": n,
            "lambda_variant": args.lam,
            "delta": state.delta,
            "normalization_poly": normalization_poly(state),
            "eigenstate_residual": residual,
            "closed_form_modulus_gap": closed_form_modulus_gap(state),
        })
        if residual > EIGENSTATE_TOL:
            failures.append({"n": n, "residual": residual})
    if failures:
        raise GateFailed("eigenstate_residual", failures)
    return _dump_json(records)


def cmd_su2(args) -> str:
    n_values = parse_n_values(args.n)
    choice = DiagonalChoice(args.diag)
    if n_values[-1] > N_LIMIT[choice]:
        raise OutOfRange(f"n = {n_values[-1]} is above {N_LIMIT[choice]}, "
                         f"the largest n up to which --A {choice.value} "
                         "passes verify_representation")
    records, solved = [], []
    for n, rep in zip(n_values, solve_representation(n_values, choice)):
        if isinstance(rep, DegenerateNodes):
            records.append({
                "n": n, "choice": choice.value,
                "degenerate_nodes": {"pair": rep.pair,
                                     "separation": rep.separation},
            })
            continue
        record = {"n": n, "j": rep.j, "choice": choice.value}
        records.append(record)
        solved.append((record, rep))
    reps = [rep for _, rep in solved]
    failures = []
    for (record, rep), (residuals, ok) in zip(
            solved, verify_representation(reps) if reps else []):
        record["residuals"] = residuals
        if not ok:
            failures.append({"n": rep.n, "residuals": residuals})
    if failures:
        raise GateFailed("verify_representation", failures)
    # lambda is solved only for a report that is printed
    if reps:
        lambdas = np.conj(newton_coefficients(reps))
        for (record, rep), row in zip(solved, lambdas):
            record["lambdas"] = row[:rep.n].tolist()
    return _dump_json(records)


def _beyond(what: str, n: int) -> OutOfRange:
    return OutOfRange(f"{what} at n = {n} is beyond float range, so it "
                      "cannot be evaluated")


def cmd_eval(args) -> str:
    expr = parse(args.expression)
    poly = normal_order(expr)  # OutOfRange -> exit 1 via main()
    longest = max(map(sum, poly.sorted_keys()), default=0)
    if longest > MAX_WORD:
        raise OutOfRange(f"a normal-form word of {longest} letters is above "
                         f"{MAX_WORD}, so it cannot be printed")
    n_values = parse_n_values(args.n)
    reps = [build_rep(n) for n in n_values]
    # the direct side over the sweep; eval_at refuses a scalar beyond float
    # range, and a row that is not finite names its own n
    with np.errstate(over="ignore", invalid="ignore"):
        direct = fold(expr, sweep_algebra(reps))
        size = direct.row_max(len(reps))
    # refused in the order of a sweep one n at a time: the direct side at
    # the first n, the normal form's coefficients, then at each n the
    # direct side and the normal form's matrix
    if not math.isfinite(size[0]):
        raise _beyond("a matrix product", n_values[0])
    poly._band_tables()  # OutOfRange -> exit 1 via main()
    with np.errstate(over="ignore", invalid="ignore"):
        normal = poly.eval_rep(reps)
        normal_size = normal.row_max(len(reps))
    for n, s, t in zip(n_values, size, normal_size):
        if not math.isfinite(s):
            raise _beyond("a matrix product", n)
        if not math.isfinite(t):
            raise _beyond("the normal form", n)
    residuals = (direct - normal).row_max(len(reps))
    records = [{"n": n, "matrix_residual": float(r)}
               for n, r in zip(n_values, residuals)]
    if args.format == "table":
        lines = [f"normal form: {poly!r}"]
        for row in records:
            lines.append(f"n={row['n']:3d}  "
                         f"residual {row['matrix_residual']:.3e}")
        return "\n".join(lines) + "\n"
    return _dump_json({"expression": args.expression,
                       "normal_form": repr(poly),
                       "per_n": records})


def cmd_arcsin_audit(args) -> str:
    n_values = parse_n_values(args.n)
    reps = [build_rep(n) for n in n_values]
    records = []
    # GateFailed -> exit 2 via main()
    for n, audit in zip(n_values, number_from_arcsin(reps)):
        records.append({
            "n": n,
            "table": audit.table,
            "collisions": audit.collisions,
            "collision_flag": audit.collision_flag,
            "max_reconstruction_error": max(
                abs(value - v) for v, value, _ in audit.table),
        })
    return _dump_json(records)


# the options every subcommand takes; main() reads --out
COMMON_OPTIONS = {
    "--n": {"default": DEFAULT_SWEEP,
            "help": "single n or range A..B (default %(default)s)"},
    "--out": {"default": None, "help": "output file (UTF-8)"},
}

# name -> (help, handler, --format choices, further options as flag ->
# add_argument keywords); the one place a subcommand is declared
SUBCOMMANDS = {
    "audit": ("identity-audit catalog", cmd_audit, ("json", "table"),
              {"--seed": {"default": "0"}}),
    "spectrum": ("oscillator spectrum crosscheck", cmd_spectrum,
                 ("json", "csv", "table"), {}),
    "coherent": ("coherent-state construction", cmd_coherent, (),
                 {"--lambda": {"dest": "lam", "default": "plus",
                               "choices": sorted(c.value
                                                 for c in LambdaChoice)}}),
    "su2": ("su(2) representation solver", cmd_su2, (),
            {"--A": {"dest": "diag", "default": "num",
                     "choices": [c.value for c in DiagonalChoice]}}),
    "eval": ("normal-order and evaluate an expression", cmd_eval,
             ("json", "table"), {"expression": {}}),
    "arcsin-audit": ("Eq. (N2) arcsin reconstruction audit",
                     cmd_arcsin_audit, (), {}),
}
# every option flag some subcommand takes
OPTION_FLAGS = frozenset(["--format", *COMMON_OPTIONS, *(
    flag for *_, options in SUBCOMMANDS.values() for flag in options
    if flag.startswith("-"))])


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: with only the subparser that ``argv[0]``
    names, or with all of them when it names none."""
    names = [argv[0]] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS
    # the usage names every subcommand even when one subparser is built
    parser = argparse.ArgumentParser(
        prog="gentile",
        usage="%(prog)s [-h] {" + ",".join(SUBCOMMANDS) + "} ...",
        description="Intermediate-statistics verification toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                prog=parser.prog)
    for name in names:
        help_text, handler, formats, options = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if formats:
            options = {"--format": {"choices": formats, "default": "json"},
                       **options}
        for flag, keywords in {**COMMON_OPTIONS, **options}.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser(argv)
        flag = argv[0].partition("=")[0] if argv else None
        if flag in OPTION_FLAGS:
            parser.error(f"option {flag} must follow the subcommand")
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for bad usage; remap to 1
        return 0 if exc.code == 0 else 1
    try:
        _emit(args.func(args), args.out)
        return 0
    except (ParseError, OutOfRange, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:  # only _emit touches the file system
        sys.stderr.write(f"error: cannot write {args.out or 'stdout'}: "
                         f"{exc.strerror or exc}\n")
        return 1
    except GateFailed as exc:
        contract, detail = exc.args
    except GentileError as exc:
        contract, detail = type(exc).__name__, str(exc)
    sys.stderr.write(_dump_json({"contract": contract, "detail": detail}))
    return 2


if __name__ == "__main__":
    sys.exit(main())
