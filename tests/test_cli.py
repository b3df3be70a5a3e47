"""Batch CLI: exit codes, formats, determinism."""

import argparse
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import pkgutil
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gentile
from gentile.cli import MAX_N, _dump_json, build_parser, main, parse_n_values
from gentile.errors import OutOfRange
from gentile.symbolic.parser import MAX_PERM_OPERANDS, MAX_POWER


# only ASCII digits, one optional '..' and nothing else make an n spec; the
# last has a lower bound of 5,001 digits, more than int() converts
BAD_N_SPECS = ("0", "", "..", "1...3", "1..1e3", "1_0", "\u0661", " 3",
               "+3", "2..", "1" * 5001 + "..3")


def test_parse_n_values():
    assert parse_n_values("5") == [5]
    assert parse_n_values("2..6") == [2, 3, 4, 5, 6]
    with pytest.raises(OutOfRange):
        parse_n_values("0")
    with pytest.raises(OutOfRange):
        parse_n_values("5..2")
    assert parse_n_values("1024")[-1] == MAX_N == 1024
    for spec in ("1..1025", "1025", "1.." + "9" * 5000):
        with pytest.raises(OutOfRange, match="above the maximum 1024"):
            parse_n_values(spec)
    assert parse_n_values("0" * 5000 + "2..0003") == [2, 3]
    for spec in BAD_N_SPECS:
        with pytest.raises(OutOfRange, match="invalid n range"):
            parse_n_values(spec)


def test_audit_exit_zero(capsys):
    assert main(["audit", "--n", "1..3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["crosscheck"] == "PASS"
    verdicts = {r["identity_id"]: r["verdict"] for r in payload["matrix"]}
    # documented printed-relation failures are data, not exit conditions
    assert verdicts["appB_adagb2_adag"] == "FAIL"


def test_audit_bad_range_exit_one(capsys):
    for spec in BAD_N_SPECS:
        assert main(["audit", "--n", spec]) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid n range {spec!r} (need 1 <= A <= B)\n"


def test_audit_negative_seed_exit_one(capsys):
    # only ASCII digits make a seed; int() would read '1_0' as 10 and refuse
    # more than 4,300 digits with a message that does not name --seed
    for seed in ("-3", "1_0", "\u0661", " 7", "+7", "7.0", "", "9" * 5000):
        assert main(["audit", "--n", "1", "--seed", seed]) == 1
        assert capsys.readouterr().err \
            == f"error: invalid --seed {seed} (need >= 0)\n"


def test_spectrum_json(capsys):
    assert main(["spectrum", "--n", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["levels"] == [
        {"energy": -0.5, "multiplicity": 1},
        {"energy": 0.5, "multiplicity": 1}]


def test_spectrum_csv(capsys):
    assert main(["spectrum", "--n", "3", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 4
    energies = [round(float(r["energy"]), 9) for r in rows]
    assert energies == [0.0, 1.0, 1.0, 0.0]
    assert [r["multiplicity"] for r in rows] == ["2", "2", "2", "2"]


def test_spectrum_sweep(capsys):
    assert main(["spectrum", "--n", "2..6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in payload] == [2, 3, 4, 5, 6]


def test_coherent(capsys):
    assert main(["coherent", "--n", "1", "--lambda", "alternating"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["delta"] == [[1.0, 0.0], [1.0, 0.0]]
    assert payload[0]["eigenstate_residual"] <= 1e-12


def test_su2_json(capsys):
    assert main(["su2", "--n", "1..4", "--A", "adagb"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for record in payload:
        assert set(record["residuals"]) == {"comm87", "comm88p", "comm88m",
                                            "casimir", "e010"}
        assert max(record["residuals"].values()) <= 1e-9


def test_su2_degenerate_diagnostic(capsys):
    # documented node collision is a diagnostic, not a failure
    assert main(["su2", "--n", "2", "--A", "adaga"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["degenerate_nodes"]["pair"] == [1, 2]


@pytest.mark.parametrize("argv", [["su2", "--n", "171", "--A", "num"],
                                  ["su2", "--n", "203", "--A", "adagb"],
                                  ["su2", "--n", "374", "--A", "num"],
                                  ["su2", "--n", "852", "--A", "adagb"]],
                         ids=["num-171", "adagb-203", "num-374",
                              "adagb-852"])
def test_su2_failing_sweep_warns_nothing(argv, capsys):
    # the monomial lambdas overflow from n = 171 (num) and 203 (adagb), and
    # those n fail verification, so no lambda is solved; J+J- overflows at
    # n = 374 (num) and e010's |p|^2 at n = 852 (adagb), where an inf or
    # nan residual is the verdict; stderr holds only the diagnostic
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["contract"] == "verify_representation"


def test_eval(capsys):
    assert main(["eval", "[b,adag]_n", "--n", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normal_form"] == "(1)*1"
    assert payload["per_n"][0]["matrix_residual"] <= 1e-12


def test_eval_parse_error(capsys):
    assert main(["eval", "[b,", "--n", "2"]) == 1
    assert "error" in capsys.readouterr().err


def test_eval_free_symbol_exit_one(capsys):
    # u is outside the quotient alphabet: configuration error, not crash
    assert main(["eval", "u v", "--n", "2"]) == 1


def test_arcsin_audit(capsys):
    assert main(["arcsin-audit", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["collision_flag"] is True
    assert [0, 2] in payload[0]["collisions"]


def test_unknown_subcommand_exit_one(capsys):
    assert main(["no-such-command"]) == 1


def test_output_file_and_determinism(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        assert main(["audit", "--n", "1..3", "--seed", "7",
                     "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_table_format(capsys):
    outs = []
    for _ in range(2):
        assert main(["audit", "--n", "1..2", "--format", "table"]) == 0
        outs.append(capsys.readouterr().out)
    assert "# free suite" in outs[0] and "verdict" in outs[0]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("target", ["missing/x.json", "."],
                         ids=["missing-directory", "is-a-directory"])
def test_unwritable_out_exit_one(target, tmp_path, capsys):
    path = tmp_path / target
    assert main(["spectrum", "--n", "1", "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["coherent", "--n", "1", "--format", "csv"],
    ["su2", "--n", "1", "--seed", "5"],
    ["arcsin-audit", "--n", "1", "--format", "json"],
    ["eval", "b", "--n", "1", "--format", "csv"],
    ["eval", "b", "--n", "1", "--tol", "1e-3"],
] + [[sub, "--n", "1", "--tol", "1"] for sub in
     ("audit", "spectrum", "coherent", "su2", "arcsin-audit")])
def test_unsupported_option_exit_one(argv, capsys):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


def test_eval_zero_denominator_exit_one(capsys):
    assert main(["eval", "1/0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("expression", [
    "adag " * 3000,
    " + ".join(["adag"] * 3000),
    "(" * 2000 + "adag" + ")" * 2000,
    "[" * 2000 + "adag" + ", b]_n" * 2000,
], ids=["product", "sum", "parentheses", "brackets"])
def test_eval_deep_input_exit_one(expression, capsys):
    assert main(["eval", expression, "--n", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expression deeper than 100 levels")
    assert "Traceback" not in err


@pytest.mark.parametrize("expression", [
    "adag^100000000000000000000", f"adag^{MAX_POWER + 1}"],
    ids=["above-maxsize", "cap-plus-one"])
def test_eval_exponent_above_cap_exit_one(expression, capsys):
    assert main(["eval", expression, "--n", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: exponent above {MAX_POWER} at offset 5")
    assert "Traceback" not in err


def test_eval_exponent_at_cap(capsys):
    assert main(["eval", f"adag^{MAX_POWER}", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)


# eval-deep-style expressions with rational scalars, pinned to the output
# of the earlier Fraction-coefficient Laurent arithmetic: a change to how
# coefficients print or to the order in which they are evaluated shows here
PINNED_EVAL = [
    ("[{1/3 q^2 (adag),(N^2) (b)},[adag,b^2]_n]_n",
     "(-1/3*q^3 + 1/3*q^5)*b + (2/3*q^3 + -2/3*q^5)*b*N + (-1/3*q^3 + "
     "1/3*q^4 + q^5 + 1/3*q^6)*b*N*N + (5/3*q^2 + -4/3*q^3 + -2*q^4 + "
     "-5/3*q^5 + 1/3*q^6 + 1/3*q^7)*adag*b*b + (-2*q^2 + 4/3*q^3 + "
     "8/3*q^4 + 2*q^5 + -2/3*q^6 + -2/3*q^7)*adag*b*b*N + (2/3*q^2 + "
     "-2/3*q^3 + -4/3*q^4 + -1*q^5 + q^6 + q^7 + "
     "1/3*q^8)*adag*b*b*N*N + (4/3*q^3 + 1/3*q^4 + -1/3*q^5 + "
     "-4/3*q^6 + -1/3*q^7 + 1/3*q^8)*adag*adag*b*b*b + (-4/3*q^3 + "
     "-2/3*q^4 + 2/3*q^5 + 4/3*q^6 + 2/3*q^7 + "
     "-2/3*q^8)*adag*adag*b*b*b*N + (1/3*q^3 + 1/3*q^4 + -1/3*q^5 + "
     "-2/3*q^6 + -1/3*q^7 + 1/3*q^8 + 1/3*q^9)*adag*adag*b*b*b*N*N",
     "49fc29bc748f5f2e4ca8d6a8f084c0454f826ca82aa1f83b9b84ea25a2a3e268"),
    ("{(b) (sumcyc(adag,adag,N)),[N,7/9 q^-1 (b^2)]_n}",
     "(-7/3*q^-1 + -7 + -28/3*q + -7*q^2 + -7/3*q^3)*b + (-14/3 + "
     "-28/3*q + -28/3*q^2 + -14/3*q^3)*b*N + (7/3*q^-1 + 7/3 + "
     "-7/3*q^2 + -7/3*q^3)*b*N*N + (14/3*q^-1 + 14/3 + -7/3*q + "
     "-7*q^2 + -28/3*q^3 + -7*q^4 + -7/3*q^5)*adag*b*b + (-7*q^-1 + "
     "-14/3 + 7/3*q + -14/3*q^2 + -28/3*q^3 + -28/3*q^4 + "
     "-14/3*q^5)*adag*b*b*N + (7/3*q^-1 + 7/3*q^2 + -7/3*q^4 + "
     "-7/3*q^5)*adag*b*b*N*N + (14/3*q + -7/3*q^5 + "
     "-7/3*q^6)*adag*adag*b*b*b + (-7*q + 7/3*q^2 + "
     "-14/3*q^6)*adag*adag*b*b*b*N + (7/3*q + -7/3*q^2 + 7/3*q^5 + "
     "-7/3*q^6)*adag*adag*b*b*b*N*N",
     "b17c77c0cdb86e2175ea9ba5bc2f611aa4b17160ecdd700c3fc501addc96b58f"),
]


@pytest.mark.parametrize("expression,normal_form,digest", PINNED_EVAL,
                         ids=["one-third-q2", "seven-ninths-qinv"])
def test_eval_output_pinned(expression, normal_form, digest, capsys):
    assert main(["eval", expression, "--n", "1..8"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["normal_form"] == normal_form
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the models sweeps' report bytes, pinned so that a change to the JSON
# writer, the CSV writer or the clustering and collision sweeps behind
# them shows here; the two su2 sweeps at n = 1..64 and the bdaga sweep at
# n = 1..128 fail verification and print their diagnostic on stderr, and
# the su2 sweeps that pass pin the lambda bytes
PINNED_MODELS = [
    (["spectrum", "--n", "1..128"], 0, "out",
     "b23e9ae94bcbe7cb6fb337192648a5a6ca95aff999d5bd4402c13e1126c16115"),
    (["spectrum", "--n", "1..128", "--format", "csv"], 0, "out",
     "7ffc85a48b23a93e5c2c9acd174a0c04c679bd7a34b12dad7a34d170b4f33b3d"),
    (["coherent", "--n", "1..128"], 0, "out",
     "d0f6b68c996605d62b40b2a6240c42bb49b53e1477a5d9ea9e70a39483129ca1"),
    (["coherent", "--n", "1..128", "--lambda", "minus"], 0, "out",
     "684a722f1b0f50d6ac8bf8dc61f904cd79896eceed120f31307d0fdb27293087"),
    (["coherent", "--n", "1..128", "--lambda", "alternating"], 0, "out",
     "bf81e29b2706d35565fdeb364e4d96c99cee055f254e78f5c53b7fd25c941337"),
    (["arcsin-audit", "--n", "1..64"], 0, "out",
     "e3534c716bcf51f62e9e23f14a373f6ef81e3287a79f258af88cb856f09a74c7"),
    (["arcsin-audit", "--n", "1..256"], 0, "out",
     "b590d4f7412b0b35046f831c2a3e732a52c523cababc891e595dc394c05fa177"),
    (["su2", "--n", "1..64", "--A", "num"], 2, "err",
     "5837a3a93fd4f8641e4a50751b0d60691b1a9e6d88e4e7ac833ffaccd42b200f"),
    (["su2", "--n", "1..64", "--A", "adagb"], 2, "err",
     "c9b2c34301f5430c44f2eca2584f980b8f80ad910a39f6a07833739b4013131b"),
    (["su2", "--n", "1..34", "--A", "num"], 0, "out",
     "0caf0b15cb9007cd12a0b40f190fd4c8a04a982b5668d2030d3c59b24b18d5c4"),
    (["su2", "--n", "1..34", "--A", "adagb"], 0, "out",
     "61637523ffa1b433acdd7276a811728f7673f4e18dbc2b2fea7430dc7b092c35"),
    (["su2", "--n", "1..34", "--A", "bdaga"], 0, "out",
     "5ac713cfec75f6930868db8a3e929e9259c4f2c480b62677bb930f35647cdd0b"),
    (["su2", "--n", "1..64", "--A", "adaga"], 0, "out",
     "7e08b32874c4f45cef6c44d1aa737f06b59bb4fce5998c2d019d4a553fa459dd"),
    (["su2", "--n", "1..64", "--A", "aadag"], 0, "out",
     "554a6c577ff25c313a711644c89148c1457351f27ef5e0fdf9dfa73ff2cd0780"),
    (["su2", "--n", "1..128", "--A", "bdaga"], 2, "err",
     "4c54ca93d866fa25306293b6f32b6cc5ba02afd6bec1aff66e7d62c086627c6f"),
]


@pytest.mark.parametrize("argv,code,stream,digest", PINNED_MODELS,
                         ids=["spectrum", "spectrum-csv", "coherent",
                              "coherent-minus", "coherent-alternating",
                              "arcsin", "arcsin-256", "su2-num",
                              "su2-adagb", "su2-num-34", "su2-adagb-34",
                              "su2-bdaga-34", "su2-adaga-64",
                              "su2-aadag-64", "su2-bdaga-128"])
def test_models_output_pinned(argv, code, stream, digest, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    text, other = ((captured.out, captured.err) if stream == "out"
                   else (captured.err, captured.out))
    assert other == ""
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the audit report bytes, pinned so that a change to the catalog, the seeded
# draws, the verdicts or the crosscheck shows here; at n = 1 the crosscheck
# rejects a FAIL residual that vanishes at q = -1 and prints its diagnostic
PINNED_AUDIT = [
    (["audit", "--n", "1..24"], 0, "out",
     "f6759ff7948f1ca2a7ac7c4260fdcf61d9f75f07016c04ba6870921dea5d449e"),
    (["audit", "--n", "1..24", "--seed", "7"], 0, "out",
     "5f1383cad3c0eae0e388c2a5be484b3bed7e20e1e04fcb12169e56548abdf5cb"),
    (["audit", "--n", "2..8", "--format", "table"], 0, "out",
     "420836b38a3b5fc8e41e92a5079fbb442f5831a2db8b704c81de16b9f5fc7953"),
    (["audit", "--n", "1"], 2, "err",
     "f5e6701b0f7b1a79849f723abb5c72710f99645233320f86b80e4778bf244786"),
]


@pytest.mark.parametrize("argv,code,stream,digest", PINNED_AUDIT,
                         ids=["seed-0", "seed-7", "table", "n-1"])
def test_audit_output_pinned(argv, code, stream, digest, capsys):
    test_models_output_pinned(argv, code, stream, digest, capsys)


@pytest.mark.parametrize("expression", [
    "q^100000000000000000000 b",
    "(((((q^10000000000 b)^64)^64)^64)^64)^64",
], ids=["literal", "grown-by-powers"])
def test_eval_q_exponent_beyond_int64_exit_one(expression, capsys):
    assert main(["eval", expression, "--n", "1..2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: a q exponent of the normal form does not fit in int64")
    assert "Traceback" not in captured.err


BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("expression", [
    f"q^{BEYOND_FLOAT} b", f"{BEYOND_FLOAT} b",
], ids=["q-exponent", "coefficient"])
def test_eval_beyond_float_range_exit_one(expression, capsys):
    assert main(["eval", expression, "--n", "1..2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a coefficient or q exponent is "
                                   "beyond float range")
    assert "Traceback" not in captured.err


def test_eval_tiny_coefficient_exit_zero(capsys):
    # 10^-400 underflows to 0.0 rather than overflowing
    assert main(["eval", f"1/{BEYOND_FLOAT} b", "--n", "1..2"]) == 0
    assert json.loads(capsys.readouterr().out)["per_n"]


def test_eval_sumperm_above_cap_exit_one(capsys):
    operands = ",".join((["adag", "b", "N"] * 3)[:MAX_PERM_OPERANDS + 1])
    assert main(["eval", f"sumperm({operands})", "--n", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: sumperm of more than {MAX_PERM_OPERANDS} "
                          "operands at offset 0")
    assert "Traceback" not in err


def _subparsers():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cli_surface():
    # each gate's tolerance is a constant of its module: no option sets one
    common = ["--n", "--out", "-h", "--help"]
    assert {name: sorted(s for a in sub._actions for s in a.option_strings)
            for name, sub in _subparsers().items()} == {
        "audit": sorted(common + ["--format", "--seed"]),
        "spectrum": sorted(common + ["--format"]),
        "coherent": sorted(common + ["--lambda"]),
        "su2": sorted(common + ["--A"]),
        "eval": sorted(common + ["--format"]),
        "arcsin-audit": sorted(common),
    }


@pytest.mark.parametrize("subcommand", sorted(_subparsers()))
def test_every_option_is_read(subcommand):
    # an option the handler never reads would be accepted and ignored
    sub = _subparsers()[subcommand]
    source = inspect.getsource(sub.get_default("func"))
    dests = [a.dest for a in sub._actions
             if not isinstance(a, argparse._HelpAction)]
    assert dests
    for dest in dests:
        assert f"args.{dest}" in source, f"{subcommand}: {dest} is never read"


# functions of src/gentile that no subcommand calls, each with its reason
UNREACHED_ALLOWED = {
    # acceptance criterion 5 needs n = 10^6, far above MAX_N; it builds no
    # matrix, so it stays in the library although no subcommand runs it
    "gentile.oscillator.bose_limit_check",
}


def _reach_argvs():
    """Every subcommand at n <= 3, once per value of each choice option."""
    for name, sub in sorted(_subparsers().items()):
        base = [name, "--n", "1..3"]
        if name == "eval":
            base.insert(1, "sumperm(adag, N) - {b^2, 1/2 q^-1 [N, adag]_n}")
        yield base
        for action in sub._actions:
            for choice in action.choices or ():
                yield base + [action.option_strings[0], choice]


def _modules():
    return [importlib.import_module(info.name) for info
            in pkgutil.walk_packages(gentile.__path__, "gentile.")]


def _public_functions():
    """Code object of each public module-level function of the package."""
    found = {}
    for module in _modules():
        for name, value in vars(module).items():
            fn = inspect.unwrap(value)  # the function under a cache wrapper
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                found[f"{module.__name__}.{name}"] = fn.__code__
    return found


def test_every_public_function_is_reached(capsys):
    # a library function that only tests call belongs in the tests
    for module in _modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):  # calls earlier tests cached
                value.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in _reach_argvs()]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert set(codes) == {0}
    unreached = {name for name, code in _public_functions().items()
                 if code not in called}
    assert unreached == UNREACHED_ALLOWED


# -- JSON encoding, against the per-value walk it replaced --------------------


def _f17(x: float) -> float:
    """Round-trip a float through its 17-significant-digit decimal form."""
    return float(format(float(x), ".17g"))


def _jsonable(obj):
    """Recursively convert report values to deterministic JSON types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [_f17(obj.real), _f17(obj.imag)]
    if isinstance(obj, float):
        return _f17(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    return obj


_FLOATS = st.floats(allow_nan=True, allow_infinity=True,
                    allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308])
_LEAVES = (st.text(max_size=5) | st.integers() | st.booleans() | st.none()
           | _FLOATS | st.complex_numbers(allow_nan=True, allow_infinity=True)
           | _FLOATS.map(np.float64)
           | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
           | st.builds(complex, _FLOATS, _FLOATS).map(np.complex128))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=5), children,
                                        max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_dump_json_matches_reference_walk(payload):
    reference = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    assert _dump_json(payload) == reference + "\n"


def test_dump_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        _dump_json({"x": object()})


# -- the writer's one-join leaf lists and their fallbacks ----------------------


def test_dump_json_float_list_with_non_finite_falls_back():
    assert _dump_json([1.5, math.nan, math.inf, -math.inf]) == (
        "[\n  1.5,\n  NaN,\n  Infinity,\n  -Infinity\n]\n")


def test_dump_json_mixed_float_and_numpy_float():
    payload = {"x": [0.1, np.float64(0.2), 1e-300, np.float64(-3.0)]}
    assert _dump_json(payload) == (
        '{\n  "x": [\n    0.1,\n    0.2,\n    1e-300,\n    -3.0\n  ]\n}\n')


def test_dump_json_complex_lists():
    assert _dump_json([1 + 2j, -0.5j]) == (
        "[\n  [\n    1.0,\n    2.0\n  ],\n  [\n    -0.0,\n    -0.5\n  ]\n]\n")
    assert _dump_json([1 + 2j, complex(math.inf, math.nan)]) == (
        "[\n  [\n    1.0,\n    2.0\n  ],\n  [\n    Infinity,\n    NaN\n"
        "  ]\n]\n")


def test_dump_json_signed_zero_and_empty_containers():
    assert _dump_json([-0.0, 0.0]) == "[\n  -0.0,\n  0.0\n]\n"
    assert _dump_json([]) == "[]\n"
    assert _dump_json({}) == "{}\n"
    assert _dump_json([[], {}, ()]) == "[\n  [],\n  {},\n  []\n]\n"
    assert _dump_json({"a": {"b": []}}) == (
        '{\n  "a": {\n    "b": []\n  }\n}\n')


def test_dump_json_non_ascii_keys_sorted_and_escaped():
    payload = {"\u00e9": 1, "z": "\u2192", "a\n": None}
    assert _dump_json(payload) == json.dumps(
        payload, indent=2, sort_keys=True) + "\n"
    assert _dump_json(payload) == (
        '{\n  "a\\n": null,\n  "z": "\\u2192",\n  "\\u00e9": 1\n}\n')


@pytest.mark.parametrize("argv", [
    ["audit", "--n", "1..3"],
    ["spectrum", "--n", "1..9"],
    ["coherent", "--n", "1..9"],
    ["su2", "--n", "1..9"],
    ["eval", "[adag,b]_n N", "--n", "1..4"],
    ["arcsin-audit", "--n", "1..9"],
], ids=lambda argv: argv[0])
def test_json_reports_round_trip(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
