"""Batch CLI: exit codes, formats, determinism."""

import ast
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gentile
from gentile.audit import IdentityResult
from gentile.cli import (COMMON_OPTIONS, MAX_N, MAX_WORD, OPTION_FLAGS,
                         SUBCOMMANDS, _dump_json, build_parser, main,
                         parse_n_values)
from gentile.errors import OutOfRange
from gentile.su2 import N_LIMIT, DiagonalChoice
from gentile.symbolic.parser import MAX_PERM_OPERANDS, MAX_POWER

README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize("argv", [["su2", "--n", "1..784", "--A", "num"],
                                  ["su2", "--n", "1..99", "--A", "adagb"],
                                  ["su2", "--n", "1..130", "--A", "bdaga"]],
                         ids=["num-1..784", "adagb-1..99", "bdaga-1..130"])
def test_su2_failing_sweep_warns_nothing(argv, capsys, monkeypatch):
    # each sweep runs up to its choice's limit, the largest the CLI
    # accepts, with su2.TOL = -1.0 so that every n fails the gate: every
    # value stays in float range, no lambda is solved and stderr holds
    # only the diagnostic
    monkeypatch.setattr("gentile.su2.TOL", -1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["contract"] == "verify_representation"


class _Solved(Exception):
    """Raised by a stub solve: the refusal let the n through."""


@pytest.mark.parametrize("choice", list(DiagonalChoice),
                         ids=lambda c: c.value)
def test_su2_refuses_n_above_its_limit(choice, monkeypatch, capsys):
    # every n up to the limit passes the gate or has degenerate nodes (a
    # sweep of n = 1..MAX_N); the next n is refused before anything is
    # solved.  adaga and aadag hold to MAX_N, where parse_n_values refuses
    def solve(n, choice):
        raise _Solved(n)

    monkeypatch.setattr("gentile.cli.solve_representation", solve)
    limit = N_LIMIT[choice]
    assert limit == {"num": 784, "adagb": 99, "bdaga": 130, "adaga": MAX_N,
                     "aadag": MAX_N}[choice.value]
    with pytest.raises(_Solved):
        main(["su2", "--n", f"1..{limit}", "--A", choice.value])
    assert main(["su2", "--n", f"1..{limit + 1}", "--A", choice.value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: n = {limit + 1} is above {limit}, the largest n up to "
        f"which --A {choice.value} passes verify_representation\n"
        if limit < MAX_N else
        f"error: n = {limit + 1} is above the maximum {MAX_N}\n")


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


@pytest.mark.parametrize("n", (171, 374), ids=["num-171", "num-374"])
def test_su2_passing_sweep_warns_nothing(n, capsys):
    # num passes these n in Leja order; its monomial lambdas, nested like
    # Horner's rule, stay finite, so stderr is empty and stdout strict JSON
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["su2", "--n", str(n), "--A", "num"]) == 0
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == ""
    record, = json.loads(captured.out, parse_constant=_reject_constant)
    assert len(record["lambdas"]) == n
    assert all(isinstance(x, float) for pair in record["lambdas"]
               for x in pair)


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


# eval-deep-style expressions with rational scalars, pinned so that a
# change to how coefficients print, to the order in which they are
# evaluated or to how q^k is read from the rep's table shows here
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
     "4668e43a71ec27cf19e4298e7c132851f1c3f26b069bb56db37d59dc37733a73"),
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
     "60f78558f573a69933d6298d634308c4f98cc20939845e76a06278076c5ac792"),
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
# them shows here; every su2 sweep passes and pins the lambda bytes, and
# the adaga and aadag sweeps pin their degenerate_nodes records
PINNED_MODELS = [
    (["spectrum", "--n", "1..128"], 0, "out",
     "b23e9ae94bcbe7cb6fb337192648a5a6ca95aff999d5bd4402c13e1126c16115"),
    (["spectrum", "--n", "1..128", "--format", "csv"], 0, "out",
     "7ffc85a48b23a93e5c2c9acd174a0c04c679bd7a34b12dad7a34d170b4f33b3d"),
    (["coherent", "--n", "1..128"], 0, "out",
     "c77a4c100fde7da0d11c08ab5f3dc1080d11c68b776bd4e5100e0c12a4bbef44"),
    (["coherent", "--n", "1..128", "--lambda", "minus"], 0, "out",
     "8a6930c9faf75da64e970b6b37358788c0ac9804e7f7ba144fa37ee88bdb1815"),
    (["coherent", "--n", "1..128", "--lambda", "alternating"], 0, "out",
     "1d6ceb7459f3eb51f923e3c38e3a7ef0afdde4d02bffa7706929fd316f7b81b0"),
    (["arcsin-audit", "--n", "1..64"], 0, "out",
     "e3534c716bcf51f62e9e23f14a373f6ef81e3287a79f258af88cb856f09a74c7"),
    (["arcsin-audit", "--n", "1..256"], 0, "out",
     "b590d4f7412b0b35046f831c2a3e732a52c523cababc891e595dc394c05fa177"),
    (["su2", "--n", "1..64", "--A", "num"], 0, "out",
     "d7b12eb7677c3ae06bbe6df7a19f8c71334646a8874c841b8f6263c8441177f3"),
    (["su2", "--n", "1..64", "--A", "adagb"], 0, "out",
     "6c626f021a09536dcf8699a5707f89141383739c8f8ee0d530400fc9476609c1"),
    (["su2", "--n", "1..34", "--A", "num"], 0, "out",
     "0ffe2ce3cf4bdd66f70b091f37726196a407d600c7a3cea5780b053aff993e83"),
    (["su2", "--n", "1..34", "--A", "adagb"], 0, "out",
     "c96e91b70bbd04d737dde6808b1b747e90ef9e7e65e0e5f9cc5100e76e792114"),
    (["su2", "--n", "1..34", "--A", "bdaga"], 0, "out",
     "02ba25b38d379aeac8925b9dce96f004a1a116ade84dc61c0e58ea5a0753d3e5"),
    (["su2", "--n", "1..64", "--A", "adaga"], 0, "out",
     "b0dabc1847c54b55b321bf7838b8fc046d0f469363afbf15f655aa83e47fb412"),
    (["su2", "--n", "1..64", "--A", "aadag"], 0, "out",
     "b3f9d763864046da5e6a2b79762c53b741e82168207efb445fd8099186ec4d78"),
    (["su2", "--n", "1..128", "--A", "bdaga"], 0, "out",
     "f7e02afcb107525a71117a5f1b06bc43e4fcbb945f5ea132360ebbd1d63f7589"),
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
# SplitMix64 draws, the verdicts or the crosscheck shows here; at n = 1 the
# crosscheck rejects a FAIL residual that vanishes at q = -1 and prints its
# diagnostic
PINNED_AUDIT = [
    (["audit", "--n", "1..24"], 0, "out",
     "6fe88931f356d5c7759aab54f3fdd40d35b58ce495c01a02e721541a6c45db11"),
    (["audit", "--n", "1..24", "--seed", "7"], 0, "out",
     "502eb160307108bc3fb8b75d302ffde31818897201a4a914695568da0b0ba666"),
    (["audit", "--n", "2..8", "--format", "table"], 0, "out",
     "a48d10b8fae157eb5e5fe46dbb06f8373774d18898fc77a8ca95425948f322fa"),
    (["audit", "--n", "1"], 2, "err",
     "958b4fa80ebb85a7f4b169280d13f21e27a9ec28e6d730f12b585748356350fc"),
]


@pytest.mark.parametrize("argv,code,stream,digest", PINNED_AUDIT,
                         ids=["seed-0", "seed-7", "table", "n-1"])
def test_audit_output_pinned(argv, code, stream, digest, capsys):
    test_models_output_pinned(argv, code, stream, digest, capsys)


# help and usage-error text, pinned as sha256 of "code\0stdout\0stderr" so
# that a change to how the parser is built shows here; argparse wraps at
# the terminal width and words its messages per Python version, so these
# hold at COLUMNS=80 on Python 3.11, the version CI runs
PINNED_HELP = [
    ([], "260a4c9f7bec7c9d4f7a87dfde98ecea45b85268c0b127974d2f0581791e4815"),
    (["-h"],
     "173ae1a3edd604cf7f88759d76e6826ff51017ab44a5819c8dfdd45817946d80"),
    (["x"],
     "c2b8af03932c3ed3408dfe0501c7d84eef39dcb0b04fb61a16321e957868e0c3"),
    (["audit", "-h"],
     "acddc9d0ea2357faa8f3a578875297208ddfd434d6e66141b71f3d04e96ce963"),
    (["spectrum", "-h"],
     "9e51ecd7291d2966b21b62cc8512cb2fb92973632c80daf5ffcc02399bbe6939"),
    (["coherent", "-h"],
     "3202f15dd9e0e6fe4f0409a8a6f1a7ccaceda76f56fc74ca0c8e34e69f65cddb"),
    (["su2", "-h"],
     "b9805a012cf401c31a644aece0db27dc442a60a18198047f6c96d41a8b32961f"),
    (["eval", "-h"],
     "3f3fddccb175dde1c8d8a99d704072c59b49791535adb9827e6c478e6fb5e419"),
    (["arcsin-audit", "-h"],
     "c31e5f6cc0679f66b7bb8e58776547424fa156d980771a6786207149b6b1e22a"),
    (["audit", "--bogus"],
     "ab559f536508142841f44ac1f71a71ca5ce1d337d287ba186cd3727e28f0276e"),
    (["eval"],
     "0b0a74bf28fca172428491a198ee773d54703e6ecb50d0ccd3b1254a6818b528"),
    (["coherent", "--lambda", "zz"],
     "1a216b5a624e878cef7866d26a88b7418a33a29524503d7efeb08dc2f2e3e8af"),
    (["audit", "--n"],
     "a3727c099815bc938efbb02d035f1cfb3b29034c592eec6980555c4b8a909244"),
    (["--n", "3", "audit"],
     "4435939f5b9c5809bb381835bc352f7f1020999d0df7cb9d7ec09a635cc0c140"),
    # the expression is parsed before --n, and --n before --seed
    (["eval", "c", "--n", "0"],
     "65488a9b23f673c3465757248af3ddb7080fb9ee6741f9f046616f9a079c6ef6"),
    (["eval", "(", "--n", "0"],
     "6c8ae4033de98ed063a92662895f6e33da90a4e36a7716c191c069dc74d76fa4"),
    (["audit", "--n", "0", "--seed", "x"],
     "94052b0e6baf6c327abe93564906ce1af1464d43361a467631091758534822c6"),
]


@pytest.mark.parametrize("argv,digest", PINNED_HELP,
                         ids=["_".join(argv) or "no-arguments"
                              for argv, _ in PINNED_HELP])
def test_help_and_usage_errors_pinned(argv, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    captured = capsys.readouterr()
    blob = f"{code}\0{captured.out}\0{captured.err}"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


BEYOND_FLOAT = "1" + "0" * 400


def test_eval_large_q_exponent_residual_is_zero(capsys):
    # q^(10^15) b is q^(10^15 mod (n+1)) b: both pipelines read that power
    # from the rep's table, so they agree exactly
    argv = ["eval", "q^1000000000000000 b", "--n", "1..3", "--format",
            "table"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"n={n:3d}  residual 0.000e+00" for n in (1, 2, 3)]


def test_eval_scalar_power_residual_is_zero(capsys):
    # a power of a scalar is folded when parsed, so the direct pipeline
    # reads the same table entry q^(K mod (n+1)) as the normal form rather
    # than raising a scalar matrix to the power in floating point
    argv = ["eval", "(((((q^10000000000)^64)^64)^64)^64)^64 b", "--n",
            "1..3", "--format", "table"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["normal form: (q^10737418240000000000)*b",
                     *(f"n={n:3d}  residual 0.000e+00" for n in (1, 2, 3))]


@pytest.mark.parametrize("expression", [
    "q^100000000000000000000 b",
    "q^-100000000000000000001 b",
    f"q^{BEYOND_FLOAT} b",
], ids=["beyond-int64", "negative-beyond-int64", "beyond-float-range"])
def test_eval_q_exponent_reduced_exactly(expression, capsys):
    # a q exponent of any size is reduced mod n+1 as an int
    assert main(["eval", expression, "--n", "1..3"]) == 0
    per_n = json.loads(capsys.readouterr().out)["per_n"]
    assert [row["matrix_residual"] for row in per_n] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("expression,letters", [
    ("(((b^64)^64)^64)^4", 4 * 64 ** 3),
    ("(((((q^10000000000 b)^64)^64)^64)^64)^64", 64 ** 5),
], ids=["above-cap", "grown-by-powers"])
def test_eval_word_above_cap_exit_one(expression, letters, capsys):
    # nested powers grow a word exponentially: b^(64^5) would print as a
    # 2 GB word
    assert main(["eval", expression, "--n", "1..2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: a normal-form word of {letters} letters is above "
        f"{MAX_WORD}, so it cannot be printed\n")


def test_eval_long_word_below_cap(capsys):
    assert main(["eval", "((b^64)^64)^64", "--n", "1..2"]) == 0
    assert json.loads(capsys.readouterr().out)["normal_form"].count("b") \
        == 64 ** 3


# 1 followed by 200 zeros: finite, but its square is not
_E200 = "1" + "0" * 200
_DIRECT_BEYOND = ("a matrix product at n = {} is beyond float range, so it "
                  "cannot be evaluated")


@pytest.mark.parametrize("expression,n,message", [
    (f"{BEYOND_FLOAT} b", "1..2",
     "a coefficient is beyond float range, so it cannot be evaluated"),
    # 2^262144 would have 78,914 digits: refused at its last '^', before
    # it is built
    ("(((2^64)^64)^64) b", "1..2",
     "a power of a scalar may exceed 4300 digits at offset 12"),
    # the direct side is evaluated first, and its overflow is refused
    (f"{_E200} b {_E200}", "1", _DIRECT_BEYOND.format(1)),
    # the normal form is 0; the direct side was inf - inf, a NaN residual
    (f"{_E200} b b {_E200} - {_E200} b {_E200} b", "2",
     _DIRECT_BEYOND.format(2)),
    # b^5 is 0 at n = 1, so only the normal form's 10^400 b^5 overflows
    (f"{_E200} b^5 {_E200}", "1", "a coefficient of the normal form is "
     "beyond float range, so it cannot be evaluated"),
], ids=["coefficient", "scalar-power", "direct-overflow",
        "direct-overflow-then-invalid", "normal-form-overflow"])
def test_eval_beyond_float_range_exit_one(expression, n, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", expression, "--n", n]) == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("expression,offset", [
    ("(((((2^64)^64)^64)^64)^64) b", 14),
    ("(((1/2)^64)^64)^64 b", 15),
], ids=["numerator", "denominator"])
def test_eval_scalar_power_above_digit_limit_exit_one(expression, offset,
                                                      capsys):
    # k * max(ceil(log2 sum |numerators|), ceil(log2 den)) bits above those
    # of 4,300 digits are refused before s^k is computed, so a 2^30-bit
    # integer is never built
    start = time.perf_counter()
    assert main(["eval", expression, "--n", "1..2"]) == 1
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr() == (
        "", "error: a power of a scalar may exceed 4300 digits at offset "
        f"{offset}\n")


def test_eval_scalar_power_below_digit_limit_exit_zero(capsys):
    # 2^4096 has 1,234 digits, so (1/2)^4096 is folded and printed
    assert main(["eval", "((1/2)^64)^64 b", "--n", "1..2"]) == 0
    normal_form = json.loads(capsys.readouterr().out)["normal_form"]
    assert normal_form == f"(1/{2 ** 4096})*b"


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


def _choices(name):
    """Option -> choices of each option the table declares with choices."""
    _, _, formats, options = SUBCOMMANDS[name]
    declared = {"--format": formats} if formats else {}
    declared.update({flag: keywords["choices"]
                     for flag, keywords in options.items()
                     if "choices" in keywords})
    return declared


def test_cli_surface():
    # each gate's tolerance is a constant of its module: no option sets one
    assert list(COMMON_OPTIONS) == ["--n", "--out"]
    assert {name: (formats, sorted(options))
            for name, (_, _, formats, options) in SUBCOMMANDS.items()} == {
        "audit": (("json", "table"), ["--seed"]),
        "spectrum": (("json", "csv", "table"), []),
        "coherent": ((), ["--lambda"]),
        "su2": ((), ["--A"]),
        "eval": (("json", "table"), ["expression"]),
        "arcsin-audit": ((), []),
    }


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_every_option_is_read(subcommand):
    # an option the handler never reads would be accepted and ignored;
    # main reads --out, since it writes every report
    _, handler, formats, options = SUBCOMMANDS[subcommand]
    declared = {**COMMON_OPTIONS, **options}
    if formats:
        declared["--format"] = {}
    for flag, keywords in declared.items():
        dest = keywords.get("dest", flag.lstrip("-"))
        source = inspect.getsource(main if flag == "--out" else handler)
        assert f"args.{dest}" in source, f"{subcommand}: {dest} is never read"


def _accepts(parser, name) -> bool:
    try:
        parser.parse_args([name, "-h"])
    except SystemExit as exc:
        return exc.code == 0
    return False


@pytest.mark.parametrize("argv,built", [
    (["su2"], ["su2"]), (["eval", "b"], ["eval"]), ([], list(SUBCOMMANDS)),
    (["-h"], list(SUBCOMMANDS)), (["x"], list(SUBCOMMANDS)),
    (["--n", "3", "audit"], list(SUBCOMMANDS)),
], ids=["su2", "eval", "no-arguments", "help", "unknown", "option-first"])
def test_build_parser_builds_only_the_named_subparser(argv, built, capsys):
    parser = build_parser(argv)
    assert [name for name in SUBCOMMANDS if _accepts(parser, name)] == built
    capsys.readouterr()


def test_main_reads_sys_argv(monkeypatch, capsys):
    argv = ["spectrum", "--n", "1..3", "--format", "table"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["gentile"] + argv)
    assert main() == 0
    assert capsys.readouterr() == expected


def test_module_entry_point(capsys):
    # the path the console script takes: main() with no arguments
    assert main(["spectrum", "--n", "1..3"]) == 0
    expected = capsys.readouterr().out
    src = str(Path(gentile.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "gentile.cli", "spectrum", "--n", "1..3"],
        capture_output=True, text=True, env=env, check=False)
    assert (result.returncode, result.stdout, result.stderr) \
        == (0, expected, "")


def test_option_flags_are_every_subcommand_option():
    assert OPTION_FLAGS == {"--n", "--out", "--format", "--seed", "--lambda",
                            "--A"}


def test_import_loads_neither_dataclasses_nor_csv():
    # the classes are written out, so no code is generated at import
    src = str(Path(gentile.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, gentile.cli; "
         "print(sorted({'dataclasses', 'csv'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=False)
    assert (result.returncode, result.stdout, result.stderr) \
        == (0, "[]\n", "")


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_subcommand_leaves_numpy_random_unloaded(subcommand, tmp_path):
    # the audit draws from its own SplitMix64 stream, so no subcommand
    # pays for importing numpy.random and its hashing and OpenSSL modules
    argv = [subcommand, *(["adag b"] if subcommand == "eval" else []),
            "--n", "1..3", "--out", str(tmp_path / "report")]
    src = str(Path(gentile.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom gentile.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(sorted({'numpy.random'} & set(sys.modules)))\n"
         "sys.exit(code)", *argv],
        capture_output=True, text=True, env=env, check=False)
    assert (result.returncode, result.stdout, result.stderr) \
        == (0, "[]\n", "")


@pytest.mark.parametrize("flag", sorted(OPTION_FLAGS))
def test_option_before_subcommand_is_named(flag, capsys):
    for argv in ([flag, "1", "audit"], [f"{flag}=1", "audit"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(
            f"gentile: error: option {flag} must follow the subcommand\n")


def _readme_table(header):
    """Cells of each row of the README table under ``header``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.replace(" ", "").startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            return rows
        # a cell may hold an escaped pipe, \|
        rows.append([cell.strip()
                     for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def _readme_contracts(subcommand):
    """The contracts README's gate table names for a subcommand."""
    return {contract
            for name, _, _, _, cell in _readme_table("|subcommand|gate|")
            if name == f"`{subcommand}`"
            for contract in re.findall(r"`([^`]+)`", cell)}


def test_readme_gate_constants_match_the_code():
    rows = _readme_table("|subcommand|gate|")
    assert {name.strip("`") for name, *_ in rows} == set(SUBCOMMANDS)
    constants = [(constant, value) for _, _, constant, value, _ in rows
                 if constant != "—"]
    assert constants
    for constant, value in constants:
        module, name = constant.strip("`").rsplit(".", 1)
        module = importlib.import_module(f"gentile.{module}")
        assert getattr(module, name) == float(value), constant


def test_readme_flags_table_lists_every_declared_flag():
    rows = {name.strip("`").split()[0]: flags
            for name, flags in _readme_table("|subcommand|flags|")}
    assert set(rows) == set(SUBCOMMANDS)
    for name, (_, _, formats, options) in SUBCOMMANDS.items():
        flags = [flag for flag in options if flag.startswith("-")]
        if formats:
            flags.append("--format")
        if not flags:
            assert rows[name] == "none"
        for flag in flags:
            assert re.search(f"`{flag}[ `]", rows[name]), (name, flag)
        for flag, choices in _choices(name).items():
            listed = re.search(f"`{flag} ([^`]*)`", rows[name])[1]
            assert sorted(listed.split("\\|")) == sorted(choices), flag


def test_readme_contracts_are_the_gate_failed_contracts():
    # the first argument of every GateFailed(...) in the package is a
    # string literal, and README's gate table names exactly these
    src = Path(gentile.__path__[0])
    contracts = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "GateFailed"):
                assert isinstance(node.args[0], ast.Constant), path
                contracts.add(node.args[0].value)
    assert contracts == set().union(*map(_readme_contracts, SUBCOMMANDS))
    assert contracts == {"audit_crosscheck", "spectrum_crosscheck",
                         "NotHermitian", "eigenstate_residual",
                         "verify_representation", "DomainError"}


def _inconsistent_audit(n_values, seed):
    # free, limit and matrix results with one symbolic PASS whose numeric
    # residual is far above audit.TOL
    result = IdentityResult(
        identity_id="appX", strategy="QUOTIENT", specialization="Q_AT_N",
        residual_digest=None, numeric_residual=1.0, n_tested=n_values,
        verdict="PASS")
    return [], [], [result]


@pytest.mark.parametrize("argv,target,replacement,diagnostic", [
    (["audit", "--n", "2"], "gentile.cli.run_full_audit", _inconsistent_audit,
     '{\n  "contract": "audit_crosscheck",\n  "detail": "inconsistent '
     'verdicts for \'appX\': symbolic PASS but numeric residual '
     '1.000e+00"\n}\n'),
    (["spectrum", "--n", "1"], "gentile.cli.spectrum_crosscheck",
     lambda n: (False, 0.5, None),
     '{\n  "contract": "spectrum_crosscheck",\n  "detail": [\n    {\n'
     '      "deviation": 0.5,\n      "n": 1\n    }\n  ]\n}\n'),
    (["spectrum", "--n", "1"], "gentile.oscillator.build_hamiltonian",
     lambda n: np.full(n + 1, 1j),
     '{\n  "contract": "NotHermitian",\n  "detail": "max |m - m^H| = '
     '2.000e+00 exceeds tol 1.000e-10"\n}\n'),
    (["coherent", "--n", "1"], "gentile.cli.eigenstate_residual",
     lambda state: 1.0,
     '{\n  "contract": "eigenstate_residual",\n  "detail": [\n    {\n'
     '      "n": 1,\n      "residual": 1.0\n    }\n  ]\n}\n'),
    (["su2", "--n", "1"], "gentile.cli.verify_representation",
     lambda rep: ({"casimir": 1.0}, False),
     '{\n  "contract": "verify_representation",\n  "detail": [\n    {\n'
     '      "n": 1,\n      "residuals": {\n        "casimir": 1.0\n'
     '      }\n    }\n  ]\n}\n'),
    (["arcsin-audit", "--n", "1"], "gentile.rep._sine_diagonal",
     lambda rep: np.full(rep.n + 1, 2j),
     '{\n  "contract": "NotHermitian",\n  "detail": "max |m - m^H| = '
     '4.000e+00 exceeds tol 1.000e-12"\n}\n'),
    (["arcsin-audit", "--n", "1"], "gentile.rep._sine_diagonal",
     lambda rep: np.full(rep.n + 1, 2 + 0j),
     '{\n  "contract": "DomainError",\n  "detail": "eigenvalue outside '
     'domain [-1.0, 1.0] by more than 1e-12"\n}\n'),
], ids=["audit", "spectrum", "spectrum-hermitian", "coherent", "su2",
        "arcsin-hermitian", "arcsin-domain"])
def test_failed_gate_exits_two(argv, target, replacement, diagnostic,
                               monkeypatch, capsys):
    monkeypatch.setattr(target, replacement)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", diagnostic)
    assert json.loads(diagnostic)["contract"] in _readme_contracts(argv[0])


# members that no subcommand calls but the benchmark's tracer reads
BENCH_READS = {
    # bench/tracer.py counts the terms of expand_free's and normal_order's
    # results (FreePoly and QuotientPoly inherit it)
    "gentile.laurent.Terms.terms",
}


def _reach_argvs():
    """Every subcommand at n <= 3, once per value of each choice option."""
    for name in sorted(SUBCOMMANDS):
        base = [name, "--n", "1..3"]
        if name == "eval":
            base.insert(1, "sumperm(adag, N) - {b^2, 1/2 q^-1 [N, adag]_n}")
        yield base
        for flag, choices in _choices(name).items():
            for choice in choices:
                yield base + [flag, choice]


def _edge_argvs(tmp_path):
    """(argv, exit code): one argv for each error message the CLI writes,
    and the few inputs that reach a branch no sweep above reaches."""
    return [
        (["-h"], 0),
        (["x"], 1),
        (["--n", "3", "audit"], 1),
        (["audit", "--n", "0"], 1),
        (["audit", "--n", str(MAX_N + 1)], 1),
        (["audit", "--n", "1", "--seed", "x"], 1),
        # more digits than int() converts
        (["audit", "--n", "1", "--seed", "9" * 5000], 1),
        (["su2", "--n", str(N_LIMIT[DiagonalChoice.ADAG_B] + 1), "--A",
          "adagb"], 1),
        (["spectrum", "--n", "1", "--out",
          str(tmp_path / "missing" / "x.json")], 1),
        # a report written to a file
        (["spectrum", "--n", "1", "--out", str(tmp_path / "x.json")], 0),
        (["eval", "u v", "--n", "1"], 1),
        (["eval", "(((b^64)^64)^64)^4", "--n", "1"], 1),
        (["eval", f"{BEYOND_FLOAT} b", "--n", "1"], 1),
        # finite scalars whose product overflows in the direct product
        (["eval", f"{_E200} b {_E200}", "--n", "1"], 1),
        # and in the normal form only: b^5 is 0 at n = 1
        (["eval", f"{_E200} b^5 {_E200}", "--n", "1"], 1),
        (["eval", "(((2^64)^64)^64) b", "--n", "1"], 1),
        (["eval", "b #", "--n", "1"], 1),
        (["eval", "1" * 4301, "--n", "1"], 1),
        (["eval", "[b,", "--n", "1"], 1),
        # a '^' after q that no exponent follows is handed back
        (["eval", "q^b", "--n", "1"], 1),
        (["eval", "b + )", "--n", "1"], 1),
        (["eval", "b)", "--n", "1"], 1),
        (["eval", "1/0", "--n", "1"], 1),
        (["eval", "x", "--n", "1"], 1),
        (["eval", "(" * 101 + "b" + ")" * 101, "--n", "1"], 1),
        (["eval", f"b^{MAX_POWER + 1}", "--n", "1"], 1),
        (["eval", "sumperm(b, b, b, b, b, b, b)", "--n", "1"], 1),
        # the zero normal form and its zero scalar
        (["eval", "0", "--n", "1"], 0),
        (["eval", "[b, N]", "--n", "1"], 0),
        # a nonzero seed, which the stream mixes into its state
        (["audit", "--n", "2", "--seed", "7"], 0),
    ]


def _modules():
    return [importlib.import_module(info.name) for info
            in pkgutil.walk_packages(gentile.__path__, "gentile.")]


def _code(value):
    """Code object of a function, method, property or cached property."""
    for attribute in ("fget", "func", "__func__"):
        value = getattr(value, attribute, value)
    fn = inspect.unwrap(value)  # the function under a cache wrapper
    return fn.__code__ if inspect.isfunction(fn) else None


def _public_functions():
    """Code object of each public module-level function of the package,
    and of each public method and property of its classes."""
    found = {}
    for module in _modules():
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(
                    value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(value)):
                found[f"{module.__name__}.{name}"] = _code(value)
            elif inspect.isclass(value):
                for attribute, member in vars(value).items():
                    code = _code(member)
                    if code is not None and not attribute.startswith("_"):
                        found[f"{module.__name__}.{name}.{attribute}"] = code
    return found


def _statements():
    """(file, line) -> (function, source text) of each statement in a
    function body of the package, the first line of each, docstrings
    left out."""
    found = {}

    def visit(node, path, lines, scope, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if function:  # a nested def or class is a statement
                    found[path, child.lineno] = (
                        function, lines[child.lineno - 1].strip())
                inner = f"{scope}.{child.name}"
                visit(child, path, lines, inner,
                      inner if isinstance(child, ast.FunctionDef)
                      else None)
            elif isinstance(child, ast.stmt):
                docstring = (isinstance(child, ast.Expr)
                             and isinstance(child.value, ast.Constant)
                             and isinstance(child.value.value, str))
                if function and not docstring:
                    found[path, child.lineno] = (
                        function, lines[child.lineno - 1].strip())
                visit(child, path, lines, scope, function)
            elif isinstance(child, ast.excepthandler):
                visit(child, path, lines, scope, function)

    for module in _modules():
        source = Path(module.__file__).read_text()
        visit(ast.parse(source), module.__file__, source.splitlines(),
              module.__name__, None)
    return found


# statements no CLI input executes, as (function, first source line) ->
# why each stays
_GATE = "a gate's failure path, which the inputs above pass"
_EXIT_2 = "main's exit 2, taken only when a gate fails"
_VALUE = "value protocol: records and sums compare, hash and print as values"
_FROZEN = "value protocol: a record's fields cannot be assigned or deleted"
_OPERAND = "an operator's NotImplemented for an operand of another type"
_JSON = ("the JSON writer's general branches, held to json.dumps by its "
         "hypothesis test")
UNREACHED = {
    ("gentile._record.Record.__delattr__", "raise AttributeError("): _FROZEN,
    ("gentile._record.Record.__setattr__", "raise AttributeError("): _FROZEN,
    ("gentile._record.Record.__eq__",
     "if other.__class__ is self.__class__:"): _VALUE,
    ("gentile._record.Record.__eq__", "return NotImplemented"): _VALUE,
    ("gentile._record.Record.__eq__",
     "return self._values == other._values"): _VALUE,
    ("gentile._record.Record.__hash__", "return hash(self._values)"): _VALUE,
    ("gentile._record.Record.__init__", "raise TypeError("):
        "value protocol: a record is built from all of its fields",
    ("gentile._record.Record.__repr__",
     'return (type(self).__qualname__ + "("'): _VALUE,
    ("gentile.laurent.LaurentScalar.__hash__",
     "return hash(frozenset(self.terms.items()))"): _VALUE,
    ("gentile.laurent.LaurentScalar.__repr__", 'return "0"'):
        _VALUE + "; every printed coefficient is nonzero",
    ("gentile.laurent.Terms.__hash__",
     "return hash(frozenset(self._terms.items()))"): _VALUE,
    ("gentile.symbolic.freepoly.FreePoly.__repr__", 'return "0"'):
        _VALUE + "; the audit prints a zero residual as 0 itself",
    ("gentile.laurent.LaurentScalar.__add__", "return NotImplemented"):
        _OPERAND,
    ("gentile.laurent.LaurentScalar.__sub__", "return NotImplemented"):
        _OPERAND,
    ("gentile.laurent.LaurentScalar.__mul__", "return NotImplemented"):
        _OPERAND,
    ("gentile.laurent.Terms.__add__", "return NotImplemented"): _OPERAND,
    ("gentile.laurent.Terms.__sub__", "return NotImplemented"): _OPERAND,
    ("gentile.laurent.Terms.__mul__", "return NotImplemented"): _OPERAND,
    ("gentile.symbolic.quotient.QuotientPoly.__mul__",
     "return NotImplemented"): _OPERAND,
    ("gentile.laurent.Terms.terms", "return dict(self._terms)"):
        "BENCH_READS: the benchmark's tracer counts the terms of a result",
    ("gentile.audit.audit_crosscheck",
     'raise GateFailed("audit_crosscheck", ('): _GATE,
    ("gentile.cli.cmd_coherent",
     'failures.append({"n": n, "residual": residual})'): _GATE,
    ("gentile.cli.cmd_coherent",
     'raise GateFailed("eigenstate_residual", failures)'): _GATE,
    ("gentile.cli.cmd_spectrum",
     'failures.append({"n": n, "deviation": deviation})'): _GATE,
    ("gentile.cli.cmd_spectrum",
     'raise GateFailed("spectrum_crosscheck", failures)'): _GATE,
    ("gentile.cli.cmd_su2",
     'failures.append({"n": n, "residuals": residuals})'): _GATE,
    ("gentile.cli.cmd_su2",
     'raise GateFailed("verify_representation", failures)'): _GATE,
    ("gentile.oscillator.spectrum_crosscheck",
     "return False, math.inf, report"): _GATE,
    ("gentile.rep.number_from_arcsin",
     'raise GateFailed("DomainError", "eigenvalue outside domain "'): _GATE,
    ("gentile.rep.require_hermitian",
     'raise GateFailed("NotHermitian", f"max |m - m^H| = {dev:.3e} "'): _GATE,
    ("gentile.cli.main", "contract, detail = exc.args"): _EXIT_2,
    ("gentile.cli.main", "contract, detail = type(exc).__name__, str(exc)"):
        _EXIT_2 + ", or when a library error no handler names is raised",
    ("gentile.cli.main",
     'sys.stderr.write(_dump_json({"contract": contract, "detail": detail}))'):
        _EXIT_2,
    ("gentile.cli.main", "return 2"): _EXIT_2,
    ("gentile.symbolic.expr.fold",
     'raise TypeError(f"unknown node {type(e).__name__}")'):
        "fold's refusal of a node type it does not define",
    ("gentile.symbolic.freepoly.FreePoly.specialize_unit", "out[w] = val"):
        "every limit identity holds; the mutated-entry test reaches it",
    ("gentile.cli._json_text", "if isinstance(obj, complex):"): _JSON,
    ("gentile.cli._json_text", "if isinstance(obj, np.generic):"): _JSON,
    ("gentile.cli._json_text",
     'raise TypeError(f"{type(obj).__name__} is not JSON serializable")'):
        _JSON,
    ("gentile.cli._json_text", 'return "null"'): _JSON,
    ("gentile.cli._json_text", 'return "{}"'): _JSON,
    ("gentile.cli._json_text",
     "return ('\"NaN\"' if obj != obj else '\"Infinity\"' if obj > 0"):
        _JSON,
    ("gentile.cli._json_text", "return _json_text([obj.real, obj.imag], pad)"):
        _JSON,
    ("gentile.cli._json_text", "return _json_text(obj.item(), pad)"): _JSON,
}


# the replay, in a fresh interpreter so that what runs at import counts:
# argv[1] is the trace file; stdin holds the argvs
_REPLAY = """
import importlib.util, json, os, sys, warnings
runs, trace = json.load(sys.stdin), sys.argv[1]
root = os.path.dirname(importlib.util.find_spec("gentile").origin)
called, executed = set(), set()

def line(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(root):
        called.add((code.co_filename, code.co_firstlineno))
        return line

warnings.simplefilter("ignore")
sys.settrace(call)
from gentile.cli import main
codes = [main(argv) for argv in runs]
sys.argv = ["gentile", "spectrum", "--n", "1"]  # the console entry point
codes.append(main())
sys.settrace(None)
with open(trace, "w") as out:
    json.dump([codes, sorted(called), sorted(executed)], out)
"""


def _replay(tmp_path):
    """Exit codes, and the (file, first line) of each function called and
    the (file, line) of each line executed, over the reach and edge argvs;
    paths are real paths."""
    runs = [(argv, 0) for argv in _reach_argvs()] + _edge_argvs(tmp_path)
    src = Path(gentile.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    trace = tmp_path / "trace.json"
    subprocess.run([sys.executable, "-c", _REPLAY, str(trace)],
                   input=json.dumps([argv for argv, _ in runs]),
                   capture_output=True, text=True, env=env, check=True)
    codes, called, executed = json.loads(trace.read_text())
    assert codes == [code for _, code in runs] + [0]
    return ({(os.path.realpath(path), line) for path, line in called},
            {(os.path.realpath(path), line) for path, line in executed})


def _unexecuted(executed) -> set:
    return {key for (path, line), key in _statements().items()
            if (os.path.realpath(path), line) not in executed}


def test_every_public_function_is_reached(tmp_path):
    # a library function, method or property that only tests call belongs
    # in the tests, and so does a statement that no CLI input executes
    called, executed = _replay(tmp_path)
    unreached = {name for name, code in _public_functions().items()
                 if (os.path.realpath(code.co_filename),
                     code.co_firstlineno) not in called}
    assert unreached == BENCH_READS
    unexecuted = _unexecuted(executed)
    assert {"not allowed": sorted(unexecuted - UNREACHED.keys()),
            "now executed": sorted(UNREACHED.keys() - unexecuted)} \
        == {"not allowed": [], "now executed": []}


# -- JSON encoding, against the per-value walk it replaced --------------------


def _f17(x: float):
    """Round-trip a finite float through its 17-significant-digit decimal
    form; a non-finite one becomes the JSON string the writer prints."""
    if not math.isfinite(x):
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
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
        '[\n  1.5,\n  "NaN",\n  "Infinity",\n  "-Infinity"\n]\n')


def test_dump_json_mixed_float_and_numpy_float():
    payload = {"x": [0.1, np.float64(0.2), 1e-300, np.float64(-3.0)]}
    assert _dump_json(payload) == (
        '{\n  "x": [\n    0.1,\n    0.2,\n    1e-300,\n    -3.0\n  ]\n}\n')


def test_dump_json_complex_lists():
    assert _dump_json([1 + 2j, -0.5j]) == (
        "[\n  [\n    1.0,\n    2.0\n  ],\n  [\n    -0.0,\n    -0.5\n  ]\n]\n")
    assert _dump_json([1 + 2j, complex(math.inf, math.nan)]) == (
        '[\n  [\n    1.0,\n    2.0\n  ],\n  [\n    "Infinity",\n    "NaN"\n'
        '  ]\n]\n')


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
