"""Tests of the benchmark's tracer and oracles.

Run from the repository root:  python3 -m pytest -q bench
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gentile.cli  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ARGVS = [
    ["audit", "--n", "1..2", "--seed", "3"],
    ["spectrum", "--n", "1..6"],
    ["arcsin-audit", "--n", "1..4"],
    ["coherent", "--n", "1..4"],
    ["su2", "--n", "1..5", "--A", "adagb"],
    ["eval", "[{b^2,N},1/3 q^2 (sumcyc(adag,b,N))]_n", "--n", "1..4"],
]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gentile.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _traced(argv):
    trace = tracer.Tracer().install()
    try:
        return _cli(argv), trace
    finally:
        trace.uninstall()


@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: a[0])
def test_tracer_leaves_stdout_identical(argv):
    plain = _cli(argv)
    traced, trace = _traced(argv)
    assert traced == plain
    assert trace.spans, "no span recorded"
    assert _cli(argv) == plain, "uninstall left a wrapper behind"


@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: a[0])
def test_self_times_within_invocation_span(argv):
    _, trace = _traced(argv)
    spans = trace.spans
    roots = [s for s in spans if s[tracer.PARENT] < 0]
    assert [(s[tracer.LAYER], s[tracer.FUNC]) for s in roots] == \
        [("cli", "main")]
    root = roots[0][tracer.END] - roots[0][tracer.START]
    selfs = tracer.self_times(spans)
    assert min(selfs) >= -1e-9
    assert sum(selfs) + trace.laurent_s <= root + 1e-9


def test_child_traced_and_plain_stdout_match():
    argv = ("eval", "[b,adag]_n", "--n", "1..3")
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        plain = run.invoke(argv, False, 1, Path(tmp))
        traced = run.invoke(argv, True, 2, Path(tmp))
    assert plain.rc == traced.rc == 0
    assert plain.stdout == traced.stdout
    assert traced.meta["counts"]["symbolic.quotient.calls"] == 1
    assert traced.meta["counts"]["rep.build_calls"] == 3


def test_documented_failures_are_in_readme():
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    section = readme.split("## Documented failing relations", 1)[1]
    for ident, wording in oracles.DOCUMENTED_FAILURES.items():
        assert " ".join(wording.split()) in section, ident


def test_normal_form_bound_reads_printed_terms():
    a = oracles.generator_norm("adag", 3)
    text = "(1 + -2*q^2)*adag*b + (3/2)*1 + (q)*N"
    assert oracles.normal_form_bound(text, 3) == pytest.approx(
        3 * a * a + 1.5 + 3)


def test_su2_failures_split_into_known_and_new():
    known = oracles.BASELINE["su2_baseline_failures"]["num"]
    new = min(known) - 1
    detail = [{"n": n, "residuals": {"comm87": 1e-6}} for n in (new, known[0])]
    stderr = json.dumps({"contract": "verify_representation",
                         "detail": detail})
    outcome = oracles.check_su2("", stderr, 2, n_values=range(1, 65),
                                choice="num")
    assert (outcome.checks, outcome.failed, outcome.known) == (64, 1, 1)


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads
                                                          .WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} \
            == table
