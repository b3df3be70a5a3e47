"""Time-to-verdict benchmark of the ``gentile`` CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {audit,models,eval-deep} --seed N \\
        --seconds S --trace {0,1}

Each CLI invocation runs in a fresh interpreter (``child.py``), one at a
time, with ``src`` first on ``PYTHONPATH``.  Only the in-process
``gentile.cli.main`` call is timed; the import of ``gentile.cli`` is
reported as set-up.  Passes over the workload repeat for about
``--seconds`` (at least three).  Every output is checked by the oracles in
``oracles.py``, and each invocation's stdout must be byte-identical in
every pass.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` traced passes alternate with plain
ones and the object holds the per-layer metrics.  The lines before it list
every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracles
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
INVOCATION_TIMEOUT_S = 120
WARMUP_ARGV = ("spectrum", "--n", "1")
# The matrices here are at most 129 x 129, too small for BLAS threads to
# shorten a call; an idle BLAS worker spins on a second core instead and
# makes timings depend on whatever else runs there.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}
# Set-up is timed with cached bytecode, as an installed package has it, so
# the warm-up invocation must be allowed to write it.
UNSET_ENV = ("PYTHONDONTWRITEBYTECODE",)

# name -> (unit, better); the order is the report order
END_TO_END = {
    "wall_s": ("s", "lower"),
    "checks_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_rate": ("ratio", "higher"),
    "margin_digits": ("digits", "higher"),
}
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "catalog.entries": ("count", "higher"),
    "catalog.self_s": ("s", "lower"),
    "audit.eval_calls": ("count", "lower"),
    "audit.eval_nodes": ("count", "lower"),
    "audit.eval_self_s": ("s", "lower"),
    "audit.suite_self_s": ("s", "lower"),
    "symbolic.parser.self_s": ("s", "lower"),
    "symbolic.freepoly.calls": ("count", "lower"),
    "symbolic.freepoly.nodes": ("count", "lower"),
    "symbolic.freepoly.terms_out": ("count", "lower"),
    "symbolic.freepoly.self_s": ("s", "lower"),
    "symbolic.quotient.calls": ("count", "lower"),
    "symbolic.quotient.nodes": ("count", "lower"),
    "symbolic.quotient.terms_out": ("count", "lower"),
    "symbolic.quotient.self_s": ("s", "lower"),
    "symbolic.quotient.eval_rep_s": ("s", "lower"),
    "laurent.mul_ops": ("count", "lower"),
    "laurent.add_ops": ("count", "lower"),
    "laurent.eval_ops": ("count", "lower"),
    "laurent.self_s": ("s", "lower"),
    "rep.build_calls": ("count", "lower"),
    "rep.bracket_calls": ("count", "lower"),
    "rep.self_s": ("s", "lower"),
    "linalg.eigen_calls": ("count", "lower"),
    "linalg.eigen_d2_sum": ("count", "lower"),
    "linalg.diff_calls": ("count", "lower"),
    "linalg.self_s": ("s", "lower"),
    "oscillator.self_s": ("s", "lower"),
    "coherent.self_s": ("s", "lower"),
    "su2.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


@dataclass
class Result:
    rc: int
    stdout: bytes
    stderr: str
    meta: dict


def invoke(argv, trace: bool, invocation_id: int, tmp: Path) -> Result:
    """Run one CLI invocation in a fresh interpreter."""
    meta_path = tmp / f"{invocation_id}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(meta_path),
           "1" if trace else "0", str(invocation_id), "--", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=INVOCATION_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not meta_path.is_file():
        raise BenchError(f"{' '.join(argv)!r} did not run: "
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta_path.unlink()
    if not Path(meta["module_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"gentile imported from {meta['module_file']}, "
                         f"not from {SRC}")
    return Result(meta["rc"], proc.stdout,
                  proc.stderr.decode("utf-8", errors="replace"), meta)


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD_BLAS)
    for name in UNSET_ENV:
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_pass(invocations, trace: bool, tmp: Path, ids) -> list:
    return [invoke(inv.argv, trace, next(ids), tmp) for inv in invocations]


def verify(invocations, passes) -> oracles.Outcome:
    """Oracle checks on the first pass plus the stdout determinism check."""
    total = oracles.Outcome(0)
    for i, inv in enumerate(invocations):
        first = passes[0][i]
        try:
            outcome = inv.check(first.stdout.decode("utf-8", errors="replace"),
                                first.stderr, first.rc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            outcome = oracles.Outcome(inv.checks).fail_all(
                f"{inv.argv[0]}: malformed output ({exc!r})")
        digests = {hashlib.sha256(p[i].stdout).hexdigest() for p in passes}
        if len(digests) > 1:
            outcome.fail_all(f"{inv.argv[0]}: stdout differs between passes")
        total.checks += outcome.checks
        total.failed += outcome.failed
        total.known += outcome.known
        total.margins += outcome.margins
        total.notes += outcome.notes
    return total


def wall(one_pass) -> float:
    return sum(r.meta["main_s"] for r in one_pass)


def end_to_end(plain, outcome: oracles.Outcome) -> dict:
    wall_s = statistics.median(wall(p) for p in plain)
    return {
        "wall_s": wall_s,
        "checks_per_s": outcome.checks / wall_s,
        "setup_s": statistics.median(r.meta["setup_s"]
                                     for p in plain for r in p),
        "peak_rss_mb": statistics.median(
            max(r.meta["peak_rss_kb"] for r in p) / 1024.0 for p in plain),
        "pass_rate": 1.0 - (outcome.failed + outcome.known) / outcome.checks,
        "margin_digits": (statistics.median(outcome.margins)
                          if outcome.margins else 0.0),
    }


def layer_sums(one_pass) -> dict:
    """Per-layer counts and self times of one traced pass."""
    sums = defaultdict(float)
    for result in one_pass:
        spans = result.meta["spans"]
        for record, self_s in zip(spans, tracer.self_times(spans)):
            layer, func = record[tracer.LAYER], record[tracer.FUNC]
            if layer == "audit":
                key = ("audit.eval_self_s" if func == "eval_expr"
                       else "audit.suite_self_s")
            else:
                key = f"{layer}.self_s"
            sums[key] += self_s
            if func == "eval_rep":
                sums["symbolic.quotient.eval_rep_s"] += \
                    record[tracer.END] - record[tracer.START]
        sums["laurent.self_s"] += result.meta["laurent_s"]
        for name, count in result.meta["counts"].items():
            sums[name] += count
        sums["cli.out_bytes"] += len(result.stdout)
    sums["trace.wall_s"] = wall(one_pass)
    return sums


def per_layer(plain, traced) -> dict:
    per_pass = [layer_sums(p) for p in traced]
    metrics = {name: statistics.median(s.get(name, 0.0) for s in per_pass)
               for name in PER_LAYER}
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(wall(p) for p in plain))
    return metrics


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def report(args, invocations, plain, traced, outcome, e2e, layers):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"invocations/pass {len(invocations)}  plain passes {len(plain)}"
          f"  traced passes {len(traced)}  checks/pass {outcome.checks}")
    walls = [wall(p) for p in plain]
    setups = [r.meta["setup_s"] for p in plain for r in p]
    spread = {"wall_s": quartiles(walls), "setup_s": quartiles(setups)}
    for name, (unit, _) in END_TO_END.items():
        print(f"  {name:32} {e2e[name]:<14.6g} {unit:7} "
              f"{spread.get(name, '')}")
    errors = outcome.failed + outcome.known
    print(f"  {'error_rate':32} {errors / outcome.checks:<14.6g} {'ratio':7} "
          f"{outcome.failed} failed + {outcome.known} baseline of "
          f"{outcome.checks}")
    for name, value in (layers or {}).items():
        print(f"  {name:32} {value:<14.6g} {PER_LAYER[name][0]}")
    for note in outcome.notes[:20]:
        print(f"  check: {note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gentile" / "cli.py").is_file():
        print(f"error: no gentile sources under {SRC}", file=sys.stderr)
        return 2
    invocations = workloads.WORKLOADS[args.workload](args.seed)
    try:
        with tempfile.TemporaryDirectory(prefix=".bench_tmp_",
                                         dir=ROOT) as tmp:
            tmp, ids = Path(tmp), itertools.count(1)
            invoke(WARMUP_ARGV, False, 0, tmp)  # bytecode, file cache
            plain, traced = [], []
            start = time.monotonic()
            while True:
                plain.append(run_pass(invocations, False, tmp, ids))
                if args.trace:
                    traced.append(run_pass(invocations, True, tmp, ids))
                elapsed = time.monotonic() - start
                # stop where the run ends nearest to --seconds
                if len(plain) >= MIN_PASSES and \
                        elapsed * (1 + 0.5 / len(plain)) >= args.seconds:
                    break
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcome = verify(invocations, plain + traced)
    e2e = end_to_end(plain, outcome)
    layers = per_layer(plain, traced) if args.trace else None
    report(args, invocations, plain, traced, outcome, e2e, layers)
    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.checks,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
