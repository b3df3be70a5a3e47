"""Benchmark workloads: the CLI argument vectors each one runs.

Every workload is a list of invocations; each is one fresh-interpreter run
of ``gentile`` with a generated argv plus the oracle that checks its output
(see ``oracles.py``).  The seed is an argument of the benchmark; the
program sees only the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracles

AUDIT_N = "1..24"
EVAL_N = "1..32"


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    check: Callable  # (stdout: str, stderr: str, rc: int) -> oracles.Outcome
    checks: int      # checks decided; all fail if the output is malformed


def audit(seed: int) -> list:
    """The default identity-audit sweep, with the benchmark seed."""
    argv = ("audit", "--n", AUDIT_N, "--seed", str(seed))
    return [Invocation(argv, partial(oracles.check_audit,
                                     n_values=oracles.n_range(AUDIT_N)),
                       oracles.BASELINE["checks"]["audit"])]


def _sweep(argv, check, **kwargs) -> Invocation:
    """An invocation with one check per n of its --n range."""
    n_values = oracles.n_range(argv[argv.index("--n") + 1])
    return Invocation(argv, partial(check, n_values=n_values, **kwargs),
                      len(n_values))


def models(seed: int) -> list:
    """Spectrum, arcsin, coherent and su(2) sweeps; inputs fixed.

    These subcommands take no random input, so the seed is unused: the
    workload is the same fixed set of sweeps at every seed.
    """
    del seed
    return [
        _sweep(("spectrum", "--n", "1..128"), oracles.check_spectrum),
        _sweep(("arcsin-audit", "--n", "1..64"), oracles.check_arcsin),
        _sweep(("coherent", "--n", "1..128"), oracles.check_coherent),
        _sweep(("su2", "--n", "1..64", "--A", "num"), oracles.check_su2,
               choice="num"),
        _sweep(("su2", "--n", "1..64", "--A", "adagb"), oracles.check_su2,
               choice="adagb"),
    ]


# ---- eval-deep: seeded expressions over fixed operator skeletons ----------
#
# Expression trees are tuples.  Leaves are generator names or
# ("pow", name, k).  Inner nodes:
#   ("br", x, y)    seeded bracket: [x,y]_n or {x,y}
#   ("comm", x, y)  commutator [x,y]
#   ("prod", x, y)  product (x) (y)
#   ("cyc", a, b, c) sumcyc(a,b,c)
#   ("scal", x)     seeded scalar r q^k times x
# The skeletons fix the tree shape and the generators, which set the size
# of the normal form and so the amount of work; the seed draws the bracket
# kinds and the scalars.  Free random shapes make the work of a pass vary
# by a factor of five between seeds, which would swamp any change to the
# code being measured.

SKELETONS = (
    ("br", ("br", ("br", ("pow", "b", 3), "N"), ("br", ("pow", "N", 2),
     ("br", "b", ("pow", "N", 2)))), ("comm", ("br", ("pow", "N", 2),
     ("pow", "adag", 3)), ("cyc", "b", "adag", "b"))),
    ("comm", ("br", ("br", ("scal", "adag"), ("prod", ("pow", "N", 3),
     "b")), ("br", "adag", ("pow", "b", 3))), ("cyc", ("pow", "b", 2), "b",
     ("pow", "adag", 3))),
    ("br", ("prod", ("pow", "b", 2), ("cyc", "adag", ("pow", "adag", 3),
     ("pow", "N", 3))), ("prod", ("br", "N", ("pow", "adag", 2)), ("scal",
     ("pow", "b", 3)))),
    ("br", ("br", "N", ("prod", ("br", "b", ("pow", "N", 2)), ("prod", "b",
     ("pow", "N", 2)))), ("br", ("pow", "b", 2), ("br", ("br", "adag",
     "adag"), ("prod", ("pow", "b", 3), "N")))),
    ("comm", ("br", ("br", ("cyc", "N", "b", ("pow", "b", 2)), ("br",
     ("pow", "N", 3), ("pow", "adag", 2))), "adag"), ("br", ("pow", "adag",
     2), ("br", ("br", "adag", "adag"), "adag"))),
    ("comm", ("comm", ("pow", "adag", 3), ("pow", "N", 3)), ("comm", ("cyc",
     "adag", "adag", ("pow", "b", 2)), ("br", ("pow", "b", 2), ("pow", "b",
     3)))),
    ("comm", ("br", ("br", ("scal", ("pow", "N", 2)), ("comm", ("pow", "b",
     2), "N")), ("br", "N", ("scal", ("pow", "N", 3)))), ("prod", ("pow",
     "b", 3), ("pow", "adag", 3))),
    ("br", ("br", ("br", ("br", "N", "adag"), ("pow", "adag", 2)), ("br",
     "b", ("pow", "N", 3))), ("prod", ("pow", "b", 2), ("prod", ("pow",
     "adag", 2), "N"))),
    ("br", ("scal", ("br", ("br", "b", "b"), ("br", "N", "b"))), ("prod",
     ("br", "adag", ("br", ("pow", "adag", 2), "adag")), ("prod", ("br",
     ("pow", "N", 3), "b"), ("pow", "N", 3)))),
    ("prod", ("br", ("br", "N", ("prod", "adag", "N")), ("cyc", ("pow", "N",
     2), "adag", ("pow", "N", 2))), ("br", ("scal", ("cyc", ("pow", "b", 2),
     "N", "N")), ("br", ("br", "b", "N"), ("br", "adag", "N")))),
    ("br", ("br", ("cyc", "adag", "b", ("pow", "adag", 3)), ("prod", ("pow",
     "b", 3), "adag")), ("scal", ("br", ("pow", "b", 2), ("pow", "adag",
     3)))),
    ("br", ("br", ("prod", ("scal", "N"), ("comm", ("pow", "adag", 2),
     "b")), "b"), ("comm", ("br", ("comm", "N", "b"), ("scal", ("pow",
     "adag", 3))), ("br", ("prod", "b", "adag"), ("comm", "b", "adag")))),
    ("br", ("scal", ("cyc", ("pow", "adag", 3), "b", "N")), ("br", ("comm",
     "N", ("pow", "b", 3)), ("prod", ("scal", "N"), ("br", ("pow", "b", 3),
     "N")))),
    ("br", ("prod", ("cyc", ("pow", "N", 2), "b", "b"), ("prod", ("prod",
     "N", ("pow", "adag", 3)), "adag")), ("scal", ("br", ("prod", "b", "b"),
     "b"))),
    ("br", ("comm", ("br", ("comm", "b", ("pow", "N", 2)), ("br", "b",
     "adag")), "adag"), ("br", ("pow", "b", 3), ("br", ("pow", "N", 3),
     ("prod", "adag", ("pow", "N", 2))))),
    ("comm", ("br", ("pow", "N", 3), "b"), ("cyc", ("pow", "b", 2), ("pow",
     "adag", 3), "adag")),
)

SCALAR_POWERS = (-2, -1, 1, 2, 3)


def _fill(tree, rng):
    """Draw the seeded parts of a skeleton: bracket kinds and scalars."""
    if isinstance(tree, str) or tree[0] == "pow":
        return tree
    kind = tree[0]
    if kind == "br":
        kind = rng.choice(("nb", "anti"))
    if kind == "scal":
        scalar = (rng.randint(1, 9), rng.randint(2, 9),
                  rng.choice(SCALAR_POWERS))
        return ("scal", scalar, _fill(tree[1], rng))
    return (kind,) + tuple(_fill(child, rng) for child in tree[1:])


def expression_text(tree) -> str:
    """The CLI spelling of a filled expression tree."""
    if isinstance(tree, str):
        return tree
    kind = tree[0]
    if kind == "pow":
        return f"{tree[1]}^{tree[2]}"
    if kind == "scal":
        num, den, k = tree[1]
        return f"{num}/{den} q^{k} ({expression_text(tree[2])})"
    parts = [expression_text(child) for child in tree[1:]]
    if kind == "cyc":
        return "sumcyc(" + ",".join(parts) + ")"
    x, y = parts
    return {"nb": f"[{x},{y}]_n", "anti": f"{{{x},{y}}}",
            "comm": f"[{x},{y}]", "prod": f"({x}) ({y})"}[kind]


def eval_deep(seed: int) -> list:
    """One ``eval EXPR --n 1..32`` per skeleton, with seeded fillings."""
    rng = random.Random(seed)
    invocations = []
    for skeleton in SKELETONS:
        tree = _fill(skeleton, rng)
        text = expression_text(tree)
        invocations.append(_sweep(("eval", text, "--n", EVAL_N),
                                  oracles.check_eval, expression=text,
                                  tree=tree))
    return invocations


WORKLOADS = {"audit": audit, "models": models, "eval-deep": eval_deep}
