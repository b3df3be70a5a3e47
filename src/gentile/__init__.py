"""Verification toolkit for intermediate (Gentile) statistics.

Exact Laurent arithmetic in a formal deformation parameter q, dense
matrix representations of the deformed ladder algebra
[b, a†]_n = b a† − e^{i2π/(n+1)} a† b = 1, a symbolic engine (parser,
free expansion, quotient-algebra normal ordering), an identity-audit
catalog with symbolic and numeric cross-checks, generalized-Grassmann
coherent states, the intermediate-statistics oscillator spectrum, and
su(2) representations built from a single set of ladder operators.
"""

from .errors import (
    GentileError, DimensionMismatch, NotHermitian, DomainError, OutOfRange,
    PreconditionViolation, ParseError, DegenerateNodes, WrongChoice,
    InconsistentVerdict,
)
from .laurent import LaurentScalar, ZERO, ONE, Q, QINV, q_integer
from .linalg import max_abs_diff
from .rep import GentileRep, build_rep, ArcsinAudit, number_from_arcsin
from .symbolic import (
    Expr, Gen, Scal, Add, Sub, Mul, Pow, NBracket, Commutator,
    AntiCommutator, SumPerm, SumCyc, product, substitute, perm_sum,
    cyc_sum, generators_of, parse, FreePoly, expand_free, QuotientPoly,
    normal_order,
)
from .catalog import IdentityEntry, build_catalog
from .audit import (
    IdentityResult, AuditReport, audit_crosscheck, run_full_audit, eval_expr,
)
from .coherent import (
    LambdaChoice, lambda_value, CoherentState, build_coherent,
    eigenstate_residual, closed_form_deltas, compare_closed_form,
    normalization_poly,
)
from .oscillator import (
    build_hamiltonian, per_state_energy, case_class,
    SpectrumReport, closed_form_spectrum, spectrum_crosscheck,
    bose_limit_check,
)
from .su2 import (
    DiagonalChoice, ladder_targets, diagonal_operator, newton_coefficients,
    divided_differences, newton_eval, Su2Rep, solve_representation,
    verify_representation, e010_residual,
)

__version__ = "0.1.0"
