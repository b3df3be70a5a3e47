from .expr import (Add, Algebra, AntiCommutator, Commutator, Expr, Gen, Mul,
                   NBracket, Pow, ProductSum, RenameSum, Scal, Sub, cyc_sum,
                   fold, generators_of, perm_sum, product)
from .freepoly import FreePoly, expand_free
from .parser import parse
from .quotient import QuotientPoly, normal_order

__all__ = [
    "Add", "Algebra", "AntiCommutator", "Commutator", "Expr", "Gen", "Mul",
    "NBracket", "Pow", "ProductSum", "RenameSum", "Scal", "Sub", "cyc_sum",
    "fold", "generators_of", "perm_sum", "product", "FreePoly",
    "expand_free", "parse", "QuotientPoly", "normal_order",
]
