"""Dense complex linear algebra helpers.

Matrices are plain ``numpy.ndarray`` of ``complex128``.  Every operator
whose spectrum the toolkit reads is diagonal in the Fock basis, so no
eigensolver is needed here.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise maximum modulus of a - b.  Exactly 0 for identical input."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0
