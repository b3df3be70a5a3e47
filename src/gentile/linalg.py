"""Dense complex linear algebra helpers.

Matrices are plain ``numpy.ndarray`` of ``complex128``.  Every operator
whose spectrum the toolkit reads is diagonal in the Fock basis, so no
eigensolver is needed here.
"""

from __future__ import annotations

import numpy as np


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise maximum modulus of a - b.  Exactly 0 for identical input."""
    diff = np.abs(np.subtract(a, b))
    return float(np.max(diff)) if diff.size else 0.0
