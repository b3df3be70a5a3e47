"""Dense complex linear algebra helpers.

Matrices are plain ``numpy.ndarray`` of ``complex128``.  Every operator
whose spectrum the toolkit reads is diagonal in the Fock basis, so no
eigensolver is needed here.
"""

from __future__ import annotations

import numpy as np


def max_abs_diff(a: np.ndarray, b: np.ndarray, inside) -> list:
    """Entrywise maximum modulus of a - b over the slots ``inside`` of each
    row, as Python floats: exactly 0 for identical input, NaN where a slot
    inside is NaN."""
    return np.max(np.where(inside, np.abs(np.subtract(a, b)), 0.0),
                  axis=1).tolist()
