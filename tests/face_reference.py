"""Reference routes for the face functions, kept as differential oracles.

The face-vertex enumerator's reference is the original dense filter:
materialise every global extreme point of the pattern's shape as a Matrix
and keep it when the pattern has a 1 at every position of its support. The
library instead walks the product of each row's allowed columns and never
builds a vertex outside the face; tests require the two to agree matrix for
matrix, in order.

The centrosymmetric row-support test's reference builds B meet B-rotated as
a pattern and looks for a 1 in each of its rows; the library reads those
rows off B's own entries.
"""

from __future__ import annotations

from centrostoch import (
    FacePattern,
    Matrix,
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
)


def reference_face_vertices(pattern, centro: bool = False) -> list[Matrix]:
    b = pattern if isinstance(pattern, FacePattern) else FacePattern(pattern)
    m, n = b.shape
    if centro:
        candidates = enumerate_extreme_centro(m, n)
    else:
        candidates = (r.to_matrix() for r in enumerate_extreme_stochastic(m, n))
    return [mat for mat in candidates if all(b.at(i, j) == 1 for i, j in mat.support())]


def reference_row_support_centro(pattern) -> bool:
    b = pattern if isinstance(pattern, FacePattern) else FacePattern(pattern)
    return all(1 in row for row in b.meet(b.rotate_pi()).entries)
