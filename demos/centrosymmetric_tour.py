"""Centrosymmetric stochastic matrices: extremes, splitting, decomposition."""

import random
from fractions import Fraction

from centrostoch import (
    Matrix,
    RectPermMatrix,
    decompose_centrosymmetric,
    enumerate_extreme_centro,
    is_extreme_centro,
    is_extreme_centro_via_graph,
    split_noncentrosymmetric,
)


def show(mat, indent="  "):
    for row in mat.entries:
        print(indent + " ".join(str(x) for x in row))


def main():
    s = Matrix([[1, 0, 0, 0], [0, "1/2", "1/2", 0], [0, 0, 0, 1]])
    print("A centrosymmetric stochastic matrix (equal to its half turn):")
    show(s)
    print("Structurally extreme:", is_extreme_centro(s))
    print("Extreme by its bipartite graph:", is_extreme_centro_via_graph(s))

    print("\nAll extreme points of the 3 x 3 centrosymmetric polytope:")
    for k, mat in enumerate(enumerate_extreme_centro(3, 3), 1):
        print(f"\n#{k}")
        show(mat)

    # a rectangular permutation matrix that is not centrosymmetric
    r = RectPermMatrix([1, 1, 2, 4], 4)
    print("\nSplitting R + R^pi for R with rows e1, e1, e2, e4:")
    q1, q2 = split_noncentrosymmetric(r)
    print("first half:")
    show(q1.to_matrix())
    print("second half:")
    show(q2.to_matrix())
    same = q1.to_matrix() + q2.to_matrix() == r.to_matrix() + r.rotate_pi().to_matrix()
    print("Q1 + Q2 equals R + R^pi:", same)

    rng = random.Random(7)
    rows = []
    for _ in range(2):
        weights = [rng.randint(0, 5) for _ in range(5)]
        while sum(weights) == 0:
            weights = [rng.randint(0, 5) for _ in range(5)]
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    center_raw = [rng.randint(1, 5) for _ in range(5)]
    center_total = sum(center_raw)
    center = [
        Fraction(center_raw[j] + center_raw[4 - j], 2 * center_total) for j in range(5)
    ]
    a = Matrix(rows + [center] + [row[::-1] for row in reversed(rows)])
    print("\nA random 5 x 5 centrosymmetric stochastic matrix:")
    show(a)
    comb = decompose_centrosymmetric(a)
    print(f"\nIts decomposition has {len(comb)} extreme terms; weights:")
    print(" ", ", ".join(str(c) for c, _ in comb))
    print("All terms extreme:", all(is_extreme_centro(t) for _, t in comb))
    print("Recombines exactly:", comb.combine() == a)


if __name__ == "__main__":
    main()
