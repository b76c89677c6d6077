"""Build the four basis families and verify their ranks exactly."""

from centrostoch import (
    basis_centro_even,
    basis_centro_odd,
    basis_rect,
    basis_square,
    rank_of_family,
)


def report(name, family, expected_dim):
    # a basis has dimension + 1 members, all linearly independent
    rank = rank_of_family(family)
    ok = len(family) == expected_dim + 1 and rank == len(family)
    print(
        f"{name}: {len(family)} matrices, rank {rank}, "
        f"dimension {expected_dim} verified: {ok}"
    )


def show(mat):
    for row in mat.entries:
        print("   ", " ".join(str(x).rjust(3) for x in row))


def main():
    print("Affine dimension of each polytope = basis size - 1.\n")

    report("square 4x4", basis_square(4), 4 * 4 - 4)
    report("rect 5x3", basis_rect(5, 3), 5 * (3 - 1))
    report("centro even 4x4", basis_centro_even(4, 4), 2 * 3)
    report("centro odd 5x4", basis_centro_odd(5, 4), 2 * 3 + 2 - 1)

    print("\nThe 5 x 3 family: ten pivot matrices and one column matrix.")
    for k, mat in enumerate(basis_rect(5, 3), 1):
        print(f"\n#{k}")
        show(mat)

    print("\nThe centrosymmetric 5 x 4 family ends with a column pair")
    print("glued by a half-half center row:")
    show(basis_centro_odd(5, 4)[-1])


if __name__ == "__main__":
    main()
