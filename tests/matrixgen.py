"""Seeded random generators of exact matrices, shared by the test modules."""

from fractions import Fraction

from centrostoch import Matrix

HALF = Fraction(1, 2)


def random_stochastic_row(rng, n, max_weight=9):
    count = rng.randint(1, n)
    cols = rng.sample(range(n), count)
    weights = [rng.randint(1, max_weight) for _ in range(count)]
    total = sum(weights)
    row = [Fraction(0)] * n
    for col, weight in zip(cols, weights):
        row[col] = Fraction(weight, total)
    return row


def random_stochastic(rng, m, n, max_weight=9):
    return Matrix([random_stochastic_row(rng, n, max_weight) for _ in range(m)])


def random_centro_stochastic(rng, m, n, max_weight=9):
    top = [random_stochastic_row(rng, n, max_weight) for _ in range(m // 2)]
    rows = list(top)
    if m % 2:
        raw = random_stochastic_row(rng, n, max_weight)
        rows.append([(raw[j] + raw[n - 1 - j]) * HALF for j in range(n)])
    rows.extend(row[::-1] for row in reversed(top))
    return Matrix(rows)


def random_pattern(rng, m, n, ones_probability=Fraction(1, 2)):
    return Matrix(
        [
            [1 if rng.random() < ones_probability else 0 for _ in range(n)]
            for _ in range(m)
        ]
    )


def random_supported_pattern(rng, m, n, ones_probability=Fraction(1, 2)):
    # random (0,1) pattern with at least one 1 in every row
    rows = []
    for _ in range(m):
        row = [1 if rng.random() < ones_probability else 0 for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = 1
        rows.append(row)
    return Matrix(rows)


def pattern_or_rotation(pattern):
    # entrywise maximum with the half-turn rotation: a centrosymmetric cover
    rotated = pattern.rotate_pi()
    return Matrix(
        [
            [max(a, b) for a, b in zip(row, rot_row)]
            for row, rot_row in zip(pattern.entries, rotated.entries)
        ]
    )


def uniform_on_pattern(rows):
    # each row spread evenly over its nonzero positions
    out = []
    for row in rows:
        count = sum(row)
        out.append([Fraction(1, count) if x else Fraction(0) for x in row])
    return Matrix(out)
