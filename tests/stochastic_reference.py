"""Reference route for `is_stochastic`, kept as a differential oracle.

This is the direct statement on Fractions: every entry compares with 0 and
every row is summed with `sum`. The library checks each row on ints over
the lcm of its own denominators; tests require the two to agree.
"""

from __future__ import annotations

from centrostoch import Matrix


def reference_is_stochastic(a: Matrix) -> bool:
    for row in a.entries:
        if any(x < 0 for x in row):
            return False
        if sum(row) != 1:
            return False
    return True
