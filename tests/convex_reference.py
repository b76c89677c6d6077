"""Reference route for the coefficient checks of `ConvexCombination`, kept
as a differential oracle.

This is the direct statement on Fractions: repeated terms merge by adding
their coefficients, every merged coefficient is compared with 0 and 1, and
the total is accumulated with Fraction addition. The library checks each
merged coefficient on its numerator and denominator and keeps the total as
a reduced pair of ints; tests require the same acceptance and the same
ValueError text.
"""

from __future__ import annotations

from fractions import Fraction

from centrostoch.core import _vertex_of, _Vertex


def reference_merge(terms) -> dict:
    """Key (vertex, or the Matrix of a non-extreme term) -> merged
    coefficient, in first-occurrence order."""
    merged = {}
    for coeff, term in terms:
        key = term if type(term) is _Vertex else _vertex_of(term) or term
        coeff = Fraction(coeff)
        merged[key] = merged[key] + coeff if key in merged else coeff
    return merged


def reference_check(coefficients) -> None:
    """Raise ValueError unless every coefficient lies in (0, 1] and they sum
    to exactly 1."""
    total = Fraction(0)
    for coeff in coefficients:
        if not 0 < coeff <= 1:
            raise ValueError(f"coefficient {coeff} outside (0, 1]")
        total += coeff
    if total != 1:
        raise ValueError(f"coefficients sum to {total}, not 1")
