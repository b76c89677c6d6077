"""Spans and counters around calls into centrostoch, for the traced run.

`install` replaces each traced function by a wrapper at every name it is
called through: `cli` and `decompose` bind their imports at import time, so
patching only the defining module would miss those calls. Two methods are
patched on their class instead, which every caller shares. Functions that
return lazy iterators get a wrapper that also times every `next()` on the
returned iterator, so the work of consuming them lands in their own span.

A span's self time is its duration minus the time of the spans it encloses.
Nothing under `src/` is changed on disk; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import centrostoch.bases as bases
import centrostoch.cli as cli
import centrostoch.core as core
import centrostoch.decompose as decompose
import centrostoch.extremes as extremes
import centrostoch.faces as faces
import centrostoch.graphs as graphs

# span name -> the (module, attribute) pairs it is called through
CALLS = {
    "cli.run_command": [(cli, "run_command")],
    "smx.parse_matrix": [(cli, "parse_matrix")],
    "core.is_stochastic": [(cli, "is_stochastic"), (decompose, "is_stochastic"),
                           (extremes, "is_stochastic")],
    "core.is_centrosymmetric": [(cli, "is_centrosymmetric"), (decompose, "is_centrosymmetric"),
                                (extremes, "is_centrosymmetric"), (faces, "is_centrosymmetric")],
    "core.ConvexCombination": [(core.ConvexCombination, "__init__")],
    "core.RectPermMatrix.to_matrix": [(core.RectPermMatrix, "to_matrix")],
    "core.rank_of_family": [(cli, "rank_of_family"), (bases, "rank_of_family")],
    "decompose.decompose_stochastic": [(cli, "decompose_stochastic")],
    "decompose.decompose_centrosymmetric": [(cli, "decompose_centrosymmetric")],
    "decompose.split_noncentrosymmetric": [(decompose, "split_noncentrosymmetric")],
    "extremes.is_extreme_centro": [(cli, "is_extreme_centro"), (decompose, "is_extreme_centro")],
    "faces.count_face_vertices": [(cli, "count_face_vertices_stochastic"),
                                  (cli, "count_face_vertices_centro")],
    "bases.basis": [(cli, "basis_square"), (cli, "basis_rect"), (cli, "basis_centro_even"),
                    (cli, "basis_centro_odd")],
    "graphs.bipartite_of": [(cli, "bipartite_of")],
    "graphs.fill": [(cli, "fill")],
}
# lazy enumerators: span name -> [(module, attribute, counters bumped per item)]
LAZY = {
    "extremes.enumerate_extreme_stochastic": [
        (cli, "enumerate_extreme_stochastic", ("extremes.enumerated",)),
        (faces, "enumerate_extreme_stochastic", ("extremes.enumerated", "faces.candidates")),
    ],
    "extremes.enumerate_extreme_centro": [
        (cli, "enumerate_extreme_centro", ("extremes.enumerated",)),
        (faces, "enumerate_extreme_centro", ("extremes.enumerated", "faces.candidates")),
    ],
    "faces.enumerate_face_vertices": [(cli, "enumerate_face_vertices", ("faces.kept",))],
}
SPANS = [*CALLS, *LAZY]
COUNTERS = ["smx.bytes_in", "core.rank.cells", "decompose.terms",
            "decompose.coeff_den_bits_max", "extremes.enumerated", "faces.candidates",
            "faces.kept", "bases.family_size", "cli.stdout_bytes"]


def _decomposed(rec: "Recorder", args, result) -> None:
    rec.counts["decompose.terms"] += len(result)
    bits = max(c.denominator.bit_length() for c, _ in result)
    rec.counts["decompose.coeff_den_bits_max"] = max(rec.counts["decompose.coeff_den_bits_max"], bits)


def _ranked(rec: "Recorder", args, result) -> None:
    family = args[0]
    if isinstance(family, (list, tuple)) and family:
        rec.counts["core.rank.cells"] += len(family) * family[0].nrows * family[0].ncols


# counters read off a call's arguments and result, outside its span
AFTER = {
    "smx.parse_matrix": lambda rec, args, result: rec.counts.update({"smx.bytes_in": len(args[0])}),
    "core.rank_of_family": _ranked,
    "decompose.decompose_stochastic": _decomposed,
    "decompose.decompose_centrosymmetric": _decomposed,
    "bases.basis": lambda rec, args, result: rec.counts.update({"bases.family_size": len(result)}),
}


class Recorder:
    """In-memory span self times, call counts and counters.

    Times of the op in progress are held apart until `commit` scales them
    by that op's speed factor and adds them to the totals."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.covered_s = 0.0  # total duration of the outermost spans
        self._op_self_s: dict[str, float] = defaultdict(float)
        self._op_covered_s = 0.0
        self._children: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        self._children.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._op_self_s[name] += duration - self._children.pop()
            if self._children:
                self._children[-1] += duration
            else:
                self._op_covered_s += duration

    def commit(self, scale: float) -> None:
        for name, seconds in self._op_self_s.items():
            self.self_s[name] += seconds * scale
        self.covered_s += self._op_covered_s * scale
        self._op_self_s.clear()
        self._op_covered_s = 0.0

    def _iterate(self, name: str, iterator, counters):
        while True:
            try:
                item = self.span(name, next, iterator)
            except StopIteration:
                return
            for counter in counters:
                self.counts[counter] += 1
            yield item

    def _call_wrapper(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _lazy_wrapper(self, name: str, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self._iterate(name, self.span(name, fn, *args, **kwargs), counters)

        return wrapper

    def install(self) -> None:
        for name, sites in CALLS.items():
            for owner, attr in sites:
                self._patch(owner, attr, self._call_wrapper(name, getattr(owner, attr)))
        for name, sites in LAZY.items():
            for owner, attr, counters in sites:
                self._patch(owner, attr, self._lazy_wrapper(name, getattr(owner, attr), counters))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
