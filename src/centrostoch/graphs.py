"""Bipartite zero-pattern graphs and the graph view of extremality.

The graph of an m x n matrix has row vertices r1..rm, column vertices
s1..sn, and an edge (i, j) per nonzero entry. Extremality of stochastic and
centrosymmetric stochastic matrices can be read off this graph alone; the
predicates here do exactly that and never consult the matrix-shape tests in
`extremes`, so the two routes stay independently checkable.

Internally the vertices are numbered 0..m+n-1: row i is i - 1 and column j
is m + j - 1. One sweep walks each component once. A graph is a forest iff
its edge count equals its vertex count less its component count.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable

from centrostoch.core import (
    Matrix,
    NotCentrosymmetricError,
    NotForestError,
    NotStochasticError,
    ShapeError,
    _as_int,
    is_centrosymmetric,
    is_stochastic,
)

__all__ = [
    "BipartiteGraph",
    "bipartite_of",
    "is_forest",
    "longest_path",
    "fill",
    "is_extreme_stochastic_via_graph",
    "is_extreme_centro_via_graph",
]


class BipartiteGraph:
    """Immutable bipartite graph on row vertices 1..m and column vertices 1..n.

    Edges are 1-based (row, column) pairs without multiplicity.
    """

    __slots__ = ("row_count", "col_count", "edges")

    def __init__(self, row_count: int, col_count: int, edges: Iterable[tuple[int, int]]) -> None:
        # like RectPermMatrix, float and bool counts and ends are refused
        row_count, col_count = _as_int(row_count), _as_int(col_count)
        if row_count < 1 or col_count < 1:
            raise ShapeError("a bipartite graph needs both vertex classes nonempty")
        edge_set = frozenset((_as_int(i), _as_int(j)) for i, j in edges)
        for i, j in edge_set:
            if not (1 <= i <= row_count and 1 <= j <= col_count):
                raise ShapeError(f"edge ({i}, {j}) outside {row_count} x {col_count}")
        object.__setattr__(self, "row_count", row_count)
        object.__setattr__(self, "col_count", col_count)
        object.__setattr__(self, "edges", edge_set)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("BipartiteGraph is immutable")

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def row_degree(self, i: int) -> int:
        i = _as_int(i)
        if not 1 <= i <= self.row_count:
            raise IndexError(f"row vertex {i} outside 1..{self.row_count}")
        return sum(1 for r, _ in self.edges if r == i)

    def col_degree(self, j: int) -> int:
        j = _as_int(j)
        if not 1 <= j <= self.col_count:
            raise IndexError(f"column vertex {j} outside 1..{self.col_count}")
        return sum(1 for _, c in self.edges if c == j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.row_count, self.col_count, self.edges) == (
            other.row_count, other.col_count, other.edges)

    def __hash__(self) -> int:
        return hash((self.row_count, self.col_count, self.edges))

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.row_count}, {self.col_count}, {list(self.sorted_edges())})"


def bipartite_of(a: Matrix) -> BipartiteGraph:
    """Zero-pattern graph of a matrix: one edge per nonzero entry."""
    return BipartiteGraph(a.nrows, a.ncols, a.support())


def _adjacency(g: BipartiteGraph) -> list[list[int]]:
    # neighbour lists in the integer numbering of the module docstring
    m = g.row_count
    adj: list[list[int]] = [[] for _ in range(m + g.col_count)]
    for i, j in g.edges:
        adj[i - 1].append(m + j - 1)
        adj[m + j - 1].append(i - 1)
    return adj


def _farthest(adj, start):
    # BFS from start: a farthest vertex of its component, that distance, and
    # every reached vertex's distance (BFS reaches them in distance order)
    seen = {start: 0}
    queue = [start]
    for v in queue:
        for w in adj[v]:
            if w not in seen:
                seen[w] = seen[v] + 1
                queue.append(w)
    return queue[-1], seen[queue[-1]], seen


def _sweep(g: BipartiteGraph) -> tuple[bool, int]:
    # (whether g is a forest, the largest second-sweep distance): each
    # component is swept from any vertex, then from the farthest vertex
    # found; on a tree the second distance is the diameter exactly
    adj = _adjacency(g)
    unseen = set(range(len(adj)))
    components = longest = 0
    while unseen:
        end, _, reached = _farthest(adj, unseen.pop())
        unseen -= reached.keys()
        components += 1
        longest = max(longest, _farthest(adj, end)[1])
    return len(g.edges) == len(adj) - components, longest


def is_forest(g: BipartiteGraph) -> bool:
    """True iff the graph has no cycle."""
    return _sweep(g)[0]


def longest_path(g: BipartiteGraph) -> int:
    """Edge count of a longest simple path; requires a forest.

    Within each tree component two sweeps find the diameter exactly. Raises
    NotForestError on cyclic input, where the sweep argument breaks down.
    """
    forest, longest = _sweep(g)
    if not forest:
        raise NotForestError("longest_path needs a forest")
    return longest


def fill(g: BipartiteGraph) -> Fraction:
    """Edge count over m * n, exactly."""
    return Fraction(len(g.edges), g.row_count * g.col_count)


def _extreme_via_graph(a: Matrix, center: int | None = None) -> bool:
    # every row vertex has degree 1, except that row `center` may have
    # degree 2; no forest sweep is needed (see the callers' docstrings)
    degrees = Counter(i for i, _ in bipartite_of(a).edges)
    return all(
        degrees[i] == 1 or (i == center and degrees[i] == 2)
        for i in range(1, a.nrows + 1)
    )


def is_extreme_stochastic_via_graph(a: Matrix) -> bool:
    """Graph reading of extremality in the stochastic polytope.

    A stochastic matrix is extreme iff its graph is a forest and every row
    vertex has degree 1; the degree rule alone decides, since a cycle passes
    two rows of degree >= 2. Raises NotStochasticError when `a` is not
    row-stochastic.
    """
    if not is_stochastic(a):
        raise NotStochasticError("graph test input must be row-stochastic")
    return _extreme_via_graph(a)


def is_extreme_centro_via_graph(a: Matrix) -> bool:
    """Graph reading of extremality in the centrosymmetric polytope.

    For an even row count the criterion matches the plain stochastic one;
    for an odd row count the center row vertex may have degree 1 or 2 while
    all other row vertices have degree 1, and the graph must be a forest,
    which the degree rule already ensures: a cycle passes two rows of
    degree >= 2. Raises NotStochasticError / NotCentrosymmetricError on
    inputs outside the polytope.
    """
    if not is_stochastic(a):
        raise NotStochasticError("graph test input must be row-stochastic")
    if not is_centrosymmetric(a):
        raise NotCentrosymmetricError("graph test input must be centrosymmetric")
    m = a.nrows
    return _extreme_via_graph(a, m // 2 + 1 if m % 2 else None)
