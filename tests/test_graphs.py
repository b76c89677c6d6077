"""Zero-pattern graphs: forests, diameters, fill, graph-side extremality."""

import itertools
import random
from fractions import Fraction

import pytest

from centrostoch import (
    BipartiteGraph,
    Matrix,
    NotCentrosymmetricError,
    NotForestError,
    NotStochasticError,
    ShapeError,
    basis_centro_odd,
    bipartite_of,
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
    fill,
    is_extreme_centro,
    is_extreme_centro_via_graph,
    is_extreme_stochastic,
    is_extreme_stochastic_via_graph,
    is_forest,
    longest_path,
)
from graph_reference import reference_is_forest, reference_longest_path
from matrixgen import random_centro_stochastic, random_stochastic, uniform_on_pattern

HALF = Fraction(1, 2)


class TestBipartiteGraph:
    def test_edges_validated(self):
        with pytest.raises(ShapeError):
            BipartiteGraph(2, 2, [(3, 1)])
        with pytest.raises(ShapeError):
            BipartiteGraph(0, 2, [])

    def test_degrees(self):
        g = BipartiteGraph(2, 3, [(1, 1), (1, 2), (2, 2)])
        assert g.row_degree(1) == 2
        assert g.col_degree(2) == 2
        assert g.col_degree(3) == 0
        with pytest.raises(IndexError):
            g.row_degree(3)
        with pytest.raises(IndexError):
            g.col_degree(0)

    def test_value_semantics(self):
        g1 = BipartiteGraph(2, 2, [(1, 1), (2, 2)])
        g2 = BipartiteGraph(2, 2, [(2, 2), (1, 1), (1, 1)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        with pytest.raises(AttributeError):
            g1.edges = frozenset()
        assert g1.__eq__(g1.edges) is NotImplemented and g1 != g1.edges
        assert repr(g2) == "BipartiteGraph(2, 2, [(1, 1), (2, 2)])"

    def test_of_matrix(self):
        s = Matrix([[1, 0, 0, 0], [0, "1/2", "1/2", 0], [0, 0, 0, 1]])
        g = bipartite_of(s)
        assert g.sorted_edges() == ((1, 1), (2, 2), (2, 3), (3, 4))

    @pytest.mark.parametrize(
        "counts, edges",
        [((2, 2), [(1.9, 1)]), ((2, 2), [(1, 2.0)]), ((2, 2), [(True, 1)]),
         ((2.5, 2), [(1, 1)]), ((2, 2.0), []), ((True, 2), [(1, 1)])],
        ids=repr,
    )
    def test_float_and_bool_refused(self, counts, edges):
        # refused, not rounded: (1.9, 1) used to become the edge (1, 1)
        with pytest.raises(TypeError):
            BipartiteGraph(*counts, edges)

    @pytest.mark.parametrize(
        "degree, vertex",
        [("row_degree", 1.5), ("row_degree", True), ("row_degree", 1.0),
         ("col_degree", 1.0), ("col_degree", False), ("col_degree", 2.5)],
        ids=repr,
    )
    def test_degree_refuses_float_and_bool(self, degree, vertex):
        # refused, not looked up: row_degree(True) used to count row 1's edges
        g = BipartiteGraph(2, 2, [(1, 1), (1, 2)])
        with pytest.raises(TypeError):
            getattr(g, degree)(vertex)

    def test_worked_column_pair_matrix(self):
        mat = basis_centro_odd(5, 4)[-1]
        g = bipartite_of(mat)
        assert g.sorted_edges() == ((1, 4), (2, 4), (3, 1), (3, 4), (4, 1), (5, 1))


class TestForest:
    def test_edgeless(self):
        assert is_forest(BipartiteGraph(3, 3, []))

    def test_star_is_forest(self):
        assert is_forest(BipartiteGraph(3, 1, [(1, 1), (2, 1), (3, 1)]))

    def test_four_cycle_is_not(self):
        g = BipartiteGraph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        assert not is_forest(g)

    def test_worked_graph_is_forest(self):
        assert is_forest(bipartite_of(basis_centro_odd(5, 4)[-1]))


class TestLongestPath:
    def test_edgeless(self):
        assert longest_path(BipartiteGraph(2, 2, [])) == 0

    def test_single_edge(self):
        assert longest_path(BipartiteGraph(1, 1, [(1, 1)])) == 1

    def test_star(self):
        assert longest_path(BipartiteGraph(3, 1, [(1, 1), (2, 1), (3, 1)])) == 2

    def test_worked_graph(self):
        assert longest_path(bipartite_of(basis_centro_odd(5, 4)[-1])) == 4

    def test_two_components(self):
        g = BipartiteGraph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 3)])
        assert longest_path(g) == 3

    def test_rejects_cycles(self):
        g = BipartiteGraph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        with pytest.raises(NotForestError):
            longest_path(g)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "m, n", list(itertools.product(range(1, 4), repeat=2)), ids=str
    )
    def test_every_edge_set(self, m, n):
        # every graph of the shape: the component count against the
        # union-find, and the two sweeps against every simple path
        cells = list(itertools.product(range(1, m + 1), range(1, n + 1)))
        for mask in range(1 << len(cells)):
            g = BipartiteGraph(m, n, [c for k, c in enumerate(cells) if mask >> k & 1])
            forest = reference_is_forest(g)
            assert is_forest(g) == forest, g
            if forest:
                assert longest_path(g) == reference_longest_path(g), g
            else:
                with pytest.raises(NotForestError):
                    longest_path(g)


class TestFill:
    def test_exact_ratio(self):
        g = BipartiteGraph(3, 4, [(1, 1), (2, 2)])
        assert fill(g) == Fraction(1, 6)

    def test_empty(self):
        assert fill(BipartiteGraph(2, 2, [])) == 0

    def test_worked_matrix(self):
        assert fill(bipartite_of(basis_centro_odd(5, 4)[-1])) == Fraction(3, 10)


class TestGraphPredicates:
    def test_stochastic_examples(self):
        assert is_extreme_stochastic_via_graph(Matrix([[0, 1], [0, 1], [1, 0]]))
        assert not is_extreme_stochastic_via_graph(Matrix([["1/2", "1/2"], [1, 0]]))

    def test_stochastic_precondition(self):
        with pytest.raises(NotStochasticError):
            is_extreme_stochastic_via_graph(Matrix([[1, 1]]))

    def test_centro_examples(self):
        s = Matrix([[1, 0, 0, 0], [0, "1/2", "1/2", 0], [0, 0, 0, 1]])
        assert is_extreme_centro_via_graph(s)
        for mat in basis_centro_odd(5, 4):
            assert is_extreme_centro_via_graph(mat)
        assert not is_extreme_centro_via_graph(
            Matrix([["1/2", "1/2"], ["1/2", "1/2"]])
        )

    def test_centro_preconditions(self):
        with pytest.raises(NotStochasticError):
            is_extreme_centro_via_graph(Matrix([[1, 1]]))
        with pytest.raises(NotCentrosymmetricError):
            is_extreme_centro_via_graph(Matrix([[1, 0], [1, 0]]))

    def test_agreement_exhaustive_two_by_three(self):
        # every support pattern, filled uniformly
        for pattern in itertools.product(
            [p for p in itertools.product((0, 1), repeat=3) if any(p)], repeat=2
        ):
            a = uniform_on_pattern(pattern)
            assert is_extreme_stochastic_via_graph(a) == is_extreme_stochastic(a)

    def test_agreement_random_stochastic(self):
        rng = random.Random(407)
        for _ in range(60):
            a = random_stochastic(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert is_extreme_stochastic_via_graph(a) == is_extreme_stochastic(a)

    def test_agreement_random_centro(self):
        rng = random.Random(408)
        for _ in range(60):
            a = random_centro_stochastic(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert is_extreme_centro_via_graph(a) == is_extreme_centro(a)

    def test_extremes_have_short_paths(self):
        for r in enumerate_extreme_stochastic(3, 3):
            g = bipartite_of(r.to_matrix())
            assert longest_path(g) <= 2
        for mat in enumerate_extreme_centro(5, 4):
            g = bipartite_of(mat)
            assert longest_path(g) <= 4
