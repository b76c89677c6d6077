"""Reference routes for the graph utilities, kept as differential oracles.

`reference_is_forest` is the original union-find over string-tagged
vertices ("r", i) and ("s", j); the library instead counts components and
compares the edge count with vertices less components. `reference_longest_path`
tries every simple path by depth-first search, so it needs no forest and no
sweep argument; it is exponential and meant for tiny graphs only.
"""

from __future__ import annotations

from centrostoch import BipartiteGraph


def reference_is_forest(g: BipartiteGraph) -> bool:
    """True iff the graph has no cycle."""
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(v):
        root = v
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(v, v) != v:
            parent[v], v = root, parent[v]
        return root

    for i, j in g.edges:
        a, b = find(("r", i)), find(("s", j))
        if a == b:
            return False
        parent[a] = b
    return True


def reference_longest_path(g: BipartiteGraph) -> int:
    """Edge count of a longest simple path, by trying every one."""
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for i in range(1, g.row_count + 1):
        adj[("r", i)] = []
    for j in range(1, g.col_count + 1):
        adj[("s", j)] = []
    for i, j in g.edges:
        adj[("r", i)].append(("s", j))
        adj[("s", j)].append(("r", i))

    def extend(v, visited) -> int:
        # longest simple path starting at v that avoids `visited`
        return max((1 + extend(w, visited | {w}) for w in adj[v] if w not in visited), default=0)

    return max(extend(v, {v}) for v in adj)
