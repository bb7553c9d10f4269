"""Algorithmic graphs and their combinatorial matrices.

An algorithmic graph has nodes {1, ..., n} and every edge (i, j) oriented
from the lower to the higher index (i < j), with the underlying undirected
graph connected.  A graph pair couples such a graph G with a connected
spanning subgraph G'.  All combinatorial quantities (degrees, degree
balance, incidence, Laplacian) are computed in exact integer arithmetic.

Nodes are 1-based in the public edge lists and in JSON; array indices are
0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NAMED_KINDS = ("complete", "sequential", "ring", "parallel_up", "parallel_down")


class GraphError(ValueError):
    """Violation of an algorithmic-graph validity condition."""


@dataclass(frozen=True)
class AlgorithmicGraph:
    """Connected graph on {1..n} with edges oriented low-to-high.

    ``edges`` is stored deduplicated and lexicographically sorted, 1-based.
    Instances are immutable; build them through :func:`new_graph` or
    :func:`named_graph` so the invariants are checked.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        """JSON-ready representation ``{"n": n, "edges": [[i, j], ...]}``."""
        return {"n": self.n, "edges": [[i, j] for i, j in self.edges]}

    @staticmethod
    def from_dict(data: dict) -> "AlgorithmicGraph":
        """Build and validate a graph from its JSON representation."""
        if not isinstance(data, dict) or "n" not in data or "edges" not in data:
            raise GraphError("graph JSON must have fields 'n' and 'edges'")
        for key in data:
            if key not in ("n", "edges"):
                raise GraphError(f"graph JSON does not take the field {key!r}")
        edges = data["edges"]
        if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
            raise GraphError("graph 'edges' must be a list of [i, j] pairs")
        return new_graph(data["n"], [tuple(e) for e in edges])


@dataclass(frozen=True)
class GraphPair:
    """A graph G together with a connected spanning subgraph G'."""

    g: AlgorithmicGraph
    sub: AlgorithmicGraph


@dataclass(frozen=True)
class DegreeBalance:
    """Out-degree minus in-degree per node; always sums to zero."""

    delta: np.ndarray  # integer vector of length n


def _check_connected(n: int, edges) -> bool:
    # union-find over the undirected skeleton
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i - 1), find(j - 1)
        if ri != rj:
            parent[ri] = rj
    return len({find(v) for v in range(n)}) == 1


def _is_label(x) -> bool:
    """An int, or an integer-valued float (JSON from a float array)."""
    return not isinstance(x, (bool, np.bool_)) and (isinstance(x, (int, np.integer))
        or isinstance(x, (float, np.floating)) and float(x).is_integer())


def new_graph(n: int, edges) -> AlgorithmicGraph:
    """Validate and build an algorithmic graph.

    Parameters
    ----------
    n : int
        Node count, at least 2.
    edges : iterable of (int, int)
        1-based pairs (i, j) with i < j.  Duplicates are removed and the
        result is sorted lexicographically.

    Raises
    ------
    GraphError
        If ``n < 2``, an edge is not a pair of integer labels (``bool`` and
        fractional values are rejected, ``2.0`` is accepted), an edge leaves
        [1, n], an edge has i >= j, or the graph is disconnected.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise GraphError(f"node count must be an integer, got {type(n).__name__}")
    n = int(n)
    if n < 2:
        raise GraphError(f"node count must be at least 2, got {n}")
    cleaned = set()
    for e in edges:
        if len(e) != 2 or not all(_is_label(x) for x in e):
            raise GraphError(f"edge {tuple(e)!r} is not a pair of integer node labels")
        i, j = int(e[0]), int(e[1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"edge ({i},{j}) outside node range [1,{n}]")
        if i >= j:
            raise GraphError(f"edge ({i},{j}) violates the orientation condition i < j")
        cleaned.add((i, j))
    ordered = tuple(sorted(cleaned))
    if not _check_connected(n, ordered):
        raise GraphError("graph is disconnected")
    return AlgorithmicGraph(n, ordered)


def named_graph(kind: str, n: int) -> AlgorithmicGraph:
    """Build one of the standard graph families.

    ``kind`` is one of ``complete``, ``sequential``, ``ring``,
    ``parallel_up`` (star centered at node 1) or ``parallel_down`` (star
    centered at node n).  ``ring`` requires ``n >= 3``.
    """
    if kind not in NAMED_KINDS:
        raise GraphError(f"unknown graph kind {kind!r}; choose from {NAMED_KINDS}")
    if kind == "ring" and n < 3:
        raise GraphError(f"ring graph requires n >= 3, got {n}")
    if kind == "complete":
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    elif kind == "sequential":
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "ring":
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    elif kind == "parallel_up":
        edges = [(1, j) for j in range(2, n + 1)]
    else:  # parallel_down
        edges = [(i, n) for i in range(1, n)]
    return new_graph(n, edges)


def degrees(g: AlgorithmicGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node in-degree, out-degree and total degree, as int arrays."""
    d_in = np.zeros(g.n, dtype=np.int64)
    d_out = np.zeros(g.n, dtype=np.int64)
    for i, j in g.edges:
        d_out[i - 1] += 1
        d_in[j - 1] += 1
    return d_in, d_out, d_in + d_out


def degree_balance(g: AlgorithmicGraph) -> DegreeBalance:
    """Degree balance: out-degree minus in-degree per node."""
    d_in, d_out, _ = degrees(g)
    return DegreeBalance(d_out - d_in)


def incidence(g: AlgorithmicGraph) -> np.ndarray:
    """Node-edge incidence matrix, one column per stored edge.

    The column for edge (i, j) carries +1 at row i (the edge leaves i) and
    -1 at row j.  Columns follow the lexicographic edge order.
    """
    mat = np.zeros((g.n, len(g.edges)), dtype=np.int64)
    for e, (i, j) in enumerate(g.edges):
        mat[i - 1, e] = 1
        mat[j - 1, e] = -1
    return mat


def laplacian(g: AlgorithmicGraph) -> np.ndarray:
    """Graph Laplacian: degrees on the diagonal, -1 for adjacent pairs."""
    inc = incidence(g)
    return inc @ inc.T


def p_matrix(g: AlgorithmicGraph) -> np.ndarray:
    """Lower-triangular sweep matrix: diagonal d_i, entry (i, j) = -2 if
    (j, i) is an edge, 0 otherwise.

    Because edges are oriented low-to-high, the off-diagonal part is
    strictly lower triangular, which is what makes the per-node forward
    substitution in the iteration engines well defined.
    """
    _, _, d = degrees(g)
    mat = np.diag(d)
    for i, j in g.edges:
        mat[j - 1, i - 1] = -2
    return mat


def validate_pair(g: AlgorithmicGraph, sub: AlgorithmicGraph) -> GraphPair:
    """Check that ``sub`` is a connected spanning subgraph of ``g``."""
    if g.n != sub.n:
        raise GraphError(f"node counts differ: {g.n} vs {sub.n}")
    extra = set(sub.edges) - set(g.edges)
    if extra:
        raise GraphError(f"not a subgraph: edges {sorted(extra)} missing from G")
    # connectivity of sub already holds by construction, but re-check since
    # GraphPair is the object downstream modules trust
    if not _check_connected(sub.n, sub.edges):
        raise GraphError("subgraph is disconnected")
    return GraphPair(g, sub)


def is_tree(g: AlgorithmicGraph) -> bool:
    """A connected graph is a tree iff it has n - 1 edges."""
    return len(g.edges) == g.n - 1


def is_complete(g: AlgorithmicGraph) -> bool:
    return len(g.edges) == g.n * (g.n - 1) // 2


def is_circulant(g: AlgorithmicGraph) -> bool:
    """Structural test: every row of the Laplacian is a cyclic shift of the
    first one."""
    lap = laplacian(g)
    first = lap[0]
    return all(np.array_equal(np.roll(first, i), lap[i]) for i in range(g.n))
