"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the code paths they check: the block
linear solve assembles and solves the resolvent system densely instead of
sweeping, the preconditioner M is applied with the dense Laplacian, the
least-squares projection goes through numpy's lstsq, power iteration
applies an explicitly assembled matrix, and trace CSVs are read back with
the csv module.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest

from graphsplit import analysis, engine, operators, presets
from graphsplit.graphs import laplacian, p_matrix

#: (name, n) combinations exercised across the suite; n <= 5 keeps every
#: closed form in reach of the brute-force oracles
PRESET_CASES = [
    ("douglas_rachford", 2),
    ("generalized_ryu", 3),
    ("generalized_ryu", 5),
    ("malitsky_tam", 3),
    ("malitsky_tam", 5),
    ("parallel_up", 4),
    ("parallel_down", 4),
    ("sequential", 4),
    ("complete", 3),
    ("complete", 5),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def scipy_linalg():
    """scipy.linalg, an oracle that shares no code with the package; the
    test asking for it skips where scipy is not installed."""
    return pytest.importorskip("scipy.linalg")


@pytest.fixture
def networkx():
    """networkx, an oracle for connectivity, degree balance and the
    Laplacian that shares no code with the package; its matrix functions
    need scipy, so the test skips without either."""
    pytest.importorskip("scipy.sparse")
    return pytest.importorskip("networkx")


def random_subspace(rng, d, r, contains=None):
    """Random r-dimensional subspace, optionally containing a given vector."""
    spans = []
    if contains is not None:
        spans.append(np.asarray(contains, dtype=np.float64))
    while len(spans) < r:
        spans.append(rng.standard_normal(d))
    return operators.subspace_from_spanners(d, spans)


def random_problem(name, n, rng, d=4, planted=False):
    """Random subspace problem on a preset's graph pair."""
    ps = presets.preset(name, n)
    common = rng.standard_normal(d) if planted else None
    dims = rng.integers(1, d, size=n)
    subs = [random_subspace(rng, d, int(dims[i]), contains=common)
            for i in range(n)]
    return analysis.subspace_problem(ps.pair, ps.dec, subs)


def callback_twin(prob, subspaces):
    """``prob`` with each node a callback projecting onto its subspace:
    the same iteration, stepped on the node sweep, never a sweep map."""
    return engine.SplittingProblem(
        prob.pair, prob.dec,
        [operators.CallbackOp(lambda x, g, u=u: operators.project(u, x))
         for u in subspaces], prob.d)


def random_graph_pair(rng, n, kind):
    """(G, G') with G' a random spanning tree ("tree"), the tree plus
    chords ("chords"), the ring or the complete graph, and G equal to G'
    plus random chords."""
    nodes = range(1, n + 1)
    if kind == "complete":
        sub = {(i, j) for i in nodes for j in nodes if i < j}
    elif kind == "ring":
        sub = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    else:
        order = rng.permutation(n) + 1
        sub = {tuple(sorted((int(order[k]), int(order[rng.integers(k)]))))
               for k in range(1, n)}
    chords = {(i, j) for i in nodes for j in nodes
              if i < j and rng.random() < 0.3}
    if kind == "chords":
        sub |= chords
    g = sub | chords | {(i, j) for i in nodes for j in nodes
                        if i < j and rng.random() < 0.2}
    return sorted(g), sorted(sub)


def dense_m_plus_a_solve(prob, w, v):
    """Independent oracle for (M + A)^{-1} on subspace problems.

    Writes x_i = B_i c_i over bases B_i of the U_i and solves the stacked
    stationarity system B_i^T (w_i - (P(G) x)_i) = 0 with one dense solve;
    no forward sweep involved.
    """
    n, d = prob.n, prob.d
    pg = p_matrix(prob.pair.g).astype(np.float64)
    bases = [op.subspace.basis for op in prob.ops]
    sizes = [b.shape[1] for b in bases]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    total = offs[-1]
    x = np.zeros((n, d))
    if total:
        k_mat = np.zeros((total, total))
        rhs = np.zeros(total)
        for i in range(n):
            if not sizes[i]:
                continue
            rhs[offs[i]:offs[i + 1]] = bases[i].T @ w[i]
            for j in range(n):
                if pg[i, j] != 0.0 and sizes[j]:
                    k_mat[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = (
                        pg[i, j] * (bases[i].T @ bases[j]))
        coef = np.linalg.solve(k_mat, rhs)
        for i in range(n):
            if sizes[i]:
                x[i] = bases[i] @ coef[offs[i]:offs[i + 1]]
    y = v - 2.0 * (prob.zt @ x)
    return x, y


def apply_M(prob, w, v):
    """The preconditioner M = [[Lap(G'), Z], [Z^T, I]] as a block map:
    (Lap(G') w + Z v, Z^T w + v)."""
    z = prob.dec.z
    return laplacian(prob.pair.sub) @ w + z @ v, z.T @ w + v


def apply_C_star(prob, w, v):
    """The reduction map C^*: (w, v) -> Z^T w + v."""
    return prob.dec.z.T @ w + v


def trace_records_from_csv(path, n, d):
    """Parse a trace CSV back into records (w blocks are not stored)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == engine.trace_header(n, d)
        for row in reader:
            vals = np.array([float(s) for s in row[2:]])
            records.append(engine.TraceRecord(
                int(row[0]), vals[: n * d].reshape(n, d),
                vals[n * d:].reshape(n - 1, d), float(row[1])))
    return records


def assemble_T_matrix(prob):
    """Dense matrix of the expanded operator on flattened (w, v), built by
    pushing unit vectors through the preconditioner and the dense solve."""
    n, d = prob.n, prob.d
    size = (2 * n - 1) * d
    mat = np.zeros((size, size))
    for col in range(size):
        unit = np.zeros(size)
        unit[col] = 1.0
        w = unit[: n * d].reshape(n, d)
        v = unit[n * d:].reshape(n - 1, d)
        mw, mv = apply_M(prob, w, v)
        x, y = dense_m_plus_a_solve(prob, mw, mv)
        mat[:, col] = np.concatenate([x.reshape(-1), y.reshape(-1)])
    return mat


def lstsq_project(basis_cols, vec):
    """Least-squares projection of ``vec`` onto the column span."""
    if basis_cols.shape[1] == 0:
        return np.zeros_like(vec)
    coef, *_ = np.linalg.lstsq(basis_cols, vec, rcond=None)
    return basis_cols @ coef


def span_residual(b1, b2):
    """Largest mutual projection residual between two orthonormal spans."""
    worst = 0.0
    for a, b in ((b1, b2), (b2, b1)):
        for j in range(a.shape[1]):
            col = a[:, j]
            worst = max(worst, np.abs(col - lstsq_project(b, col)).max())
    return worst
