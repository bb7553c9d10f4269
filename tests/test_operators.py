import math
import warnings

import numpy as np
import pytest

from graphsplit import cli, operators
from graphsplit.operators import (
    CallbackOp,
    LinearSubspace,
    NormalConeOp,
    complement,
    full_space,
    orthonormalize,
    project,
    real_array,
    resolvent,
    subspace_from_spanners,
    zero_space,
)

from conftest import lstsq_project, random_subspace

def oracle_projector(scipy_linalg, rows: np.ndarray) -> np.ndarray:
    """Projector onto the span of the rows, as the complement of their
    null space, both from scipy."""
    d = rows.shape[1]
    ker = scipy_linalg.null_space(rows) if rows.shape[0] else np.eye(d)
    return np.eye(d) - ker @ ker.T


class TestSubspaceFromSpanners:
    def test_single_axis(self):
        u = subspace_from_spanners(2, [[1.0, 0.0]])
        assert u.dim == 1
        assert np.abs(np.abs(u.basis[:, 0]) - [1, 0]).max() < 1e-15

    def test_dependent_spanners_collapse(self):
        u = subspace_from_spanners(2, [[1.0, 1.0], [2.0, 2.0]])
        assert u.dim == 1
        assert np.abs(np.abs(u.basis[:, 0]) - 1 / np.sqrt(2)).max() < 1e-12

    def test_empty_gives_zero_subspace(self):
        u = subspace_from_spanners(3, [])
        assert u.dim == 0
        assert np.abs(u.projector()).max() == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length 3"):
            subspace_from_spanners(3, [[1.0, 0.0]])

    def test_float64_array_passes_the_check_without_a_copy(self):
        a = np.arange(6.0).reshape(2, 3)
        assert real_array(a, "a", (2, 3)) is a
        ints = np.arange(6).reshape(2, 3)
        assert real_array(ints, "a", (2, 3)).dtype == np.float64

    def test_plain_scalars_take_the_direct_path(self):
        # a Python float or int: the value and type of the general path,
        # and the same errors
        for value in (1.5, -0.0, 7, 2 ** 60 + 1, 1e308):
            got = real_array(value, "t", ())
            want = np.array(value, dtype=object).astype(np.float64)[()]
            assert type(got) is np.float64
            assert np.array_equal(np.array([got]).view(np.int64),
                                  np.array([want]).view(np.int64))
        for bad, match in ((True, "real numbers"), (math.inf, "not finite"),
                           (math.nan, "not finite"),
                           (10 ** 400, "not finite")):
            with pytest.raises(ValueError, match=f"t (must be|is) {match}"):
                real_array(bad, "t", ())
        with pytest.raises(ValueError, match="shape"):
            real_array(1.0, "t", (1,))

    @pytest.mark.parametrize("value, shape, want", [
        ([[1, 2], [3]], (2, 2), "shape \\(2, 2\\)"),
        ([1, [2]], (2,), "length 2"),
        ([np.zeros(2), np.zeros(3)], (2, 2), "shape \\(2, 2\\)"),
        ([1.0, (2.0,)], (2,), "length 2"),
    ])
    def test_ragged_nesting_names_the_shape(self, value, shape, want):
        # every entry is a real number: the fault is the nesting
        want = f"^v0 must have {want}, got a ragged nesting"
        with pytest.raises(ValueError, match=want):
            real_array(value, "v0", shape)

    def test_zero_vectors_dropped(self):
        u = subspace_from_spanners(2, [[0.0, 0.0], [0.0, 3.0]])
        assert u.dim == 1

    def test_basis_orthonormal(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            u = random_subspace(rng, d, int(rng.integers(1, d + 1)))
            gram = u.basis.T @ u.basis
            assert np.abs(gram - np.eye(u.dim)).max() < 1e-12


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spanner_rejected(self, bad):
        with pytest.raises(ValueError, match="spanner 1 is not finite"):
            subspace_from_spanners(2, [[0.0, 1.0], [bad, 1.0]])

    @pytest.mark.parametrize("scale", [1e200, 1.7e308, 1e-170, 1e-320])
    def test_spanners_whose_square_leaves_the_float_range_count(self, scale):
        # the squares overflow to inf or underflow to 0; the scaled rows
        # do neither, and no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = subspace_from_spanners(2, [[scale, 0.0]])
            plane = subspace_from_spanners(2, [[scale, scale], [1.0, 0.0]])
            cols = orthonormalize([[0.0, -scale]], 2)
        assert line.dim == 1
        assert np.abs(np.abs(line.basis[:, 0]) - [1, 0]).max() < 1e-15
        assert plane.dim == 2
        assert cols.shape == (2, 1)
        assert np.abs(np.abs(cols[:, 0]) - [0, 1]).max() < 1e-15


class TestRankRevealingPrimitive:
    """Bases from the SVD primitive against scipy's null space, which
    shares no code with it, and against projector identities."""

    def check_span(self, scipy_linalg, rows, expected_dim):
        rows = np.asarray(rows, dtype=np.float64)
        u = subspace_from_spanners(rows.shape[1], rows)
        assert u.dim == expected_dim
        assert np.abs(u.basis.T @ u.basis - np.eye(u.dim)).max(initial=0.0) < 1e-12
        p = u.projector()
        assert np.abs(p - oracle_projector(scipy_linalg, rows)).max() < 1e-10
        # every spanner lies in the span
        assert np.abs(p @ rows.T - rows.T).max() < 1e-10 * max(
            1.0, np.abs(rows).max())

    def test_rank_deficient_spanners(self, rng, scipy_linalg):
        for _ in range(20):
            d = int(rng.integers(2, 12))
            r = int(rng.integers(1, d))
            k = r + int(rng.integers(1, 4))
            rows = rng.standard_normal((k, r)) @ rng.standard_normal((r, d))
            self.check_span(scipy_linalg, rows, r)

    def test_zero_vectors_among_spanners(self, rng, scipy_linalg):
        rows = rng.standard_normal((5, 6))
        rows[[0, 3]] = 0.0
        self.check_span(scipy_linalg, rows, 3)
        self.check_span(scipy_linalg, np.zeros((2, 4)), 0)

    def test_mixed_scale_spanners_keep_both(self, rng, scipy_linalg):
        for scale in (1e-12, 1e12):
            v, w = rng.standard_normal(5), rng.standard_normal(5)
            self.check_span(scipy_linalg, np.array([v, scale * w]), 2)

    def test_complement_matches_scipy_null_space(self, rng, scipy_linalg):
        for _ in range(20):
            d = int(rng.integers(1, 12))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            c = complement(u)
            ker = scipy_linalg.null_space(u.basis.T) if u.dim else np.eye(d)
            assert c.dim == ker.shape[1] == d - u.dim
            assert np.abs(c.basis.T @ c.basis - np.eye(c.dim)).max(initial=0.0) < 1e-12
            assert np.abs(c.projector() - ker @ ker.T).max() < 1e-10


class TestComplement:
    def test_axis(self):
        c = complement(subspace_from_spanners(2, [[1.0, 0.0]]))
        assert c.dim == 1
        assert abs(abs(c.basis[1, 0]) - 1) < 1e-12

    def test_zero_subspace(self):
        c = complement(zero_space(3))
        assert c.dim == 3

    def test_involution(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            cc = complement(complement(u))
            assert np.abs(cc.projector() - u.projector()).max() < 1e-10

    def test_projectors_sum_to_identity(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            c = complement(u)
            assert u.dim + c.dim == d
            assert np.abs(u.projector() + c.projector() - np.eye(d)).max() < 1e-10


class TestSingleFactorisation:
    """The complement is kept from the SVD that gives the basis."""

    @staticmethod
    def cases(rng):
        d = 6
        r = rng.standard_normal((2, 3)) @ rng.standard_normal((3, d))
        spanners = {
            "zero": [],
            "zero vectors": np.zeros((2, d)),
            "full": rng.standard_normal((d, d)),
            "more than d": rng.standard_normal((d + 3, d)),
            "partial": rng.standard_normal((2, d)),
            "rank-deficient": np.vstack([r, r[0] - 2 * r[1]]),
        }
        subs = {name: subspace_from_spanners(d, rows)
                for name, rows in spanners.items()}
        subs["full_space"], subs["zero_space"] = full_space(d), zero_space(d)
        return subs

    def test_double_complement_is_the_same_subspace(self, rng):
        for u in self.cases(rng).values():
            cc = complement(complement(u))
            assert cc.basis is u.basis and cc.perp is u.perp

    def test_stored_complement_is_the_null_space(self, rng):
        dims = {"zero": 0, "zero vectors": 0, "full": 6, "more than d": 6,
                "partial": 2, "rank-deficient": 2, "full_space": 6,
                "zero_space": 0}
        for name, u in self.cases(rng).items():
            # ker B^T from numpy's full SVD; B is orthonormal, so its
            # singular values are 1 and the rank is their count
            _, s, vt = np.linalg.svd(u.basis.T)
            ker = vt[np.count_nonzero(s > 0.5):].T
            assert u.dim == dims[name], name
            assert u.perp.shape == ker.shape == (6, 6 - u.dim), name
            assert np.abs(u.perp @ u.perp.T - ker @ ker.T).max() < 1e-12, name
            q = np.hstack([u.basis, u.perp])
            assert np.abs(q.T @ q - np.eye(6)).max() < 1e-12, name


def unit_columns_one_by_one(d, vectors) -> np.ndarray:
    """The reference: each spanner passes real_array on its own, named by
    its index, then is scaled by its peak and its norm."""
    rows = [real_array(v, f"spanner {j}", (d,)) for j, v in enumerate(vectors)]
    mat = np.array(rows) if rows else np.zeros((0, d))
    peak = np.abs(mat).max(axis=1, initial=0.0)
    keep = peak > 0
    mat = mat[keep] / peak[keep, None]
    mat /= np.sqrt(np.einsum("ij,ij->i", mat, mat))[:, None]
    return mat.T


def checked_one_by_one(d, vectors) -> LinearSubspace:
    """The reference: one node's own SVD of its unit spanners, all d left
    singular vectors split at the rank."""
    cols = unit_columns_one_by_one(d, vectors)
    k = cols.shape[1]
    if k == 0:
        return LinearSubspace(d, np.zeros((d, 0)), np.eye(d))
    u, s, _ = np.linalg.svd(cols, full_matrices=k < d)
    r = operators._rank(s)
    return LinearSubspace(d, u[:, :r], u[:, r:])


def outcome(build):
    """What a construction gives: its bytes, or its error and message."""
    try:
        u = build()
    except Exception as exc:  # the type and message are compared
        return "rejected", type(exc), str(exc)
    return ("accepted", u.basis.shape, u.dim_ambient, u.basis.tobytes(),
            u.perp.shape, u.perp.tobytes())


D = 4


def _rows(k: int) -> list[np.ndarray]:
    return list(np.random.default_rng(k).standard_normal((k, D)))


def _with(rows: list, j: int, value) -> list:
    rows = list(rows)
    rows[j] = value
    return rows


def _bad_entry(j: int, value, as_list: bool) -> list:
    """Five spanners whose j-th holds ``value`` at its entry 1."""
    rows = _rows(5)
    rows[j] = rows[j].astype(object) if as_list else rows[j].copy()
    rows[j][1] = value
    return [r.tolist() for r in rows] if as_list else rows


#: name -> (spanners, accepted); a callable makes each input afresh
PARITY_CASES = {
    "float64 ndarrays": (lambda: _rows(5), True),
    "float32 ndarrays": (lambda: [r.astype(np.float32) for r in _rows(5)],
                         True),
    "int ndarrays": (lambda: [np.arange(D) - j for j in range(3)], True),
    "uint ndarrays": (
        lambda: [np.arange(D, dtype=np.uint8) * j for j in range(1, 4)],
        True),
    "int64 beside uint64": (
        lambda: [np.arange(D), np.full(D, 2 ** 64 - 1, np.uint64)], True),
    "bool ndarray": (
        lambda: _with(_rows(5), 2, np.array([True, False, True, True])),
        False),
    "complex ndarray": (lambda: _with(_rows(5), 2, np.ones(D, complex)),
                        False),
    "object ndarray of floats": (
        lambda: _with(_rows(5), 2, np.ones(D, object)), True),
    "object ndarray holding None": (
        lambda: _with(_rows(5), 2, np.array([1.0, None, 0, 0])), False),
    "ragged lists": (lambda: [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0]], False),
    "ragged nesting": (lambda: [[1.0, 2.0, 3.0, [4.0]]], False),
    "wrong length ndarray": (lambda: _with(_rows(5), 3, np.ones(D + 1)),
                             False),
    "wrong length list": (lambda: [[1.0] * D, [1.0] * (D - 1)], False),
    "two-dimensional spanner": (lambda: _with(_rows(3), 1, np.ones((1, D))),
                                False),
    "NaN at 0, ndarrays": (lambda: _bad_entry(0, np.nan, False), False),
    "NaN at 3, ndarrays": (lambda: _bad_entry(3, np.nan, False), False),
    "inf at 0, ndarrays": (lambda: _bad_entry(0, np.inf, False), False),
    "inf at 3, ndarrays": (lambda: _bad_entry(3, -np.inf, False), False),
    "inf at 3, a float32 ndarray": (
        lambda: _with(_rows(5), 3,
                      _bad_entry(3, np.inf, False)[3].astype(np.float32)),
        False),
    "NaN at 0, lists": (lambda: _bad_entry(0, math.nan, True), False),
    "NaN at 3, lists": (lambda: _bad_entry(3, math.nan, True), False),
    "inf at 0, lists": (lambda: _bad_entry(0, math.inf, True), False),
    "inf at 3, lists": (lambda: _bad_entry(3, -math.inf, True), False),
    "NaN, then a bool ndarray": (
        lambda: _with(_bad_entry(1, np.nan, False), 3, np.ones(D, bool)),
        False),
    "bool in a list": (lambda: _bad_entry(2, True, True), False),
    "str in a list": (lambda: _bad_entry(2, "1", True), False),
    "None in a list": (lambda: _bad_entry(2, None, True), False),
    "int beyond the float range": (lambda: _bad_entry(2, 10 ** 400, True),
                                   False),
    "numpy scalars in a list": (
        lambda: [[np.float32(1.5), np.int64(2), np.uint8(3), 4.0]], True),
    "tuple of ndarrays": (lambda: tuple(_rows(3)), True),
    "tuple of tuples": (lambda: tuple(tuple(r) for r in _rows(3)), True),
    "generator": (lambda: (r for r in _rows(3)), True),
    "(k, d) ndarray": (lambda: np.stack(_rows(5)), True),
    "(k, d) int ndarray": (lambda: np.arange(3 * D).reshape(3, D), True),
    "(k, d) bool ndarray": (lambda: np.ones((3, D), bool), False),
    "(k, d) ndarray with NaN in row 3": (
        lambda: np.stack(_bad_entry(3, np.nan, False)), False),
    "(k, d + 1) ndarray": (lambda: np.ones((3, D + 1)), False),
    "(0, d + 1) ndarray": (lambda: np.ones((0, D + 1)), True),
    "empty list": (lambda: [], True),
    "all-zero spanner ndarray": (lambda: _with(_rows(4), 1, np.zeros(D)),
                                 True),
    "all-zero spanner list": (lambda: [[0, 0, 0, 0], [1, 2, 3, 4]], True),
    "only all-zero spanners": (lambda: [np.zeros(D), [0.0] * D], True),
    "lists and ndarrays": (
        lambda: [r.tolist() if j % 2 else r for j, r in enumerate(_rows(4))],
        True),
    "nested lists": (lambda: [r.tolist() for r in _rows(5)], True),
    "tiny and huge": (lambda: [[1e-320, 0, 0, 0], [1.7e308, 1e308, 0, 0]],
                      True),
}


class TestStackedSpannerCheck:
    """The spanners are checked once, as one stack, and only a failed check
    is repeated spanner by spanner; against that per-spanner loop, every
    input gives the same acceptance, bytes and message."""

    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_same_as_checking_each_spanner(self, name):
        make, accepted = PARITY_CASES[name]
        want = outcome(lambda: checked_one_by_one(D, make()))
        got = outcome(lambda: subspace_from_spanners(D, make()))
        assert got == want
        assert got[0] == ("accepted" if accepted else "rejected"), got

    def test_orthonormalize_same_as_checking_each_spanner(self):
        # the same check and scaling; the thin SVD keeps as many columns
        for name, (make, accepted) in PARITY_CASES.items():
            want = outcome(lambda: checked_one_by_one(D, make()))
            try:
                got = "accepted", orthonormalize(make(), D).shape
            except Exception as exc:  # the type and message are compared
                got = "rejected", type(exc), str(exc)
            assert got == (want[:2] if accepted else want), name

    def test_transposed_stack_same_as_checking_each_spanner(self):
        # assemble_fix_basis passes cols.T, a (k, d) view in Fortran order,
        # whose strided rows must give the bytes of contiguous ones
        cols = np.random.default_rng(7).standard_normal((40, 9)) * 1e3
        assert not cols.T.flags.c_contiguous
        assert (outcome(lambda: subspace_from_spanners(40, cols.T))
                == outcome(lambda: checked_one_by_one(40, cols.T)))
        u, s, _ = np.linalg.svd(unit_columns_one_by_one(40, cols.T),
                                full_matrices=False)
        want = u[:, :operators._rank(s)]
        got = orthonormalize(cols.T, 40)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_first_bad_spanner_is_named(self):
        rows = _with(_bad_entry(3, np.nan, False), 1, np.ones(D, complex))
        with pytest.raises(ValueError, match="spanner 1 must be real numbers"):
            subspace_from_spanners(D, rows)

    def test_input_is_not_modified(self):
        rows = np.stack(_rows(3)) * 1e3
        before = rows.copy()
        subspace_from_spanners(D, rows)
        subspace_from_spanners(D, list(rows))
        assert np.array_equal(rows, before)

    @pytest.mark.parametrize("as_list", [False, True])
    def test_one_check_per_valid_node(self, monkeypatch, as_list):
        names = []
        check = operators.real_array

        def spy(value, what, shape):
            names.append(what)
            return check(value, what, shape)

        monkeypatch.setattr(operators, "real_array", spy)
        rows = _rows(6)
        u = subspace_from_spanners(D, [r.tolist() for r in rows]
                                   if as_list else rows)
        assert names == ["spanners"]
        assert u.dim == D


def built_node_by_node(d, nodes) -> list[LinearSubspace]:
    """The reference for a config: each node built on its own, the first
    bad node's error named by its 1-based index, as the CLI names it."""
    out = []
    for i, rows in enumerate(nodes):
        try:
            out.append(checked_one_by_one(d, rows))
        except ValueError as exc:
            raise cli.ConfigError(f"node {i + 1}: {exc}") from None
    return out


def config_outcome(build):
    """What a config's build gives: each node's bytes, or its error."""
    try:
        subs = build()
    except Exception as exc:  # the type and message are compared
        return "rejected", type(exc), str(exc)
    return "accepted", [outcome(lambda: u) for u in subs]


def _node(k: int, seed: int, as_list: bool = False, d: int = D) -> list:
    rows = list(np.random.default_rng([k, seed]).standard_normal((k, d)))
    return [r.tolist() for r in rows] if as_list else rows


#: name -> (the nodes of a config in R^D, accepted); a callable makes each
#: input afresh
CONFIG_CASES = {
    "equal k, ndarrays": (lambda: [_node(2, i) for i in range(5)], True),
    "equal k, lists": (lambda: [_node(2, i, True) for i in range(5)], True),
    "equal k, lists and ndarrays": (
        lambda: [_node(3, i, i % 2 == 0) for i in range(4)], True),
    "equal k, (k, d) ndarrays": (
        lambda: [np.stack(_node(3, i)) for i in range(4)], True),
    "mixed k": (
        lambda: [_node(k, i) for i, k in enumerate([1, 3, 2, 3, 1, 0])], True),
    "mixed k, lists": (
        lambda: [_node(k, i, True) for i, k in enumerate([2, 1, 2, 4])], True),
    "a zero spanner": (
        lambda: [_node(3, 0), _with(_node(3, 1), 1, np.zeros(D)), _node(3, 2)],
        True),
    "a zero spanner, lists": (
        lambda: [_node(2, 0, True), [[0.0] * D, [1, 2, 3, 4]],
                 _node(2, 2, True)], True),
    "a node of zero spanners": (
        lambda: [_node(2, 0), [np.zeros(D), np.zeros(D)], _node(2, 2)], True),
    "a zero spanner, mixed k": (
        lambda: [_node(1, 0), _with(_node(3, 1), 0, np.zeros(D)), _node(3, 2)],
        True),
    "dependent spanners": (
        lambda: [_node(2, 0), [np.ones(D), 2 * np.ones(D)], _node(2, 2)], True),
    "k = d": (lambda: [_node(D, i) for i in range(3)], True),
    "k > d": (lambda: [_node(D + 2, i, i == 1) for i in range(3)], True),
    "k >= d beside k < d": (
        lambda: [_node(D + 1, 0), _node(2, 1), _node(D, 2)], True),
    "every node empty": (lambda: [[], [], []], True),
    "tiny and huge": (
        lambda: [[[1e-320, 0, 0, 0], [1.7e308, 1e308, 0, 0]],
                 [[1e-300, 1, 0, 0], [0, 0, 1e300, 1]]], True),
    "bad entry in node 3, lists": (
        lambda: [_node(5, 0, True), _node(5, 1, True),
                 _bad_entry(1, math.nan, True)], False),
    "bad entry in node 3, ndarrays": (
        lambda: [_node(5, 0), _node(5, 1), _bad_entry(1, np.inf, False)],
        False),
    "bad entry in node 3, mixed k": (
        lambda: [_node(2, 0), _node(3, 1), _bad_entry(1, math.nan, True)],
        False),
    "bad nodes 3 and 4": (
        lambda: [_node(5, 0), _node(5, 1), _bad_entry(4, "1", True),
                 _bad_entry(0, math.nan, True)], False),
    "short spanner in node 3": (
        lambda: [_node(2, 0, True), _node(2, 1, True),
                 [[1.0] * D, [1.0] * (D - 1)]], False),
}

#: the CONFIG_CASES built as one stack: every node has as many spanners,
#: none of them all zero, and all pass the check
STACKED = {"equal k, ndarrays", "equal k, lists", "equal k, lists and ndarrays",
           "equal k, (k, d) ndarrays", "dependent spanners", "k = d", "k > d",
           "every node empty", "tiny and huge"}


class TestConfigBuild:
    """A config's nodes are built together (``cli._node_subspaces``): one
    check, one scaling and one SVD of all their spanners
    (``operators._subspaces``) when every node has as many and none is all
    zero, and otherwise node by node.  Against building each node on its
    own, every config gives the same acceptance, the same bytes, and the
    same message with its node named."""

    @pytest.mark.parametrize("name", CONFIG_CASES)
    def test_same_as_building_each_node(self, name):
        make, accepted = CONFIG_CASES[name]
        want = config_outcome(lambda: built_node_by_node(D, make()))
        got = config_outcome(lambda: cli._node_subspaces(D, make()))
        assert got == want
        assert got[0] == ("accepted" if accepted else "rejected"), got

    @pytest.mark.parametrize("name", CONFIG_CASES)
    def test_stack_serves_equal_k_without_zero_spanners(self, name):
        make, _ = CONFIG_CASES[name]
        subs = operators._subspaces(D, make())
        if name not in STACKED:
            assert subs is None
        else:
            assert (config_outcome(lambda: subs)
                    == config_outcome(lambda: built_node_by_node(D, make())))

    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_single_node_case_as_node_3(self, name):
        # the one-node parity cases, each as the third node of a config
        # whose other nodes have as many valid spanners
        make, accepted = PARITY_CASES[name]
        k = len(list(make()))

        def config():
            return [_node(k, 1), _node(k, 2, True), make()]

        want = config_outcome(lambda: built_node_by_node(D, config()))
        got = config_outcome(lambda: cli._node_subspaces(D, config()))
        assert got == want
        assert got[0] == ("accepted" if accepted else "rejected"), got
        if not accepted:
            assert got[2].startswith("node 3: spanner ")

    @staticmethod
    def svd_shapes(monkeypatch) -> list:
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return shapes

    def test_mixed_k_config_takes_one_svd_per_node(self, monkeypatch):
        shapes = self.svd_shapes(monkeypatch)
        # nonzero spanner counts 1, 3, 2, 2 (a zero spanner drops) and 0,
        # which takes no SVD
        nodes = [_node(k, i) for i, k in enumerate([1, 3, 2])]
        nodes += [_with(_node(3, 9), 0, np.zeros(D)), []]
        subs = cli._node_subspaces(D, nodes)
        assert shapes == [(1, D, 1), (1, D, 3), (1, D, 2), (1, D, 2)]
        assert [u.dim for u in subs] == [1, 3, 2, 2, 0]

    @pytest.mark.parametrize("as_list", [False, True])
    def test_equal_k_config_takes_one_svd(self, monkeypatch, as_list):
        shapes = self.svd_shapes(monkeypatch)
        subs = cli._node_subspaces(D, [_node(2, i, as_list) for i in range(6)])
        assert shapes == [(6, D, 2)]
        assert [u.dim for u in subs] == [2] * 6

    @pytest.mark.parametrize("as_list", [False, True])
    def test_one_check_per_valid_config(self, monkeypatch, as_list):
        names = []
        check = operators.real_array

        def spy(value, what, shape):
            names.append((what, shape))
            return check(value, what, shape)

        monkeypatch.setattr(operators, "real_array", spy)
        operators._subspaces(D, [_node(3, i, as_list) for i in range(5)])
        assert names == [("spanners", (5, 3, D))]


class TestDimensionCheck:
    CONSTRUCTORS = {
        "subspace_from_spanners": lambda d: subspace_from_spanners(d, [[1.0]]),
        "orthonormalize": lambda d: orthonormalize([[1.0]], d),
        "full_space": full_space,
        "zero_space": zero_space,
    }

    @pytest.mark.parametrize("d", [True, np.True_, 2.0, 0, -1, "2", None])
    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_d_must_be_a_positive_integer(self, name, d):
        with pytest.raises(ValueError,
                           match=r"^d must be an integer >= 1, got "):
            self.CONSTRUCTORS[name](d)

    def test_numpy_integer_d_is_stored_as_an_int(self):
        for u in (subspace_from_spanners(np.int64(2), [[1.0, 0.0]]),
                  full_space(np.int64(2)), zero_space(np.uint8(2))):
            assert type(u.dim_ambient) is int and u.dim_ambient == 2
        assert orthonormalize([[1.0, 0.0]], np.int64(2)).shape == (2, 1)


class TestProject:
    def test_axis(self):
        u = subspace_from_spanners(2, [[1.0, 0.0]])
        assert np.abs(project(u, [3.0, 4.0]) - [3.0, 0.0]).max() < 1e-15

    def test_full_space_identity(self, rng):
        x = rng.standard_normal(4)
        assert np.array_equal(project(full_space(4), x), x)

    def test_diagonal_line(self):
        # frozen from the least-squares oracle: min ||x - B c|| at c = 1/sqrt(2)
        u = subspace_from_spanners(2, [[1.0, 1.0]])
        got = project(u, [1.0, 0.0])
        oracle = lstsq_project(u.basis, np.array([1.0, 0.0]))
        assert np.abs(got - oracle).max() < 1e-14
        assert np.abs(got - [0.5, 0.5]).max() < 1e-14

    def test_idempotent_and_orthogonal_residual(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            x = rng.standard_normal(d)
            px = project(u, x)
            assert np.abs(project(u, px) - px).max() < 1e-10
            assert abs((x - px) @ px) < 1e-10

    def test_projector_symmetric_idempotent(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            p = u.projector()
            assert np.abs(p - p.T).max() < 1e-10
            assert np.abs(p @ p - p).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            project(full_space(3), np.ones(2))

    @pytest.mark.parametrize("bad", [["1", "0"], [True, False], [None, 0.0],
                                     [[1.0, 0.0], [1.0]], [np.inf, 0.0]])
    def test_non_real_points_rejected(self, bad):
        # under -W error, so no coercion warning stands in for the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                project(full_space(2), bad)


class TestResolvent:
    def test_normal_cone_projects(self):
        op = NormalConeOp(subspace_from_spanners(2, [[1.0, 0.0]]))
        assert np.abs(resolvent(op, [3.0, 4.0], 1.0) - [3.0, 0.0]).max() < 1e-15

    def test_scale_invariance_is_exact(self):
        op = NormalConeOp(subspace_from_spanners(2, [[1.0, 0.0]]))
        x = np.array([3.0, 4.0])
        base = resolvent(op, x, 1.0)
        for d in (1, 2, 3):
            assert np.array_equal(resolvent(op, x, 1.0 / d), base)

    def test_identity_operator_callback(self):
        # A = Id gives J_{gamma A}(x) = x / (1 + gamma)
        op = CallbackOp(lambda x, gamma: x / (1.0 + gamma))
        assert np.abs(resolvent(op, [2.0, 0.0], 1.0) - [1.0, 0.0]).max() < 1e-15

    def test_callback_wrong_dimension(self):
        op = CallbackOp(lambda x, gamma: np.zeros(x.shape[0] + 1))
        with pytest.raises(ValueError, match="shape"):
            resolvent(op, np.ones(2), 1.0)

    @pytest.mark.parametrize("out, dtype", [
        (lambda x: x > 0, "bool"),
        (lambda x: x + 1j, "complex128"),
        (lambda x: x.astype(object), "object"),
        (lambda x: [str(v) for v in x], "<U"),
    ])
    def test_callback_output_is_not_coerced(self, out, dtype):
        op = CallbackOp(lambda x, gamma: out(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"dtype {dtype}"):
                resolvent(op, np.array([1.0, -1.0]), 1.0)

    def test_callback_real_output(self):
        # a float64 array passes as it is; int and float32 become float64
        kept = np.array([0.5, 2.0])
        assert CallbackOp(lambda x, gamma: kept).resolvent(
            np.ones(2), 1.0) is kept
        for value in (np.array([1, 2]), np.array([1, 2], dtype=np.float32),
                      [1, 2.0]):
            got = CallbackOp(lambda x, gamma: value).resolvent(np.ones(2), 1.0)
            assert got.dtype == np.float64 and np.array_equal(got, [1, 2])

    @pytest.mark.parametrize("op", [NormalConeOp(full_space(2)),
                                    CallbackOp(lambda x, gamma: x)])
    @pytest.mark.parametrize("x,gamma", [([True, False], 1.0),
                                         (["1", "0"], 1.0),
                                         ([1.0, 0.0], True),
                                         ([1.0, 0.0], "1")])
    def test_non_real_input_rejected(self, op, x, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                resolvent(op, x, gamma)

    def test_gamma_must_be_positive(self):
        op = NormalConeOp(full_space(2))
        with pytest.raises(ValueError, match="positive"):
            resolvent(op, np.ones(2), 0.0)

    def test_degenerate_subspaces(self):
        x = np.array([1.0, -2.0])
        assert np.abs(resolvent(NormalConeOp(zero_space(2)), x, 0.5)).max() == 0
        assert np.array_equal(resolvent(NormalConeOp(full_space(2)), x, 0.5), x)

    def test_debug_mode_flags_expansive_callback(self, monkeypatch, caplog):
        monkeypatch.setenv("GRAPH_SPLIT_LOG", "debug")
        op = CallbackOp(lambda x, gamma: 3.0 * x)
        with caplog.at_level("WARNING", logger="graphsplit"):
            resolvent(op, np.array([1.0, 0.0]), 1.0)
            resolvent(op, np.array([0.0, 0.0]), 1.0)
        assert any("firm nonexpansiveness" in r.message for r in caplog.records)

    def test_debug_mode_read_at_construction(self, monkeypatch, caplog):
        monkeypatch.delenv("GRAPH_SPLIT_LOG", raising=False)
        op = CallbackOp(lambda x, gamma: 3.0 * x)
        monkeypatch.setenv("GRAPH_SPLIT_LOG", "debug")
        with caplog.at_level("WARNING", logger="graphsplit"):
            resolvent(op, np.array([1.0, 0.0]), 1.0)
            resolvent(op, np.array([0.0, 0.0]), 1.0)
        assert not caplog.records


class TestFirmNonexpansiveness:
    @pytest.mark.parametrize("make_op", [
        lambda rng, d: NormalConeOp(random_subspace(rng, d,
                                                    int(rng.integers(0, d + 1)))),
        lambda rng, d: CallbackOp(lambda x, gamma: x / (1.0 + gamma)),
    ])
    def test_hundred_random_pairs(self, rng, make_op):
        d = 4
        op = make_op(rng, d)
        for _ in range(100):
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            jx = resolvent(op, x, 0.5)
            jy = resolvent(op, y, 0.5)
            diff = jx - jy
            assert diff @ diff <= (x - y) @ diff + 1e-10
