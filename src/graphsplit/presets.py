"""The seven named graph-splitting configurations.

Each preset pins a graph pair, the canonical decomposition of the
subgraph Laplacian, the closed-form alpha vector that holds for exactly
that decomposition, and the matching closed-form route for E.  Users who
re-factor with the eigen construction get an orthogonally transformed
alpha instead (alpha' = O^T alpha for Z' = Z O).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor import (
    AlphaVector,
    OntoDecomposition,
    alpha as compute_alpha,
    factor_complete_sparse,
    factor_tree,
)
from .graphs import GraphPair, _order, degree_balance, named_graph, validate_pair

PRESET_NAMES = (
    "douglas_rachford",
    "generalized_ryu",
    "malitsky_tam",
    "parallel_up",
    "parallel_down",
    "sequential",
    "complete",
)

#: (G family, G' family, printed alpha formula)
_TABLE = {
    "douglas_rachford": ("sequential", "sequential", "1"),
    "generalized_ryu": ("complete", "parallel_down", "n+1-2j"),
    "malitsky_tam": ("ring", "sequential", "2"),
    "parallel_up": ("parallel_up", "parallel_up", "1"),
    "parallel_down": ("parallel_down", "parallel_down", "1"),
    "sequential": ("sequential", "sequential", "1"),
    "complete": ("complete", "complete", "sqrt((n-j)(n-j+1)/n)"),
}


@dataclass(frozen=True)
class Preset:
    name: str
    n: int
    pair: GraphPair
    dec: OntoDecomposition
    alpha_closed: AlphaVector
    e_route: str


def preset(name: str, n: int) -> Preset:
    """Build a named configuration of order ``n``.

    ``n`` is an int or numpy integer, never a bool or a float.
    ``douglas_rachford`` fixes n = 2; ``generalized_ryu`` and
    ``malitsky_tam`` need n >= 3; the remaining families accept n >= 2.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    n = _order(n)
    if name == "douglas_rachford" and n != 2:
        raise ValueError("douglas_rachford is the order-2 scheme; use n = 2")
    if name in ("generalized_ryu", "malitsky_tam") and n < 3:
        raise ValueError(f"{name} requires n >= 3, got {n}")

    g_kind, sub_kind, _ = _TABLE[name]
    pair = validate_pair(named_graph(g_kind, n), named_graph(sub_kind, n))

    j = np.arange(1, n, dtype=np.float64)
    if name == "complete":
        dec = factor_complete_sparse(n)
        a = np.sqrt((n - j) * (n - j + 1) / n)
    else:
        dec = factor_tree(pair.sub)
        if name == "generalized_ryu":
            a = n + 1 - 2 * j
        elif name == "malitsky_tam":
            a = np.full(n - 1, 2.0)
        else:
            a = np.ones(n - 1)

    alpha_closed = AlphaVector(a, float(a @ a))
    check = compute_alpha(dec, degree_balance(pair.g))
    drift = np.abs(check.alpha - a).max()
    if drift > 1e-12:
        raise AssertionError(
            f"closed-form alpha for {name} (n={n}) deviates by {drift:.3e}"
        )
    e_route = sub_kind
    return Preset(name, n, pair, dec, alpha_closed, e_route)


def ryu_norm_sq(n: int) -> float:
    """||alpha||^2 for the generalized Ryu scheme: (n-1)((n-1)^2 + 2)/3,
    for an integer n >= 2."""
    n = _order(n)
    return (n - 1) * ((n - 1) ** 2 + 2) / 3


def preset_table() -> list[tuple[str, str, str, str]]:
    """Rows (name, G, G', alpha_j) for the seven presets."""
    return [(name, *_TABLE[name]) for name in PRESET_NAMES]
