"""Gauss-Legendre quadrature with adaptive bisection.

The single knob that matters downstream is honesty about failure: when the
recursion depth runs out before the local error estimates meet tolerance,
the routine raises instead of silently returning, and the exception carries
the best estimate assembled so far.

Integrands are called on arrays of nodes, so anything composed of numpy
ufuncs integrates at full speed; plain scalar functions can be wrapped
with ``np.vectorize`` by the caller.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, guard

DEFAULT_REL_TOL = 1e-8
DEFAULT_MAX_DEPTH = 20
#: Nodes of one :func:`box_grid`.  At its peak the grid holds both meshgrids,
#: the stacked nodes and weights and the weight product: 32 dim + 8 bytes per
#: node, 136 bytes in dimension 4 (two torus blocks), so 2^20 nodes are about
#: 143 MB.
BOX_GRID_NODE_CAP = 1 << 20


@lru_cache(maxsize=None)
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panels(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre panels between consecutive
    edges, panel after panel, as flat arrays."""
    nodes, weights = _rule(n)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


def fixed_quad(f: Callable, a: float, b: float):
    """One 15-point Gauss-Legendre panel over [a, b]."""
    nodes, weights = _rule(15)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.asarray(f(mid + half * nodes))
    return half * np.dot(weights, vals)


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = 0.0,
    max_depth: int = DEFAULT_MAX_DEPTH,
):
    """Integrate f over [a, b] by bisecting 15-point panels until they agree.

    A panel is accepted when refining it changes the estimate by less than
    the tolerance (relative to the refined panel, or to the whole-interval
    scale prorated by panel width).  Exhausting ``max_depth`` raises
    :class:`ConvergenceError` whose ``estimate`` attribute holds the total
    assembled from all panels, converged or not.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_quad(f, b, a, rel_tol, abs_tol, max_depth)
    whole = fixed_quad(f, a, b)
    global_scale = abs(whole)
    width = b - a
    total = 0.0
    bad_panels = 0
    worst = 0.0
    stack = [(a, b, whole, 0)]
    while stack:
        a0, b0, est, depth = stack.pop()
        mid = 0.5 * (a0 + b0)
        left = fixed_quad(f, a0, mid)
        right = fixed_quad(f, mid, b0)
        refined = left + right
        err = abs(refined - est)
        tol = max(
            abs_tol,
            rel_tol * abs(refined),
            rel_tol * global_scale * (b0 - a0) / width,
        )
        if err <= tol:
            total = total + refined
        elif depth >= max_depth:
            total = total + refined
            bad_panels += 1
            worst = max(worst, err)
        else:
            stack.append((a0, mid, left, depth + 1))
            stack.append((mid, b0, right, depth + 1))
    if bad_panels:
        raise ConvergenceError(
            f"{bad_panels} panel(s) still moving by up to {worst:.3e} at depth "
            f"{max_depth}; estimate attached",
            estimate=total,
        )
    return total


def box_grid(
    lows: Sequence[float],
    highs: Sequence[float],
    panels: int = 4,
    points: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite tensor-product rule over a box.

    Returns (pts, wts) with pts of shape (n, dim); summing f(pts) * wts
    integrates f over the box.  Useful when the integrand can be evaluated
    on all nodes at once.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    if lows.shape != highs.shape or lows.ndim != 1:
        raise DomainError("box bounds must be matching 1-d sequences")
    if panels < 1 or points < 2:
        raise DomainError("need at least one panel and two points per panel")
    guard((panels * points) ** lows.size, BOX_GRID_NODE_CAP, "grid nodes")
    axes = [_panels(np.linspace(lo, hi, panels + 1), points) for lo, hi in zip(lows, highs)]
    grids = np.meshgrid(*(xs for xs, _ in axes), indexing="ij")
    wgrids = np.meshgrid(*(ws for _, ws in axes), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.prod(np.stack([w.ravel() for w in wgrids], axis=1), axis=1)
    return pts, wts

