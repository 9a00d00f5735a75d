"""Certified spectral-radius bounds over single-child selections.

Keeping one child per (state, move) turns the graph into a square matrix
whose growth rate bounds the walk count growth. Power iteration yields
two-sided eigenvalue estimates: for a nonnegative vector v, the largest
ratio (Mv)_i / v_i over the support of v is a rigorous upper bound on the
spectral radius, so the returned vector doubles as a checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .automaton import StateGraph


def first_choice(g: StateGraph) -> list[list[int]]:
    """Initial selection: the head of every child list (-1 for blocked moves)."""
    return [[lst[0] if lst else -1 for lst in lists] for lists in g.children]


def reselect(g: StateGraph, v: np.ndarray) -> list[list[int]]:
    """Pick, per (state, move), the child with the smallest vector weight.

    Ties break toward the smaller id so reselection is deterministic.
    """
    out = []
    for lists in g.children:
        out.append([min(lst, key=lambda c: (v[c], c)) if lst else -1 for lst in lists])
    return out


def choice_matrix(g: StateGraph, choices: list[list[int]], dtype=np.float64) -> csr_matrix:
    """The transition matrix of one selection; duplicate targets accumulate."""
    rows = []
    cols = []
    for s, row in enumerate(choices):
        for c in row:
            if c >= 0:
                rows.append(s)
                cols.append(c)
    n = len(g)
    data = np.ones(len(rows), dtype=dtype)
    return csr_matrix((data, (rows, cols)), shape=(n, n))


@dataclass
class PowerResult:
    """One power-iteration run; `vector` certifies lambda_hi by a single multiply."""

    vector: np.ndarray
    lambda_lo: float
    lambda_hi: float
    iterations: int
    converged: bool


def power_iterate(M: csr_matrix, tol: float = 1e-10, max_iter: int = 100_000) -> PowerResult:
    """Two-sided bounds from ratios over the positive support of the iterate.

    Coordinates that die (no outgoing mass) go exactly to zero and drop out
    of the ratio set on the following iteration, which keeps the bounds
    meaningful on graphs with dead-end states.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    v = np.ones(M.shape[0])
    lo = 0.0
    hi = float("inf")
    for it in range(1, max_iter + 1):
        w = M @ v
        pos = v > 0
        ratios = w[pos] / v[pos]
        hi = float(ratios.max())
        lo = float(ratios.min())
        if hi - lo < tol:
            return PowerResult(v, lo, hi, it, True)
        peak = w.max()
        if peak <= 0.0:
            return PowerResult(v, 0.0, hi, it, True)
        v = w / peak
    return PowerResult(v, lo, hi, max_iter, False)


MAX_ROUNDS = 50


def _selection_key(choices: list[list[int]]) -> bytes:
    """An exact, compact key for one selection (one int32 per state and move)."""
    return np.array(choices, dtype=np.int32).tobytes()


@dataclass
class OptimizeResult:
    lambda_hi: float
    lambda_lo: float
    vector: np.ndarray
    choices: list[list[int]]
    rounds_used: int
    round_bounds: list[float]
    fixed_point: bool
    converged: bool


def optimize(g: StateGraph) -> OptimizeResult:
    """Alternate power iteration with reselection, keeping the best certificate.

    Reselection is deterministic, so once a selection repeats every later
    round would replay earlier ones: the run stops at the first repeat, which
    is a fixed point when it repeats the previous round, or after MAX_ROUNDS
    rounds. The reported bound is the smallest certified upper bound seen
    across rounds, which is therefore non-increasing in the round number.
    """
    choices = first_choice(g)
    key = _selection_key(choices)
    seen: set[bytes] = set()
    best: PowerResult | None = None
    best_choices = choices
    round_bounds: list[float] = []
    fixed = False
    for _ in range(MAX_ROUNDS):
        seen.add(key)
        res = power_iterate(choice_matrix(g, choices))
        round_bounds.append(res.lambda_hi)
        if best is None or res.lambda_hi < best.lambda_hi:
            best = res
            best_choices = choices
        nxt = reselect(g, res.vector)
        nxt_key = _selection_key(nxt)
        if nxt_key in seen:
            fixed = nxt_key == key
            break
        choices, key = nxt, nxt_key
    assert best is not None
    return OptimizeResult(
        lambda_hi=best.lambda_hi,
        lambda_lo=best.lambda_lo,
        vector=best.vector,
        choices=best_choices,
        rounds_used=len(round_bounds),
        round_bounds=round_bounds,
        fixed_point=fixed,
        converged=best.converged,
    )


def dense_spectral_radius(M: csr_matrix) -> float:
    """Exact spectral radius by dense eigensolve; for modest sizes only."""
    return float(np.abs(np.linalg.eigvals(M.toarray())).max())
