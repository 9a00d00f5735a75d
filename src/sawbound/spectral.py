"""Certified spectral-radius bounds over single-child selections.

Keeping one child per (state, move) turns the graph into a square matrix
whose growth rate bounds the walk count growth. Power iteration yields
two-sided eigenvalue estimates. For a nonnegative vector v, the largest
ratio (Mv)_i / v_i over the support of v bounds the spectral radius from
above when v's zero set is closed under the selection (a state with v_i = 0
picks only such states) and the selection has no cycle within it: M is then
block triangular, with a nilpotent block on the zero set. The returned vector
is then a checkable certificate: one product, plus that check of its zeros.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .automaton import StateGraph


_RESELECT_CHUNK = 1 << 14  # (state, move) segments per reselect span


def first_choice(g: StateGraph) -> np.ndarray:
    """Initial selection: the head of every child segment, -1 for a blocked move."""
    full = g.offsets[:-1] < g.offsets[1:]
    out = np.full(len(full), -1, dtype=np.int32)
    out[full] = g.ids[g.offsets[:-1][full]]
    return out.reshape(-1, 3)


def _lightest(g: StateGraph, v: np.ndarray, which: np.ndarray) -> np.ndarray:
    """The least-weight child of each non-empty segment in `which`, the least
    id among equal weights: two minima over those segments' ids laid end to end."""
    lo = g.offsets[which]
    n = g.offsets[which + 1] - lo
    starts = np.cumsum(n) - n
    ids = g.ids[np.repeat(lo - starts, n) + np.arange(starts[-1] + n[-1])]
    w = v[ids]
    tie = w == np.repeat(np.minimum.reduceat(w, starts), n)
    return np.minimum.reduceat(np.where(tie, ids, np.iinfo(np.int32).max), starts)


def reselect(g: StateGraph, v: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Pick, per (state, move), the child with the smallest vector weight,
    keeping the pick of `prev` unless it is heavier than that by a relative TOL.

    `prev` is an `(n, 3)` selection of the same graph. Keeping it on near ties
    lets the rounds reach a fixed point once the weights settle, instead of
    trading picks whose weights differ only by float noise. A pick that does
    change breaks ties toward the smaller id, so reselection is deterministic.
    It works through spans of _RESELECT_CHUNK segments, without a sort: the
    least weight of every segment in the span, then, only for the segments
    whose pick changes, the least id among the entries of that weight. A
    span's temporaries grow with its segments' child ids, which the graph
    already holds, so no span outgrows the graph.
    """
    offsets = g.offsets
    picks = prev.flatten()
    for fa in range(0, len(picks), _RESELECT_CHUNK):
        fb = min(fa + _RESELECT_CHUNK, len(picks))
        lo, hi = offsets[fa], offsets[fb]
        # the inf slot gives a blocked last segment an index; a blocked
        # segment's least (the next head's weight, or inf) goes unused
        w = np.append(v[g.ids[lo:hi]], np.inf)
        least = np.minimum.reduceat(w, offsets[fa:fb] - lo)
        least *= 1 + TOL
        held = picks[fa:fb]
        moved = fa + np.flatnonzero((held >= 0) & (v[held] > least))
        if len(moved):
            picks[moved] = _lightest(g, v, moved)
    return picks.reshape(-1, 3)


class SelectionMatrix:
    """The transition matrix of one selection, kept as its picks."""

    def __init__(self, choices: np.ndarray):
        n = len(choices)
        a, b, c = np.where(choices < 0, n, choices).T
        # a three-input sorting network: low <= mid <= high
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        low = np.minimum(lo, c)
        np.maximum(lo, c, out=lo)
        mid = np.minimum(lo, hi)
        high = np.maximum(lo, hi, out=hi)
        del a, b, c, lo  # frees the (n, 3) picks before the columns are made
        pair = mid == high  # rotated to (mid, high, low), so the pair adds first
        self.shape = (n, n)
        self._cols = [np.where(pair, mid, low).astype(np.intp), mid.astype(np.intp),
                      np.where(pair, low, high).astype(np.intp)]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        ve = np.append(v, 0)
        c0, c1, c2 = self._cols
        out = ve.take(c0)
        out += ve.take(c1)
        out += ve.take(c2)
        return out


def choice_matrix(choices: np.ndarray) -> SelectionMatrix:
    """The transition matrix of an `(n, 3)` selection, -1 for a blocked move.

    It offers what `power_iterate` needs, `shape` and `M @ v`. Row i of
    `M @ v` adds v over the three picks of state i, a blocked pick reading
    a zero appended to v, so a child picked by two or three moves counts two
    or three times; integer vectors count exactly (`oracle.unroll`).

    Picks are added in ascending order, except that a row whose last two
    picks are equal is rotated to (middle, last, first) so that the pair is
    added first. Doubling is exact and addition commutes, so every row
    rounds as a sparse product that merges duplicate entries does:
    (a, b, c) gives (va + vb) + vc, (a, a, b) gives 2va + vb, (a, b, b)
    gives 2vb + va and (a, a, a) gives 3va. A certificate vector is then
    reproduced bit for bit by any such product, not just by this one.
    """
    return SelectionMatrix(choices)


@dataclass
class PowerResult:
    """One power-iteration run. `vector` certifies lambda_hi by a single
    multiply when its zero set is closed under the matrix and acyclic."""

    vector: np.ndarray
    lambda_lo: float
    lambda_hi: float
    iterations: int
    converged: bool


TOL = 1e-10
LOOSE_TOL = 1e-6  # the gap of the rounds before the selection first repeats
MAX_ITER = 100_000
MAX_ROUNDS = 50


def power_iterate(M, tol: float = TOL) -> PowerResult:
    """Two-sided bounds from ratios over the positive support of the iterate.

    `M` is anything with `shape` and a nonnegative product `M @ v`: a
    `SelectionMatrix` or a numpy array. The iteration stops once the gap
    between the bounds is below `tol`, or after MAX_ITER iterations.

    Coordinates that die (no outgoing mass) go exactly to zero and drop out
    of the ratio set on the following iteration, which keeps the bounds
    meaningful on graphs with dead-end states.
    """
    v = np.ones(M.shape[0])
    ratios = np.empty_like(v)
    with np.errstate(divide="ignore", invalid="ignore"):  # dead entries divide by 0
        for it in range(1, MAX_ITER + 1):
            w = M @ v
            np.divide(w, v, out=ratios)
            # a dead entry takes the ratio of the first live one, so the
            # extremes over all entries are those over the live ones
            dead = ~(v > 0)
            np.putmask(ratios, dead, ratios[dead.argmin()])
            hi = float(ratios.max())
            lo = float(ratios.min())
            if hi - lo < tol:
                return PowerResult(v, lo, hi, it, True)
            peak = w.max()
            if peak <= 0.0:
                return PowerResult(v, 0.0, hi, it, True)
            w /= peak  # normalised in place: w is this iteration's own product
            v = w
    return PowerResult(v, lo, hi, MAX_ITER, False)


@dataclass
class OptimizeResult:
    lambda_hi: float
    lambda_lo: float
    vector: np.ndarray
    choices: np.ndarray
    rounds_used: int
    round_bounds: list[float]
    round_iterations: list[int]  # power iterations per round
    round_gaps: list[float]  # lambda_hi - lambda_lo per round: LOOSE_TOL or TOL once converged
    round_changes: list[int]  # (state, move) picks the reselection after each round changed
    fixed_point: bool
    converged: bool


def _digest(choices: np.ndarray) -> bytes:
    """The 16-byte blake2b digest of a selection's int32 bytes."""
    return hashlib.blake2b(choices, digest_size=16).digest()


def optimize(g: StateGraph) -> OptimizeResult:
    """Alternate power iteration with reselection, keeping the best certificate.

    Reselection is deterministic, so once a selection repeats every later
    round would replay earlier ones. The rounds run in two stages. Loose
    rounds iterate to a gap below LOOSE_TOL, which is enough to steer the
    selection, until a selection repeats. The rounds then iterate to TOL, the
    remembered selections cleared, until a selection repeats again: a fixed
    point when it repeats the previous round. The last of MAX_ROUNDS rounds
    runs at TOL whatever the stage. The reported bound is the smallest
    certified upper bound of the TOL rounds, so its gap is below TOL.

    A selection is remembered only by its 16-byte blake2b digest, and only
    the best, current and next selections are kept, so memory does not grow
    with the round count. A digest collision could only end a stage early,
    and the run then still returns the best certified bound it has.
    """
    choices = first_choice(g)
    key = _digest(choices)
    seen: set[bytes] = set()
    tol = LOOSE_TOL
    best: PowerResult | None = None
    best_choices = None  # set with best, so the loose rounds hold no extra selection
    round_bounds: list[float] = []
    round_iterations: list[int] = []
    round_gaps: list[float] = []
    round_changes: list[int] = []
    for r in range(MAX_ROUNDS):
        if r == MAX_ROUNDS - 1:
            tol = TOL
        seen.add(key)
        res = power_iterate(choice_matrix(choices), tol)
        round_bounds.append(res.lambda_hi)
        round_iterations.append(res.iterations)
        round_gaps.append(res.lambda_hi - res.lambda_lo)
        if tol == TOL and (best is None or res.lambda_hi < best.lambda_hi):
            best = res
            best_choices = choices
        nxt = reselect(g, res.vector, choices)
        round_changes.append(int(np.count_nonzero(nxt != choices)))
        key = _digest(nxt)
        if key in seen:
            if tol == TOL:
                break
            tol = TOL
            seen.clear()
        choices = nxt
    assert best is not None
    return OptimizeResult(
        lambda_hi=best.lambda_hi,
        lambda_lo=best.lambda_lo,
        vector=best.vector,
        choices=best_choices,
        rounds_used=len(round_bounds),
        round_bounds=round_bounds,
        round_iterations=round_iterations,
        round_gaps=round_gaps,
        round_changes=round_changes,
        fixed_point=round_changes[-1] == 0,  # the last selection reselected itself
        converged=best.converged,
    )
