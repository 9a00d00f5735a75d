"""Reference counters and exhaustive cross-checks.

The counters enumerate walks directly from the lattice definitions, without
touching the automaton code paths they are meant to validate.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .automaton import GraphClosureError, StateGraph, graph_ctx
from .geometry import DIR_VEC, REFLECT_TABLE, RIGHT, ROT_SUB, reverse
from .legality import MOVE_INDEX, allowed_moves
from .simplify import candidate_children
from .spectral import choice_matrix, first_choice
from .state import Walk, canonical


def count_line_extensions(k: int, n: int) -> int:
    """Loop-free n-step extensions of the straight k/2-edge walk, counted raw
    with no symmetry quotient. Mirrors unroll on an erasure-only graph."""
    if n < 0 or n > 16:
        raise ValueError("n must be within [0, 16]")
    if k % 2 or not 4 <= k <= 12:
        raise ValueError("k must be even and within [4, 12]")
    half = k // 2
    last = {(i - half, 0): i for i in range(half + 1)}

    def rec(x: int, y: int, t: int) -> int:
        if t == half + n:
            return 1
        total = 0
        for d, (dx, dy) in enumerate(DIR_VEC):
            p = (x + dx, y + dy)
            s = last.get(p)
            if s is not None and t + 1 - s <= k:
                continue
            last[p] = t + 1
            total += rec(x + dx, y + dy, t + 1)
            if s is None:
                del last[p]
            else:
                last[p] = s
        return total

    return rec(0, 0, half)


def count_line_continuations(k: int, n: int) -> int:
    """Self-avoiding continuations of the k/2 line of every length up to n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    half = k // 2
    vset = {(i - half, 0) for i in range(half + 1)}

    def rec(x: int, y: int, lastd: int, depth: int) -> int:
        if depth == n:
            return 0
        total = 0
        for d, (dx, dy) in enumerate(DIR_VEC):
            if d == reverse(lastd):
                continue
            p = (x + dx, y + dy)
            if p in vset:
                continue
            vset.add(p)
            total += 1 + rec(x + dx, y + dy, d, depth + 1)
            vset.remove(p)
        return total

    return rec(0, 0, RIGHT, 0)


def unroll(g: StateGraph, n: int) -> int:
    """Number of length-n paths from the root under first choices, children
    counted with multiplicity."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = choice_matrix(first_choice(g))
    u = np.ones(len(g), dtype=np.int64)
    for _ in range(n):
        u = m @ u
    return int(u[g.root])


def never_undercount_check(g: StateGraph, n_max: int) -> tuple[int, list[bytes]]:
    """Follow every self-avoiding continuation of the root line, tracking the
    set of (state, mirrored) descriptions the automaton keeps alive for it.

    A continuation that empties the set would be missed by the count, which
    would break the upper bound, unless its endpoint is sealed in by the line
    plus the continuation, so that it can never grow to any length; an
    unsealed one is returned as a witness direction string. Sealed
    continuations are followed on with an empty set.
    Also cross-checks every recomputed child against the stored child lists.
    Returns (continuations followed, witnesses).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    ctx = graph_ctx(g)
    memo: dict[tuple[int, int], list[tuple[int, bool, bool]]] = {}

    def transitions(sid: int, rel: int) -> list[tuple[int, bool, bool]]:
        out = memo.get((sid, rel))
        if out is None:
            out = []
            w = Walk(g.states[sid])
            if rel in allowed_moves(w, g.options.planar_a, g.options.planar_b):
                stored = set(g.children(sid, MOVE_INDEX[rel]).tolist())
                for key, cw in candidate_children(w, rel, ctx):
                    ckey = canonical(cw.dirs)
                    # whether the canonical key is the reflected image
                    phi = ckey != cw.dirs.translate(ROT_SUB[(cw.dirs[-1] - RIGHT) % 4])
                    sid2 = ctx.ids[ckey]
                    if sid2 not in stored:
                        raise GraphClosureError(
                            f"recomputed child {sid2} of state {sid} move {rel} "
                            "is missing from the stored children"
                        )
                    symmetric = ckey.translate(REFLECT_TABLE) == ckey
                    out.append((sid2, phi, symmetric))
            memo[(sid, rel)] = out
        return out

    half = g.k // 2
    vset = {(i - half, 0) for i in range(half + 1)}
    witnesses: list[bytes] = []
    prefix = bytearray()
    checked = 0

    def rec(x: int, y: int, lastd: int, pairs: set, depth: int) -> None:
        nonlocal checked
        if depth == n_max:
            return
        for d, (dx, dy) in enumerate(DIR_VEC):
            if d == reverse(lastd):
                continue
            p = (x + dx, y + dy)
            if p in vset:
                continue
            nxt = set()
            for sid, flip in pairs:
                rel = (2 - (d - lastd + 1)) % 4 if flip else (d - lastd + 1) % 4
                for sid2, phi, symmetric in transitions(sid, rel):
                    nxt.add((sid2, flip ^ phi))
                    if symmetric:
                        nxt.add((sid2, not (flip ^ phi)))
            checked += 1
            prefix.append(d)
            vset.add(p)
            # an empty set is harmless only where the walk is sealed in; every
            # extension of a sealed walk stays sealed, so it is followed on
            if nxt or not pairs or _sealed(p, vset):
                rec(x + dx, y + dy, d, nxt, depth + 1)
            else:
                witnesses.append(bytes(prefix))
            vset.remove(p)
            prefix.pop()

    rec(0, 0, RIGHT, {(g.root, False)}, 0)
    return checked, witnesses


def _sealed(end: tuple[int, int], occupied: set) -> bool:
    """Whether no free path leads from `end` out of the bounding box of
    `occupied` (which contains `end`), by a breadth-first search."""
    xs = [p[0] for p in occupied]
    ys = [p[1] for p in occupied]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    seen = {end}
    queue = deque([end])
    while queue:
        x, y = queue.popleft()
        for dx, dy in DIR_VEC:
            p = (x + dx, y + dy)
            if p in seen or p in occupied:
                continue
            if not (lo_x <= p[0] <= hi_x and lo_y <= p[1] <= hi_y):
                return False
            seen.add(p)
            queue.append(p)
    return True


def _escaping_touch(stepped: Walk, extras: set, limit: int) -> bool:
    """Whether some continuation of `stepped` touches an extra vertex and
    still escapes the local bounding box afterwards."""
    obstacles = stepped.vset
    xs = [p[0] for p in obstacles] + [p[0] for p in extras]
    ys = [p[1] for p in obstacles] + [p[1] for p in extras]
    lo_x, hi_x = min(xs) - 1, max(xs) + 1
    lo_y, hi_y = min(ys) - 1, max(ys) + 1
    path: set = set()

    def rec(x: int, y: int, depth: int, touched: bool) -> bool:
        if touched and (x < lo_x or x > hi_x or y < lo_y or y > hi_y):
            return True
        if depth == limit:
            return False
        for dx, dy in DIR_VEC:
            p = (x + dx, y + dy)
            if p in obstacles or p in path:
                continue
            path.add(p)
            hit = rec(x + dx, y + dy, depth + 1, touched or p in extras)
            path.remove(p)
            if hit:
                return True
        return False

    ax, ay = stepped.points[-1]
    return rec(ax, ay, 0, False)


def soundness_check(g: StateGraph) -> list[tuple[int, int, bytes]]:
    """Hunt for a rewrite that forbids a live continuation.

    Vertices present only in a candidate may block continuations of the
    stepped walk; that is harmless exactly when every continuation touching
    one is trapped. Touches of a vertex with three walk neighbors are trapped
    outright; otherwise continuations up to k steps are enumerated.
    Returns violating (state id, move, candidate key) triples.
    """
    ctx = graph_ctx(g)
    bad = []
    for sid in range(len(g)):
        w = Walk(g.states[sid])
        for mv in allowed_moves(w, g.options.planar_a, g.options.planar_b):
            stepped = w.stepped(mv)
            for key, cw in candidate_children(w, mv, ctx):
                extras = [p for p in cw.points if p not in stepped.vset]
                if not extras:
                    continue
                if all(
                    sum((px + dx, py + dy) in stepped.vset for dx, dy in DIR_VEC) >= 3
                    for px, py in extras
                ):
                    continue
                if _escaping_touch(stepped, set(extras), g.k):
                    bad.append((sid, mv, key))
    return bad
