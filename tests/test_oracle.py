"""Brute-force enumeration oracles and their frozen reference values.

The walk counts are the ground truth the automaton bounds are judged
against, so the counters themselves are pinned to known series values and
cross-checked against each other before anything else trusts them. The
plain walk counters live here, beside their only users; the two
self-avoiding counters deliberately use different traversals and different
occupancy tests so a shared bug cannot hide.
"""

from bisect import bisect_left

import pytest

from sawbound import oracle
from sawbound.automaton import build
from sawbound.geometry import DIR_VEC, DOWN, RIGHT, UP, reverse
from sawbound.oracle import (
    count_line_continuations,
    count_line_extensions,
    never_undercount_check,
)

# Number of n-step self-avoiding walks from the origin, n = 1..14.
C2 = [4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100,
      120292, 324932, 881500, 2374444]

# Walks counted once per symmetry class: first step right, first vertical
# step (if any) downward.
D2 = [1, 2, 5, 13, 36, 98, 272, 740, 2034, 5513, 15037, 40617, 110188, 296806]


def count_saw(n: int) -> int:
    """Number of n-step self-avoiding walks from the origin, by depth-first
    search over a hashed occupancy set."""
    if not 1 <= n <= 18:
        raise ValueError("n must be within [1, 18]")
    visited = {(0, 0)}

    def rec(x: int, y: int, left: int) -> int:
        if left == 0:
            return 1
        total = 0
        for dx, dy in DIR_VEC:
            p = (x + dx, y + dy)
            if p not in visited:
                visited.add(p)
                total += rec(x + dx, y + dy, left - 1)
                visited.remove(p)
        return total

    return rec(0, 0, n)


def count_saw_frontier(n: int) -> int:
    """The same count, grown breadth-first as direction strings with sorted
    point lists probed by bisection."""
    if not 1 <= n <= 18:
        raise ValueError("n must be within [1, 18]")
    frontier = [bytes((d,)) for d in range(4)]
    for _ in range(n - 1):
        nxt = []
        for dirs in frontier:
            pts = [(0, 0)]
            x = y = 0
            for c in dirs:
                dx, dy = DIR_VEC[c]
                x += dx
                y += dy
                pts.append((x, y))
            pts.sort()
            for d in range(4):
                if d == reverse(dirs[-1]):
                    continue
                dx, dy = DIR_VEC[d]
                p = (x + dx, y + dy)
                i = bisect_left(pts, p)
                if i < len(pts) and pts[i] == p:
                    continue
                nxt.append(dirs + bytes((d,)))
        frontier = nxt
    return len(frontier)


def count_canonical(n: int) -> int:
    """Walks counted once per symmetry class: first step Right, first vertical
    step (if any) Down."""
    if not 1 <= n <= 18:
        raise ValueError("n must be within [1, 18]")
    visited = {(0, 0), (1, 0)}

    def rec(x: int, y: int, left: int, vertical_seen: bool) -> int:
        if left == 0:
            return 1
        total = 0
        for d, (dx, dy) in enumerate(DIR_VEC):
            if d == UP and not vertical_seen:
                continue
            p = (x + dx, y + dy)
            if p in visited:
                continue
            visited.add(p)
            total += rec(x + dx, y + dy, left - 1, vertical_seen or d in (UP, DOWN))
            visited.remove(p)
        return total

    return rec(1, 0, n - 1, False)


def test_count_saw_matches_series():
    for n, want in enumerate(C2[:10], start=1):
        assert count_saw(n) == want


def test_count_canonical_matches_series():
    for n, want in enumerate(D2[:10], start=1):
        assert count_canonical(n) == want


def test_symmetry_quotient_identity():
    # every length-n walk is one of 8 images of a canonical one, except the
    # 4 straight lines which have a 4-element orbit: c2 = 8*d - 4 for n >= 2
    for n in range(2, 11):
        assert count_saw(n) == 8 * count_canonical(n) - 4
    assert count_saw(1) == 4 * count_canonical(1)


def test_frontier_counter_agrees_with_dfs():
    for n in range(1, 9):
        assert count_saw_frontier(n) == count_saw(n)


def test_submultiplicativity():
    # c2(m+n) <= c2(m) * c2(n): a long walk splits into two legal halves
    c = {n: count_saw(n) for n in range(1, 11)}
    for m in range(1, 6):
        for n in range(1, 11 - m):
            assert c[m + n] <= c[m] * c[n]


def count_loop_free(n: int, k: int) -> int:
    """Walks allowed to revisit a vertex when the loop closed is longer than k,
    same symmetry convention as count_canonical. Coincides with
    count_canonical whenever k >= n."""
    if not 1 <= n <= 16:
        raise ValueError("n must be within [1, 16]")
    if k % 2 or not 2 <= k <= 12:
        raise ValueError("k must be even and within [2, 12]")
    last = {(0, 0): 0, (1, 0): 1}

    def rec(x: int, y: int, t: int, vertical_seen: bool) -> int:
        if t == n:
            return 1
        total = 0
        for d, (dx, dy) in enumerate(DIR_VEC):
            if d == UP and not vertical_seen:
                continue
            p = (x + dx, y + dy)
            s = last.get(p)
            if s is not None and t + 1 - s <= k:
                continue
            last[p] = t + 1
            total += rec(x + dx, y + dy, t + 1, vertical_seen or d in (UP, DOWN))
            if s is None:
                del last[p]
            else:
                last[p] = s
        return total

    return rec(1, 0, 1, False)


def test_loop_free_equals_canonical_when_window_covers():
    # forbidding loops up to length k is no restriction while n < k
    for n in range(1, 9):
        assert count_loop_free(n, 8) == count_canonical(n)
        assert count_loop_free(n, 10) == count_canonical(n)


def test_loop_free_admits_closures_beyond_window():
    # a revisit closes a cycle of at most n edges, so a window only ever adds
    # returning walks on top of the self-avoiding ones; the first extras are
    # the (k+2)-cycles
    for k in (4, 6):
        for n in range(1, k + 2):
            assert count_loop_free(n, k) == count_canonical(n)
        assert count_loop_free(k + 2, k) > count_canonical(k + 2)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_loop_free_shrinks_as_window_grows(k):
    # a wider window forbids more of the returning walks
    for n in range(1, 10):
        assert count_loop_free(n, k) >= count_loop_free(n, k + 2)


def test_line_extension_small_values():
    # raw continuations of the half-line, both vertical senses kept
    assert count_line_extensions(4, 0) == 1
    assert count_line_extensions(4, 1) == 3
    assert count_line_extensions(4, 2) == 9
    for k in (4, 6, 8):
        for n in range(0, 7):
            ext = count_line_extensions(k, n)
            assert ext >= 1
            assert ext <= 3 ** n


def test_line_continuations_reject_negative_length():
    with pytest.raises(ValueError):
        count_line_continuations(4, -1)


def test_never_undercount_rejects_negative_length(g4_baseline):
    with pytest.raises(ValueError):
        never_undercount_check(g4_baseline, -1)


def test_line_extensions_match_continuations_when_window_covers():
    # with a window wider than the whole walk, loop-freedom is plain
    # self-avoidance; continuations aggregate every length from 1 up to n
    for n in range(0, 7):
        total = sum(count_line_extensions(12, i) for i in range(1, n + 1))
        assert total == count_line_continuations(12, n)


@pytest.mark.parametrize("k", [6, 8])
def test_default_graph_covers_every_continuation(k):
    # planar A and B drop some continuations of the stored graph; each one
    # is sealed in, so it is followed on and none is a witness
    checked, witnesses = never_undercount_check(build(k), 10)
    assert witnesses == []
    assert checked == count_line_continuations(k, 10)


def test_dropped_open_move_is_a_witness(monkeypatch):
    g = build(6)
    real = oracle.allowed_moves
    monkeypatch.setattr(oracle, "allowed_moves",
                        lambda w, a, b: [m for m in real(w, a, b) if m != RIGHT])
    _, witnesses = never_undercount_check(g, 4)
    assert bytes([RIGHT]) in witnesses  # the straight step is never sealed
