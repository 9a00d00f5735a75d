"""Power iteration bounds, selection updates, and certificate checks."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import dense, dense_spectral_radius
from hypothesis import example, given, settings, strategies as st

import sawbound
from sawbound import spectral
from sawbound.automaton import StateGraph, build
from sawbound.simplify import Options
from sawbound.spectral import (
    MAX_ITER,
    MAX_ROUNDS,
    PowerResult,
    choice_matrix,
    first_choice,
    optimize,
    power_iterate,
    reselect,
)

K4_MATRIX = np.array([[1, 2, 0], [1, 1, 1], [1, 1, 0]], dtype=float)


def fake_graph(children):
    """A graph over placeholder states from per-state (Up, Right, Down) id lists."""
    n = len(children)
    segments = [ids for lists in children for ids in lists]
    offsets = np.cumsum([0] + [len(ids) for ids in segments])
    ids = [c for seg in segments for c in seg]
    return StateGraph(4, Options(), [b"\x01"] * n, [0] * n, offsets, ids)


def test_power_iterate_known_matrix():
    res = power_iterate(K4_MATRIX)
    assert res.converged
    assert res.lambda_hi - res.lambda_lo < 1e-10
    assert abs(res.lambda_hi - 2.8312) < 5e-4
    rho = dense_spectral_radius(K4_MATRIX)
    assert res.lambda_lo - 1e-9 <= rho <= res.lambda_hi + 1e-9


def test_certificate_reproducible_from_vector():
    res = power_iterate(K4_MATRIX)
    v = res.vector
    ratios = (K4_MATRIX @ v)[v > 0] / v[v > 0]
    assert float(ratios.max()) == res.lambda_hi
    assert float(ratios.min()) == res.lambda_lo


def test_power_iterate_nilpotent_chain():
    M = np.array([[0, 1], [0, 0]], dtype=float)
    res = power_iterate(M)
    assert res.converged
    assert res.lambda_hi == 0.0


def test_power_iterate_periodic_matrix_does_not_converge():
    # the iterate alternates between two vectors, so the gap never closes:
    # the run ends at MAX_ITER, its bounds still bracketing the radius
    res = power_iterate(np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert not res.converged
    assert res.iterations == MAX_ITER
    assert res.lambda_lo <= np.sqrt(2) <= res.lambda_hi


def reference_power_iterate(M) -> PowerResult:
    """power_iterate with its ratios gathered through boolean masks: the
    reference its mask-free loop must match bit for bit."""
    v = np.ones(M.shape[0])
    for it in range(1, spectral.MAX_ITER + 1):
        w = M @ v
        pos = v > 0
        ratios = w[pos] / v[pos]
        hi = float(ratios.max())
        lo = float(ratios.min())
        if hi - lo < spectral.TOL:
            return PowerResult(v, lo, hi, it, True)
        peak = w.max()
        if peak <= 0.0:
            return PowerResult(v, 0.0, hi, it, True)
        v = w / peak
    return PowerResult(v, lo, hi, spectral.MAX_ITER, False)


def assert_power_iterate_matches_reference(M) -> PowerResult:
    got, want = power_iterate(M), reference_power_iterate(M)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert (got.lambda_lo, got.lambda_hi) == (want.lambda_lo, want.lambda_hi)
    assert got.vector.tobytes() == want.vector.tobytes()
    return got


# state 2 is a dead end, state 3 reaches only it and state 1 only those
# two, so the iterate dies there in turn; states 0 and 4 keep it alive
DEAD_ENDS = np.array([[0, 1, 4], [2, 3, -1], [-1, -1, -1], [-1, 2, -1], [0, 0, 1]],
                     dtype=np.int32)


@pytest.mark.parametrize("M", [
    K4_MATRIX,
    np.array([[0.0, 1.0], [0.0, 0.0]]),  # nilpotent: the iterate dies
    np.array([[0.0, 2.0], [1.0, 0.0]]),  # periodic: runs to MAX_ITER
    choice_matrix(DEAD_ENDS),
], ids=["k4", "nilpotent", "periodic", "dead-ends"])
def test_power_iterate_matches_masked_reference(M):
    with mock.patch.object(spectral, "MAX_ITER", 2000):
        res = assert_power_iterate_matches_reference(M)
    if isinstance(M, spectral.SelectionMatrix):
        assert res.converged and np.count_nonzero(res.vector == 0) == 3


@st.composite
def dead_end_selections(draw):
    """Selections of up to eight states where half the picks are blocked, so
    dead-end states, and states that reach only them, are common."""
    n = draw(st.integers(min_value=1, max_value=8))
    pick = st.one_of(st.just(-1), st.integers(min_value=0, max_value=n - 1))
    rows = draw(st.lists(st.lists(pick, min_size=3, max_size=3), min_size=n, max_size=n))
    return choice_matrix(np.array(rows, dtype=np.int32))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    dead_end_selections(),
    st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=3, max_size=3)
    .map(lambda rows: np.array(rows, dtype=float)),
))
def test_power_iterate_matches_masked_reference_on_random_matrices(M):
    # a periodic draw runs to the cap, which is lowered to keep it quick
    with mock.patch.object(spectral, "MAX_ITER", 500):
        assert_power_iterate_matches_reference(M)


def test_first_choice_and_blocked_moves():
    g = fake_graph([([1], [1, 0], []), ([0], [], [1])])
    choices = first_choice(g)
    assert choices.dtype == np.int32
    assert choices.tolist() == [[1, 1, -1], [0, -1, 1]]


def test_choice_matrix_accumulates_duplicates():
    g = fake_graph([([1], [1, 0], []), ([0], [], [1])])
    m = dense(choice_matrix(first_choice(g)))
    assert m[0, 1] == 2  # two moves of state 0 select the same child
    assert m[1, 0] == 1 and m[1, 1] == 1
    assert m.sum() == 4


@st.composite
def selections(draw):
    """Up to eight states with picks in -1..n-1, so repeated and blocked
    picks are common, a nonnegative float vector of one magnitude and an
    int64 vector."""
    n = draw(st.integers(min_value=1, max_value=8))
    picks = st.integers(min_value=-1, max_value=n - 1)
    choices = np.array(draw(st.lists(st.lists(picks, min_size=3, max_size=3),
                                     min_size=n, max_size=n)), dtype=np.int32)
    scale = draw(st.sampled_from([1e-300, 1e-9, 1.0, 3e7, 1e300]))
    v = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=10.0),
                               min_size=n, max_size=n))) * scale
    u = np.array(draw(st.lists(st.integers(min_value=-2**61, max_value=2**61),
                               min_size=n, max_size=n)), dtype=np.int64)
    return choices, v, u


@settings(max_examples=300, deadline=None)
@given(selections())
def test_selection_product_rounds_as_merged_entries(case):
    # the reference adds count * v[c] over each row's distinct picks in
    # ascending order from 0.0, the rounding of a sparse product whose
    # duplicate entries are merged
    choices, v, u = case
    n = len(choices)
    ref = []
    for row in choices.tolist():
        total = 0.0
        for c in sorted(set(row) - {-1}):
            total += row.count(c) * v[c]
        ref.append(total)
    M = choice_matrix(choices)
    assert M.shape == (n, n)
    assert (M @ v).tobytes() == np.array(ref).tobytes()
    counts = np.zeros((n, n), dtype=np.int64)
    for s, row in enumerate(choices.tolist()):
        for c in row:
            if c >= 0:
                counts[s, c] += 1
    assert (M @ u).dtype == np.int64
    assert np.array_equal(M @ u, counts @ u)


def test_solver_runs_without_scipy():
    # importing scipy fails in the child, so any use of it in the package shows
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import sawbound\n"
        "res = sawbound.optimize(sawbound.build(6))\n"
        "print(f'{res.lambda_hi:.9f}')\n"
    )
    src = str(Path(sawbound.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "2.721548087"

def test_reselect_minimizes_weight_then_id():
    # the incumbent 3 is the heaviest child, so the pick is made afresh
    g = fake_graph([([3, 2, 1], [], []), ([], [], []), ([], [], []), ([], [], [])])
    prev = np.array([[3, -1, -1]] + [[-1, -1, -1]] * 3, dtype=np.int32)
    light_last = np.array([0.0, 1.0, 0.5, 2.0])
    assert reselect(g, light_last, prev)[0].tolist() == [2, -1, -1]
    tie = np.array([0.0, 1.0, 1.0, 2.0])
    assert reselect(g, tie, prev)[0].tolist() == [1, -1, -1]


def test_reselect_with_every_move_blocked():
    # no live segment, so both segment reductions see empty input
    g = fake_graph([([], [], []), ([], [], [])])
    blocked = np.full((2, 3), -1, dtype=np.int32)
    picks = reselect(g, np.array([0.5, 1.0]), blocked)
    assert picks.dtype == np.int32
    assert picks.tolist() == [[-1, -1, -1], [-1, -1, -1]]


def test_reselect_all_zero_weights_takes_smallest_id():
    # every entry but the heavier incumbent 3 ties at zero, so the smallest
    # id wins
    g = fake_graph([([2, 1, 0, 3], [1, 1, 3], []), ([0, 2, 3], [], [3, 2]),
                    ([2, 3], [3, 1, 0], []), ([], [], [])])
    prev = np.array([[3, 3, -1], [3, -1, 3], [3, 3, -1], [-1, -1, -1]], dtype=np.int32)
    v = np.array([0.0, 0.0, 0.0, 1.0])
    assert reselect(g, v, prev).tolist() == [
        [0, 1, -1], [0, -1, 2], [2, 0, -1], [-1, -1, -1]]


@pytest.mark.parametrize("least", [1.0, 3e-7, 0.0])
def test_reselect_keeps_incumbent_within_tol(least):
    # children 1 and 2 weigh exactly `least`; the incumbent 3 is kept up to
    # a relative TOL above that and replaced by the least id one float beyond
    g = fake_graph([([3, 2, 1], [], []), ([], [], []), ([], [], []), ([], [], [])])
    prev = np.array([[3, -1, -1]] + [[-1, -1, -1]] * 3, dtype=np.int32)
    edge = least * (1 + spectral.TOL)
    for held, want in ((least, 3), (edge, 3), (np.nextafter(edge, np.inf), 1)):
        v = np.array([5.0, least, least, held])
        assert reselect(g, v, prev)[0].tolist() == [want, -1, -1]


def reference_reselect(g: StateGraph, v: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """reselect one segment at a time: keep the incumbent unless it is heavier
    than the least weight by a relative TOL, else take the lightest, least id."""
    out = np.full((len(g), 3), -1, dtype=np.int32)
    for s in range(len(g)):
        for j in range(3):
            seg = g.children(s, j).tolist()
            if seg:
                least = min(v[c] for c in seg)
                held = prev[s, j]
                keep = v[held] <= least * (1 + spectral.TOL)
                out[s, j] = held if keep else min(seg, key=lambda c: (v[c], c))
    return out


def test_reselect_in_runs_matches_per_segment_reference(g10_default, monkeypatch):
    # spans of 1 to 64 segments: a span that cut a segment would pick from
    # only part of that segment's children, and one that misplaced its
    # incumbents would keep another segment's pick
    g = g10_default
    rng = np.random.default_rng(16)
    v = np.round(rng.random(len(g)), 1)  # exact ties and zeros
    assert np.count_nonzero(v == 0) > 0
    prev = np.full((len(g), 3), -1, dtype=np.int32)
    for s in range(len(g)):
        for j in range(3):
            seg = g.children(s, j)
            if len(seg):
                prev[s, j] = rng.choice(seg)
    ref = reference_reselect(g, v, prev)
    assert np.count_nonzero(ref == prev) < np.count_nonzero(prev >= 0)  # some switch
    for chunk in (1, 2, 5, 64):
        monkeypatch.setattr(spectral, "_RESELECT_CHUNK", chunk)
        assert np.array_equal(reselect(g, v, prev), ref)


@st.composite
def small_graphs(draw):
    """Up to six states, empty segments common, weights from a set of three
    values so that ties are frequent, and an incumbent pick per segment."""
    n = draw(st.integers(min_value=1, max_value=6))
    child = st.integers(min_value=0, max_value=n - 1)
    children = [
        tuple(draw(st.lists(child, max_size=4)) for _ in range(3)) for _ in range(n)
    ]
    v = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
    prev = [[draw(st.sampled_from(lst)) if lst else -1 for lst in lists] for lists in children]
    return children, v, np.array(prev, dtype=np.int32).reshape(n, 3)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
# blocked segments at the start and the end of the graph, and a blocked run
@example(([([], [1], [0, 1]), ([], [0], []), ([1, 0], [], [])],
          np.array([1.0, 0.5, 0.0]), np.array([[-1, 1, 0], [-1, 0, -1], [1, -1, -1]], np.int32)))
def test_array_selection_matches_per_list_reference(case):
    # spans of 1 to 8 segments start and end on blocked segments, and a span
    # whose last segment is blocked reads the inf slot
    children, v, prev = case
    g = fake_graph(children)
    n = len(children)
    heads = [[lst[0] if lst else -1 for lst in lists] for lists in children]
    picked = reference_reselect(g, v, prev).tolist()
    counts = np.zeros((n, n))
    for s, row in enumerate(picked):
        for c in row:
            if c >= 0:
                counts[s, c] += 1
    assert first_choice(g).tolist() == heads
    assert reselect(g, v, prev).tolist() == picked
    assert np.array_equal(dense(choice_matrix(reselect(g, v, prev))), counts)
    for chunk in range(1, 9):
        with mock.patch.object(spectral, "_RESELECT_CHUNK", chunk):
            assert reselect(g, v, prev).tolist() == picked


def test_optimize_tracks_best_round(g10_default):
    res = optimize(g10_default)
    assert res.converged
    assert res.lambda_hi == min(res.round_bounds)
    assert res.fixed_point and res.rounds_used <= MAX_ROUNDS
    assert res.rounds_used == len(res.round_bounds)
    # the kept selection must certify the reported bound against a dense solve
    rho = dense_spectral_radius(choice_matrix(res.choices))
    assert res.lambda_hi >= rho - 1e-9
    assert res.lambda_hi - res.lambda_lo < 1e-10


def test_optimize_ends_on_a_tol_round(g10_default):
    # loose rounds until the selection repeats, then rounds at TOL; only
    # those can be kept, and the kept vector certifies the bound bit for bit
    res = optimize(g10_default)
    tight = [gap < spectral.TOL for gap in res.round_gaps]
    assert tight[-1] and not tight[0]
    assert tight == sorted(tight)  # every loose round comes first
    assert all(gap < spectral.LOOSE_TOL for gap in res.round_gaps)
    assert res.lambda_hi - res.lambda_lo < spectral.TOL
    assert res.lambda_hi == min(b for b, t in zip(res.round_bounds, tight) if t)
    v = res.vector
    ratios = (choice_matrix(res.choices) @ v)[v > 0] / v[v > 0]
    assert float(ratios.max()) == res.lambda_hi


def test_optimize_ends_on_a_tol_round_when_the_loose_stage_runs_out(g10_default, monkeypatch):
    # the selection of g10_default first repeats in round 7; with three
    # rounds the last one runs at TOL anyway
    monkeypatch.setattr(spectral, "MAX_ROUNDS", 3)
    res = optimize(g10_default)
    assert res.rounds_used == 3
    assert [gap < spectral.TOL for gap in res.round_gaps] == [False, False, True]
    assert res.lambda_hi == res.round_bounds[-1]
    assert res.lambda_hi - res.lambda_lo < spectral.TOL


def test_optimize_never_keeps_a_loose_round(g10_default, monkeypatch):
    # even a loose round that certified a lower bound is not kept: its gap
    # is only below LOOSE_TOL
    power_iterate = spectral.power_iterate

    def lower_when_loose(M, tol=spectral.TOL):
        res = power_iterate(M, tol)
        if tol == spectral.LOOSE_TOL:
            res.lambda_hi -= 0.5
        return res

    monkeypatch.setattr(spectral, "power_iterate", lower_when_loose)
    res = optimize(g10_default)
    assert res.lambda_hi == res.round_bounds[-1]
    assert res.lambda_hi - res.lambda_lo < spectral.TOL


# line_like on, lacking_simpl off, one pass: at k=8 reselection by least
# weight, then least id, entered a cycle of period 3; keeping incumbents
# on ties, it now reaches a fixed point
CYCLING = Options(lacking_simpl=False, two_pass=False)

# No built graph is known to cycle at TOL: in exact arithmetic, a switch
# made from a selection's own Perron vector never raises the spectral
# radius. Here the first selection, (2, 2, 2) for state 0, alternates states
# 0 and 2 with period two, so its iterate never converges. After an even
# number of iterations (MAX_ITER is even) it is (1, 2/3, 1), so state 0's Up
# move takes child 1. That selection converges, to lambda^3 = 2 lambda + 2,
# and its vector sends the move back to child 2: a 2-cycle, in the loose
# stage and at TOL.
PERIOD_TWO = [([2, 1], [2, 0], [2]), ([2], [2], []), ([], [], [0])]


def test_optimize_stops_at_repeated_selection(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_ITER", 2000)  # even, as the real cap
    res = optimize(fake_graph(PERIOD_TWO))
    assert res.rounds_used == 4
    assert not res.fixed_point
    assert res.round_changes == [1, 1, 1, 1]
    assert res.round_iterations[::2] == [2000, 2000]
    gaps = res.round_gaps
    assert gaps[0] == gaps[2] == 2.0  # the periodic selection: ratios 3 and 1
    assert spectral.TOL <= gaps[1] < spectral.LOOSE_TOL and gaps[3] < spectral.TOL
    assert res.lambda_hi == res.round_bounds[3]
    assert res.converged
    assert abs(res.lambda_hi ** 3 - 2 * res.lambda_hi - 2) < 1e-9
    assert res.choices.tolist() == [[1, 2, 2], [2, 2, -1], [-1, -1, 0]]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_optimize_memory_does_not_grow_with_rounds(g14_one_pass):
    # 11 rounds over 24,818 states; no graph at k <= 12 runs 10 rounds.
    # Beyond one round's working set optimize keeps the best selection and
    # its vector (20 bytes per state) and a few hundred bytes per round,
    # which small graphs are too few states to absorb within two selections
    g = g14_one_pass
    assert optimize(g).rounds_used >= 10

    def one_round():
        choices = first_choice(g)
        reselect(g, power_iterate(choice_matrix(choices)).vector, choices)

    selection = 3 * 4 * len(g)  # bytes of an int32 (n, 3) selection
    assert _traced_peak(lambda: optimize(g)) - _traced_peak(one_round) < 2 * selection


def test_reselect_spans_bound_its_memory(g10_default, monkeypatch):
    # both peaks count the (n, 3) output; one span of every segment holds
    # the span's weights, minima and masks at once, short spans hold little
    g = g10_default
    choices = first_choice(g)
    v = np.random.default_rng(24).random(len(g))

    def peak(chunk):
        monkeypatch.setattr(spectral, "_RESELECT_CHUNK", chunk)
        return _traced_peak(lambda: reselect(g, v, choices))

    # k=10: about 47 KB against 383 KB, the output itself 25 KB
    assert 4 * peak(64) < peak(3 * len(g))


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


# blake2b of the certificate vector and int32 selection, and the rounds
# used; any change to the solver's arithmetic or tie-break shows here
OPTIMIZE_PINS = {
    "6": (6, Options(), "42fc579f3a29683e", "b9d380323193c707", 6),
    "8": (8, Options(), "88d1782c5aab48be", "09401a7179ba127f", 6),
    "8-cycling": (8, CYCLING, "95bf48f4c96f9cf6", "b1e92e312430839f", 9),
    "10": (10, Options(), "f1e49cb08db464d2", "0234737b12f42eba", 8),
}


@pytest.mark.parametrize("name", OPTIMIZE_PINS)
def test_optimize_pinned(name):
    k, opts, *pins = OPTIMIZE_PINS[name]
    res = optimize(build(k, opts))
    assert res.choices.dtype == np.int32
    got = [_digest(res.vector.tobytes()), _digest(res.choices.tobytes()), res.rounds_used]
    assert got == pins


def test_certificate_zero_set_is_closed_and_acyclic():
    # the max ratio over v's support bounds the radius only if the states
    # with v = 0 pick only such states and no cycle runs among them: Kahn's
    # sort must then remove every zero state
    zeros = 0
    for k in (10, 12):
        for opts in (Options(), Options(two_pass=False)):
            res = optimize(build(k, opts))
            picks = {s: [c for c in res.choices[s].tolist() if c >= 0]
                     for s in np.flatnonzero(res.vector == 0).tolist()}
            zeros += len(picks)
            assert all(c in picks for out in picks.values() for c in out)
            indegree = dict.fromkeys(picks, 0)
            for out in picks.values():
                for c in out:
                    indegree[c] += 1
            ready = [s for s, d in indegree.items() if d == 0]
            removed = 0
            while ready:
                s = ready.pop()
                removed += 1
                for c in picks[s]:
                    indegree[c] -= 1
                    if indegree[c] == 0:
                        ready.append(c)
            assert removed == len(picks)
    assert zeros > 0


@pytest.mark.parametrize("opts, iterations, changes", [
    # a fixed point: the last reselection changes nothing
    (Options(), [22, 29, 31, 31, 31, 49], [333, 235, 49, 6, 0, 0]),
    # the former period-3 cycle settles too
    (CYCLING, [23, 28, 31, 31, 31, 31, 31, 31, 51], [351, 257, 63, 8, 4, 2, 1, 0, 0]),
], ids=["fixed-point", "cycling"])
def test_optimize_round_telemetry(opts, iterations, changes):
    res = optimize(build(8, opts))
    assert res.round_iterations == iterations
    assert res.round_changes == changes
    assert len(changes) == res.rounds_used
    assert res.fixed_point == (changes[-1] == 0)
    # the loose stage ends at its fixed point, and one round at TOL confirms it
    assert [gap < spectral.TOL for gap in res.round_gaps] == [False] * (len(changes) - 1) + [True]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_converged_bounds_bracket_dense_radius(rows):
    M = np.array(rows, dtype=float)
    res = power_iterate(M)
    if not res.converged:
        return
    rho = dense_spectral_radius(M)
    assert res.lambda_hi >= rho - 1e-6
    assert res.lambda_lo <= rho + 1e-6
