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
from hypothesis import given, settings, strategies as st

import sawbound
from sawbound import spectral
from sawbound.automaton import StateGraph, build
from sawbound.simplify import Options
from sawbound.spectral import (
    MAX_ITER,
    MAX_ROUNDS,
    LiveSegments,
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
    g = fake_graph([([2, 1], [], []), ([], [], [])] + [([], [], [])])
    light_last = np.array([0.0, 1.0, 0.5])
    assert reselect(LiveSegments(g), light_last)[0].tolist() == [2, -1, -1]
    tie = np.array([0.0, 1.0, 1.0])
    assert reselect(LiveSegments(g), tie)[0].tolist() == [1, -1, -1]


def test_reselect_with_every_move_blocked():
    # no live segment, so both segment reductions see empty input
    g = fake_graph([([], [], []), ([], [], [])])
    picks = reselect(LiveSegments(g), np.array([0.5, 1.0]))
    assert picks.dtype == np.int32
    assert picks.tolist() == [[-1, -1, -1], [-1, -1, -1]]


def test_reselect_all_zero_weights_takes_smallest_id():
    # every entry of every segment ties, so the smallest id wins
    g = fake_graph([([2, 1, 0], [1, 1], []), ([0, 2], [], [2]), ([2], [1, 0], [])])
    assert reselect(LiveSegments(g), np.zeros(3)).tolist() == [[0, 1, -1], [0, -1, 2], [2, 0, -1]]


def test_reselect_in_runs_matches_per_segment_reference(g10_default, monkeypatch):
    # runs of 1 to 64 ids: a run that cut a segment at its id budget would
    # pick from only part of that segment's children
    g = g10_default
    v = np.round(np.random.default_rng(16).random(len(g)), 1)  # exact ties and zeros
    assert np.count_nonzero(v == 0) > 0
    ref = np.full((len(g), 3), -1, dtype=np.int32)
    for s in range(len(g)):
        for j in range(3):
            seg = g.children(s, j)
            if len(seg):
                ref[s, j] = min(seg.tolist(), key=lambda c: (v[c], c))
    for chunk in (1, 2, 5, 64):
        monkeypatch.setattr(spectral, "_RESELECT_CHUNK", chunk)
        assert np.array_equal(reselect(LiveSegments(g), v), ref)


@st.composite
def small_graphs(draw):
    """Up to six states, empty segments common, and weights from a set of
    three values so that ties are frequent."""
    n = draw(st.integers(min_value=1, max_value=6))
    child = st.integers(min_value=0, max_value=n - 1)
    children = [
        tuple(draw(st.lists(child, max_size=4)) for _ in range(3)) for _ in range(n)
    ]
    v = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
    return children, v


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_array_selection_matches_per_list_reference(case):
    children, v = case
    g = fake_graph(children)
    n = len(children)
    heads = [[lst[0] if lst else -1 for lst in lists] for lists in children]
    lightest = [[min(lst, key=lambda c: (v[c], c)) if lst else -1 for lst in lists]
                for lists in children]
    counts = np.zeros((n, n))
    for s, row in enumerate(lightest):
        for c in row:
            if c >= 0:
                counts[s, c] += 1
    assert first_choice(g).tolist() == heads
    assert reselect(LiveSegments(g), v).tolist() == lightest
    assert np.array_equal(dense(choice_matrix(reselect(LiveSegments(g), v))), counts)


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


# line_like on, lacking_simpl off, one pass: at k=8 reselection enters a
# cycle of period 3 and never reaches a fixed point
CYCLING = Options(lacking_simpl=False, two_pass=False)


def test_optimize_stops_at_repeated_selection():
    res = optimize(build(8, CYCLING))
    assert res.rounds_used == 11
    assert not res.fixed_point
    assert f"{res.lambda_hi:.9f}" == "2.710271790"
    assert res.lambda_hi == min(res.round_bounds)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_optimize_memory_does_not_grow_with_rounds():
    # 12 rounds over 7,159 states. Beyond one round's working set optimize
    # keeps the best selection and its vector (20 bytes per state) and a few
    # hundred bytes per round, which the 603 states of CYCLING at k=8 are
    # too few to absorb within two selections
    g = build(12, Options(lacking_simpl=False, small_loops=False, planar_a=False,
                          two_pass=False))
    assert optimize(g).rounds_used >= 10

    def one_round():
        choices = first_choice(g)
        reselect(LiveSegments(g), power_iterate(choice_matrix(choices)).vector)

    selection = 3 * 4 * len(g)  # bytes of an int32 (n, 3) selection
    assert _traced_peak(lambda: optimize(g)) - _traced_peak(one_round) < 2 * selection


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


# blake2b of the certificate vector and int32 selection, and the rounds
# used; any change to the solver's arithmetic or tie-break shows here
OPTIMIZE_PINS = {
    "6": (6, Options(), "42fc579f3a29683e", "007de4bd00b8d34c", 5),
    "8": (8, Options(), "cd6192efce153570", "f409e2dd3afe6c5c", 7),
    "8-cycling": (8, CYCLING, "d1c91c53bd16783a", "5c722579d016ad13", 11),
    "10": (10, Options(), "ec5d514cfd4ee22b", "81ca56da075a93f4", 8),
}


@pytest.mark.parametrize("name", OPTIMIZE_PINS)
def test_optimize_pinned(name):
    k, opts, *pins = OPTIMIZE_PINS[name]
    res = optimize(build(k, opts))
    assert res.choices.dtype == np.int32
    got = [_digest(res.vector.tobytes()), _digest(res.choices.tobytes()), res.rounds_used]
    assert got == pins


@pytest.mark.parametrize("opts, iterations, changes", [
    # a fixed point: the last reselection changes nothing
    (Options(), [34, 46, 48, 49, 49, 49, 49], [392, 252, 61, 21, 2, 6, 0]),
    # the period-3 cycle: every reselection changes some pick
    (CYCLING, [34, 44, 51, 51, 52, 52, 52, 51, 51, 52, 51],
     [399, 276, 70, 16, 6, 5, 2, 7, 9, 5, 4]),
], ids=["fixed-point", "cycling"])
def test_optimize_round_telemetry(opts, iterations, changes):
    res = optimize(build(8, opts))
    assert res.round_iterations == iterations
    assert res.round_changes == changes
    assert len(changes) == res.rounds_used
    assert res.fixed_point == (changes[-1] == 0)


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
