"""Acceptance battery: one test and one printed PASS/FAIL line per criterion,
then the pinned files of the k=14 and k=16 graphs it builds.

Heavy graphs are built once per module and shared. Criterion 3 runs at k=14
by default; set SAWBOUND_ABLATION_K=18 to run the full-size grid, which also
switches on the absolute-value comparison (roughly 25 minutes).
"""

import itertools
import os
import time

import pytest
from conftest import ACCEPTANCE_LINES, BASELINE, dense, dense_spectral_radius
from test_oracle import count_canonical, count_saw, count_saw_frontier

from sawbound.automaton import (
    GraphChecksumError,
    GraphMagicError,
    GraphTruncatedError,
    GraphVersionError,
    build,
    load_graph,
    save_graph,
)
from sawbound.cli import format_bound
from sawbound.oracle import count_line_continuations, never_undercount_check, soundness_check
from sawbound.simplify import Options
from sawbound.spectral import choice_matrix, first_choice, optimize

K4_MATRIX = ((1, 2, 0), (1, 1, 1), (1, 1, 0))

K14_BOUND, K14_STATES = 2.682775686, 20313
K16_BOUND, K16_STATES = 2.677352271, 95637

# reference bounds for the ablation chain rows at k=18
K18_TABLE = {
    (0, 0, 0): 2.678392579,
    (0, 1, 0): 2.676625088,
    (0, 1, 1): 2.674975842,
    (1, 1, 1): 2.673435562,
}
CHAIN = ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1))

C2 = [4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932,
      881500, 2374444]
LOWER = 2.62002


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def timed_solve(k: int, opts: Options = Options()):
    t0 = time.perf_counter()
    g = build(k, opts)
    res = optimize(g)
    return g, res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def k4_exact():
    return timed_solve(4, BASELINE)


@pytest.fixture(scope="module")
def sweep():
    return {k: timed_solve(k) for k in (6, 8, 10, 12)}


@pytest.fixture(scope="module")
def k14():
    return timed_solve(14)


@pytest.fixture(scope="module")
def k16():
    return timed_solve(16)


def test_criterion_1_k4_exactness(k4_exact):
    g, res, wall = k4_exact
    m = dense(choice_matrix(first_choice(g)))
    perms = [
        p
        for p in itertools.permutations(range(3))
        if all(m[p[i], p[j]] == K4_MATRIX[i][j] for i in range(3) for j in range(3))
    ] if len(g) == 3 else []
    ok = len(g) == 3 and bool(perms) and abs(res.lambda_hi - 2.8312) < 5e-4 and wall < 1.0
    report(1, "k=4 exactness", ok,
           f"{len(g)} states, matrix form {'matched' if perms else 'unmatched'}, "
           f"bound {format_bound(res.lambda_hi)}, {wall:.2f}s")


def test_criterion_2_table_reproduction(k14, k16):
    parts = []
    ok = True
    for (g, res, wall), bound, states, budget, label in (
        (k14, K14_BOUND, K14_STATES, 120.0, "k=14"),
        (k16, K16_BOUND, K16_STATES, 1200.0, "k=16"),
    ):
        good = (
            abs(res.lambda_hi - bound) < 5e-3
            and abs(len(g) - states) <= 0.25 * states
            and wall < budget
        )
        ok = ok and good
        parts.append(f"{label} {format_bound(res.lambda_hi)} ({len(g)} states, {wall:.0f}s)")
    report(2, "reference bounds at k=14 and k=16", ok, "; ".join(parts))


def test_criterion_3_ablation_ordering(k14):
    k = 18 if os.environ.get("SAWBOUND_ABLATION_K") == "18" else 14
    bounds = {}
    for line_like, lacking, two_pass in CHAIN:
        opts = Options(
            line_like=bool(line_like),
            lacking_simpl=bool(lacking),
            two_pass=bool(two_pass),
        )
        if k == 14 and opts == Options():  # the graph the k14 fixture solved
            bounds[(line_like, lacking, two_pass)] = k14[1].lambda_hi
        else:
            bounds[(line_like, lacking, two_pass)] = optimize(build(k, opts)).lambda_hi
    seq = [bounds[c] for c in CHAIN]
    ok = all(a > b for a, b in zip(seq, seq[1:]))
    detail = f"k={k} chain " + " > ".join(format_bound(b) for b in seq)
    if k == 18:
        worst = max(abs(bounds[c] - K18_TABLE[c]) for c in CHAIN)
        ok = ok and worst < 5e-3
        detail += f", worst table gap {worst:.2e}"
    report(3, "ablation ordering", ok, detail)


def test_criterion_4_soundness():
    total = 0
    for k in (4, 6, 8, 10):
        total += len(soundness_check(build(k)))
    report(4, "soundness", total == 0, f"{total} violations for k <= 10")


def test_criterion_5_never_undercount():
    lost = 0
    followed = []
    complete = True
    for k in (4, 6, 8, 10):
        cover = build(k, Options(planar_a=False))
        checked, witnesses = never_undercount_check(cover, 12)
        lost += len(witnesses)
        complete = complete and checked == count_line_continuations(k, 12)
        followed.append(checked)
    ok = lost == 0 and complete
    report(5, "never-undercount", ok,
           f"0 rejects over {'/'.join(map(str, followed))} continuations (k=4..10, n<=12)"
           if ok else f"{lost} rejects, complete={complete}")


def test_criterion_6_oracle_consistency():
    dfs = [count_saw(n) for n in range(1, 15)]
    bfs = [count_saw_frontier(n) for n in range(1, 15)]
    canon = [count_canonical(n) for n in range(2, 15)]
    submult = all(
        C2[m + n - 1] <= C2[m - 1] * C2[n - 1]
        for m in range(1, 15)
        for n in range(1, 15 - m)
    )
    ok = (
        dfs == C2
        and bfs == C2
        and all(c == 8 * d - 4 for c, d in zip(C2[1:], canon))
        and submult
    )
    report(6, "oracle self-consistency", ok,
           f"two enumerators agree through n=14, c(n) = 8 d(n) - 4, submultiplicative")


def test_criterion_7_certificates(k4_exact, sweep, k14, k16):
    solved = [k4_exact] + list(sweep.values()) + [k14, k16]
    audited = 0
    worst_gap = 0.0
    worst_excess = -1.0
    ok = True
    for g, res, _ in solved:
        ok = ok and res.converged
        worst_gap = max(worst_gap, res.lambda_hi - res.lambda_lo)
        if len(g) <= 2000:
            audited += 1
            rho = dense_spectral_radius(choice_matrix(res.choices))
            worst_excess = max(worst_excess, rho - res.lambda_hi)
    ok = ok and worst_gap < 1e-10 and worst_excess < 1e-9
    report(7, "spectral certificates", ok,
           f"{audited} graphs <= 2000 states dense-checked, "
           f"max dense excess {worst_excess:.2e}, max gap {worst_gap:.2e}")


def test_criterion_8_monotonicity(sweep, k14, k16):
    bounds = [sweep[k][1].lambda_hi for k in (6, 8, 10, 12)]
    bounds += [k14[1].lambda_hi, k16[1].lambda_hi]
    ok = all(a >= b for a, b in zip(bounds, bounds[1:])) and all(
        b >= LOWER for b in bounds
    )
    report(8, "monotone sweep", ok,
           "k=6..16: " + " >= ".join(format_bound(b) for b in bounds))


def test_criterion_9_persistence(sweep, tmp_path):
    g = sweep[10][0]
    first = tmp_path / "g.graph"
    save_graph(g, str(first))
    loaded = load_graph(str(first))
    second = tmp_path / "again.graph"
    save_graph(loaded, str(second))
    identical = loaded == g and first.read_bytes() == second.read_bytes()

    blob = bytearray(first.read_bytes())
    trials = (
        (GraphMagicError, b"WRNG" + bytes(blob[4:])),
        (GraphVersionError, blob[:4] + b"\xff\x00" + bytes(blob[6:])),
        (GraphTruncatedError, bytes(blob[:-3])),
        (GraphTruncatedError, bytes(blob) + b"\x00" * 8),
        (GraphChecksumError, bytes(blob[:23]) + bytes([blob[23] ^ 0xFF]) + bytes(blob[24:])),
    )
    rejected = 0
    bad = tmp_path / "bad.graph"
    for exc, data in trials:
        bad.write_bytes(data)
        try:
            load_graph(str(bad))
        except exc:
            rejected += 1
    ok = identical and rejected == len(trials)
    report(9, "persistence", ok,
           f"round-trip bit-identical, {rejected}/{len(trials)} corruptions "
           f"rejected with their own error class")


# blake2b trailers of the default graph files at k=14 and k=16;
# test_automaton pins k=6..12 and the k=14 one-pass file
FRONTIER_TRAILERS = {14: "65b94fd5309ab399", 16: "62c99aed873d9b39"}


def test_frontier_graph_files_pinned(k14, k16, tmp_path):
    path = tmp_path / "g.graph"
    for k, (g, _, _) in ((14, k14), (16, k16)):
        save_graph(g, str(path))
        assert path.read_bytes()[-8:].hex() == FRONTIER_TRAILERS[k]
