"""Shared fixtures and helpers. Graph builds are cached per session to keep reruns fast."""

import hashlib

import numpy as np
import pytest
from hypothesis import strategies as st

from sawbound.automaton import build
from sawbound.geometry import DIR_VEC, turn_sign
from sawbound.simplify import Options

# one line per acceptance criterion, echoed after the run summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def dense(M) -> np.ndarray:
    """The entries of anything with `shape` and `@`, one column per unit vector."""
    return np.column_stack([M @ e for e in np.eye(M.shape[1])])


def dense_spectral_radius(M) -> float:
    """Exact spectral radius of a matrix by dense eigensolve; for modest
    sizes only."""
    return float(np.abs(np.linalg.eigvals(dense(M))).max())


def resealed(blob: bytearray) -> bytes:
    """The graph file with its trailer recomputed, so that only the structure is bad."""
    body = bytes(blob[:-8])
    return body + hashlib.blake2b(body, digest_size=8).digest()


def from_text(text: str) -> bytes:
    """Direction codes of a step string such as "RRRRRU", read from B."""
    return bytes("DRUL".index(ch) for ch in text)


@st.composite
def saw_dirs(draw, min_steps, max_steps):
    """Direction strings of random self-avoiding walks of min_steps to
    max_steps steps, shorter where a walk traps itself."""
    n = draw(st.integers(min_steps, max_steps))
    pts = [(0, 0)]
    occupied = {(0, 0)}
    out = bytearray()
    for _ in range(n):
        x, y = pts[-1]
        free = [
            d for d, (dx, dy) in enumerate(DIR_VEC) if (x + dx, y + dy) not in occupied
        ]
        if not free:
            break
        d = draw(st.sampled_from(free))
        out.append(d)
        dx, dy = DIR_VEC[d]
        pts.append((x + dx, y + dy))
        occupied.add(pts[-1])
    return bytes(out)


def corner_sum(dirs: bytes, i: int, j: int) -> int:
    """Algebraic corner count over the walk portion from vertex i to vertex j,
    turn by turn: the reference for `legality.turn_prefix`."""
    return sum(turn_sign(dirs[t - 1], dirs[t]) for t in range(i + 1, j))


# every rule and the second pass off; the planar move rules stay on
BASELINE = Options(
    line_like=False,
    lacking_simpl=False,
    small_bridges=False,
    large_bridges=False,
    small_loops=False,
    two_pass=False,
)


@pytest.fixture(scope="session")
def g4_baseline():
    return build(4, BASELINE)


@pytest.fixture(scope="session")
def g10_default():
    return build(10)


@pytest.fixture(scope="session")
def g14_one_pass():
    return build(14, Options(two_pass=False))
