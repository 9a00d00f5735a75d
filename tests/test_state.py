import pytest
from conftest import from_text, saw_dirs
from hypothesis import given

from sawbound.geometry import (
    DIR_VEC,
    DOWN,
    REFLECT_TABLE,
    RIGHT,
    ROT_SUB,
    UP,
)
from sawbound.state import (
    Walk,
    canonical,
    line_walk,
    points_of,
    size_loop,
)


def test_dirs_points_round_trip():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1)]
    dirs = bytes([RIGHT, UP, 3, 3])
    hx, hy = pts[-1]
    assert [(x + hx, y + hy) for x, y in points_of(dirs)] == pts


@given(saw_dirs(1, 14))
def test_points_of_anchors_a_at_head(dirs):
    pts = points_of(dirs)
    assert pts[-1] == (0, 0)
    steps = [(qx - px, qy - py) for (px, py), (qx, qy) in zip(pts, pts[1:])]
    assert steps == [DIR_VEC[c] for c in dirs]


def test_size_loop_examples():
    # a straight walk doubles, a closed-up hook stays near its step count
    assert size_loop(points_of(bytes([RIGHT] * 5))) == 10
    assert size_loop(points_of(from_text("RUL"))) == 4
    assert points_of(bytes([RIGHT, RIGHT]))[0] == (-2, 0)


@given(saw_dirs(1, 14))
def test_canonical_idempotent(dirs):
    c = canonical(dirs)
    assert canonical(c) == c


@given(saw_dirs(1, 14))
def test_canonical_constant_on_symmetry_orbit(dirs):
    c = canonical(dirs)
    for r in range(4):
        rotated = dirs.translate(ROT_SUB[r])
        assert canonical(rotated) == c
        assert canonical(rotated.translate(REFLECT_TABLE)) == c


@given(saw_dirs(1, 14))
def test_canonical_frame_shape(dirs):
    c = canonical(dirs)
    assert c[-1] == RIGHT
    vertical = next((d for d in c if d in (UP, DOWN)), None)
    assert vertical in (None, DOWN)


def test_walk_basics():
    w = Walk(from_text("RRU"))
    assert w.points[-1] == (0, 0)
    assert w.points[0] == (-2, -1)
    assert (-1, -1) in w.vset
    assert (5, 5) not in w.vset
    assert size_loop(w.points) == 6


def test_walk_stepped():
    w = line_walk(3)
    nxt = w.stepped(UP)
    assert nxt.points[-1] == (0, 1)
    assert nxt.dirs == w.dirs + bytes([UP])
    assert len(nxt.points) == len(w.points) + 1
    with pytest.raises(ValueError):
        w.stepped(3)  # straight back onto the line


def test_line_walk():
    w = line_walk(5)
    assert w.dirs == bytes([RIGHT] * 5)
    assert w.points[0] == (-5, 0)
    assert size_loop(w.points) == 10
