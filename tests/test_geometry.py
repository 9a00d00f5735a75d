import pytest
from conftest import turn_sign

from sawbound.geometry import (
    DIR_VEC,
    DOWN,
    LEFT,
    REFLECT_TABLE,
    RIGHT,
    ROT_SUB,
    TURN_SIGN,
    UP,
    l1_distance,
    linf_distance,
    reverse,
)


def test_direction_tables_agree():
    assert (DOWN, RIGHT, UP, LEFT) == (0, 1, 2, 3)
    assert DIR_VEC[DOWN] == (0, -1)
    assert DIR_VEC[UP] == (0, 1)
    assert DIR_VEC[RIGHT] == (1, 0)
    assert DIR_VEC[LEFT] == (-1, 0)


def test_reverse():
    for c in range(4):
        assert reverse(reverse(c)) == c
        vx, vy = DIR_VEC[c]
        assert DIR_VEC[reverse(c)] == (-vx, -vy)
        assert reverse(c) == c ^ 2  # the form the bridge scans test bytes with


def test_metrics():
    assert l1_distance((0, 0), (3, -4)) == 7
    assert linf_distance((0, 0), (3, -4)) == 4
    assert l1_distance((1, 1), (1, 1)) == 0


def test_turn_sign_values():
    # right (clockwise) turns are +1
    assert turn_sign(UP, RIGHT) == 1
    assert turn_sign(RIGHT, DOWN) == 1
    assert turn_sign(DOWN, LEFT) == 1
    assert turn_sign(LEFT, UP) == 1
    # left turns are -1
    assert turn_sign(RIGHT, UP) == -1
    assert turn_sign(UP, LEFT) == -1
    for c in range(4):
        assert turn_sign(c, c) == 0
        with pytest.raises(ValueError):
            turn_sign(c, reverse(c))


def test_turn_sign_table_matches_turn_sign():
    # all 16 code pairs: the table read at outgoing - incoming gives the sign,
    # and a reversal gets no sign
    assert len(TURN_SIGN) == 4
    for a in range(4):
        for b in range(4):
            if b == reverse(a):
                assert TURN_SIGN[b - a] is None
            else:
                assert TURN_SIGN[b - a] == turn_sign(a, b)


def test_clockwise_loop_sums_to_four():
    loop = [RIGHT, DOWN, LEFT, UP, RIGHT]
    assert sum(turn_sign(a, b) for a, b in zip(loop, loop[1:])) == 4


def test_rotation_tables_match_transform():
    # ROT_SUB[r] must turn each direction's vector clockwise r quarter turns,
    # (x, y) -> (y, -x) per turn; REFLECT_TABLE must map (x, y) to (x, -y)
    for r in range(4):
        for c in range(4):
            x, y = DIR_VEC[c]
            for _ in range(r):
                x, y = y, -x
            assert DIR_VEC[ROT_SUB[r][c]] == (x, y)
    for c in range(4):
        x, y = DIR_VEC[c]
        assert DIR_VEC[REFLECT_TABLE[c]] == (x, -y)
    # non-direction bytes pass through untouched so packed keys stay stable
    assert ROT_SUB[1][200] == 200
    assert REFLECT_TABLE[77] == 77
