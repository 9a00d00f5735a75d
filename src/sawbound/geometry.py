"""Integer lattice primitives: directions, metrics, turns, symmetry tables."""

from __future__ import annotations

Point = tuple[int, int]

# Direction codes, counterclockwise from Down. With this ordering a left
# (counterclockwise) turn is +1 mod 4 and a right (clockwise) turn is -1.
DOWN, RIGHT, UP, LEFT = 0, 1, 2, 3

DIR_VEC: tuple[Point, ...] = ((0, -1), (1, 0), (0, 1), (-1, 0))

# Translation tables for bytes of direction codes, used by canonicalization.
# ROT_SUB[r] rotates every code clockwise by r quarter turns; REFLECT_TABLE
# mirrors across the horizontal axis (swaps Up/Down, fixes Right/Left).
ROT_SUB = tuple(
    bytes((c - r) % 4 if c < 4 else c for c in range(256)) for r in range(4)
)
REFLECT_TABLE = bytes((2 - c) % 4 if c < 4 else c for c in range(256))


def reverse(c: int) -> int:
    return (c + 2) % 4


def l1_distance(p: Point, q: Point) -> int:
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def linf_distance(p: Point, q: Point) -> int:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def turn_sign(incoming: int, outgoing: int) -> int:
    """Sign of the turn between consecutive steps.

    +1 for a right (clockwise) turn, -1 for a left turn, 0 for straight.
    Walking around a simple clockwise loop the signs add up to +4.
    """
    d = (outgoing - incoming) % 4
    if d == 0:
        return 0
    if d == 1:
        return -1
    if d == 3:
        return 1
    raise ValueError("reversal between consecutive steps is not a turn")


# Turn signs by step-code difference, so that TURN_SIGN[outgoing - incoming]
# is turn_sign(incoming, outgoing): a difference of -3..3 indexes the table
# modulo 4 through Python's negative indices. A reversal (difference 2 or -2)
# is no turn and maps to None.
TURN_SIGN: tuple[int | None, ...] = tuple(None if d == 2 else turn_sign(0, d) for d in range(4))
