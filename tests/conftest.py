"""Tuple references for the bytes products of PermGroup, shared by the
group and character-table tests."""

from math import lcm

from reptheory.permgroup import cycle_lengths


def p_inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def p_order(p):
    """The lcm of the cycle lengths of p."""
    return lcm(1, *cycle_lengths(p))
