"""Shared test utilities: word enumeration and the factor-witness check."""

from itertools import product

# cycle, transposition and collapse on 3 and 4 points: the full
# transformation monoids T3 (27 elements) and T4 (256 elements)
T3_GENS = {"c": (1, 2, 0), "t": (1, 0, 2), "e": (0, 0, 2)}
T4_GENS = {"c": (1, 2, 3, 0), "t": (1, 0, 2, 3), "k": (0, 0, 2, 3)}
# a: 2 3 1 2, b: 4 2 1 2 in .tgen numbering; a 52-element monoid
M52_GENS = {"a": (1, 2, 0, 1), "b": (3, 1, 0, 1)}


def all_words(alphabet="ab", max_len=6):
    for length in range(max_len + 1):
        for tup in product(alphabet, repeat=length):
            yield "".join(tup)


def check_factor_witness(us, vs, fw):
    """The located v part occurs in the named u part at the given offset,
    and non-empty occurrences are position-aligned in the base word."""
    i, j, off = fw.i - 1, fw.j - 1, fw.offset
    assert 0 <= i < len(us)
    assert 0 <= j < len(vs)
    u, v = us[i], vs[j]
    if v:
        assert 0 <= off <= len(u) - len(v)
    else:
        assert off == 0
    assert u[off:off + len(v)] == v
    if v:
        ustart = sum(map(len, us[:i]))
        vstart = sum(map(len, vs[:j]))
        assert ustart + off == vstart
