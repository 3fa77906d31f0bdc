"""Built-in small monoids used by the test bench."""

from __future__ import annotations

from monoidkit.monoid import FiniteMonoid, GeneratorMap, generator_map


def trivial() -> FiniteMonoid:
    return FiniteMonoid(("1",), 0, ((0,),))


def z2() -> FiniteMonoid:
    return FiniteMonoid(("1", "g"), 0, ((0, 1), (1, 0)))


def z3() -> FiniteMonoid:
    table = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    return FiniteMonoid(("1", "g", "g2"), 0, table)


def n3() -> FiniteMonoid:
    """Three elements 1, a, 0 with a*a = 0: the smallest non-regular monoid."""
    return FiniteMonoid(("1", "a", "0"), 0, ((0, 1, 2), (1, 2, 2), (2, 2, 2)))


def flipflop() -> FiniteMonoid:
    """Identity plus two right zeros; the transition monoid of a set/reset cell."""
    return FiniteMonoid(("1", "s", "r"), 0, ((0, 1, 2), (1, 1, 2), (2, 1, 2)))


def t2() -> FiniteMonoid:
    """All four transformations of a two-point set: the swap s and the
    constants c1, c2, named and numbered as their closure names them."""
    return FiniteMonoid(("1", "s", "c1", "c2"), 0,
                        ((0, 1, 2, 3), (1, 0, 2, 3), (2, 3, 2, 3), (3, 2, 2, 3)))


def b21() -> FiniteMonoid:
    """The six-element Brandt monoid: 2x2 matrix units with identity and zero."""
    e = ((1, 0), (0, 1))
    a = ((0, 1), (0, 0))
    b = ((0, 0), (1, 0))
    ab = ((1, 0), (0, 0))
    ba = ((0, 0), (0, 1))
    z = ((0, 0), (0, 0))
    mats = (e, a, b, ab, ba, z)
    index = {m: i for i, m in enumerate(mats)}

    def mult(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
            for i in range(2))

    table = tuple(tuple(index[mult(x, y)] for y in mats) for x in mats)
    M = FiniteMonoid(("1", "a", "b", "ab", "ba", "0"), 0, table)
    M.validate()
    return M


def _with_map(M: FiniteMonoid, a: str, b: str) -> tuple[FiniteMonoid, GeneratorMap]:
    return M, generator_map(M, {"a": M.element(a), "b": M.element(b)})


def catalog() -> dict[str, tuple[FiniteMonoid, GeneratorMap]]:
    """The core fixtures with their standard two-letter maps."""
    return {
        "trivial": _with_map(trivial(), "1", "1"),
        "z2": _with_map(z2(), "g", "g"),
        "z3": _with_map(z3(), "g", "g2"),
        "n3": _with_map(n3(), "a", "0"),
        "flipflop": _with_map(flipflop(), "s", "r"),
    }


def fixtures() -> dict[str, tuple[FiniteMonoid, GeneratorMap]]:
    """catalog() plus the larger extras used by ideal and stability sweeps."""
    out = dict(catalog())
    out["t2"] = _with_map(t2(), "s", "c1")
    out["b21"] = _with_map(b21(), "a", "b")
    return out
