"""Omega terms and finite shadow checks.

Terms extend words with integer powers and the omega power, which
evaluates to the idempotent power of its argument.  Shadow checks run, in
a single finite monoid, statements whose general form is not decidable by
finite computation; each check reports exactly what this monoid sees,
including honest failures.
"""

from __future__ import annotations

import math

from .formats import _numeral
from .monoid import (CapExceeded, FiniteMonoid, GeneratorMap, InputError,
                     Record, _cycle, _product, ideal_generated,
                     is_group_element)
from .words import (FactorWitness, _SequenceDag, lemma_factor, match_factorization,
                    word_image)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence


class Letter(Record):
    symbol: str


class Concat(Record):
    parts: tuple["OmegaTerm", ...]


class Power(Record):
    base: "OmegaTerm"
    exponent: int


class OmegaPower(Record):
    base: "OmegaTerm"


OmegaTerm = Letter | Concat | Power | OmegaPower

# Parentheses nest at most this deep.  The parser keeps its levels in a
# list and costs no frames; each level costs evaluate at most three (itself,
# the generator of a concatenation's parts and `_product`) and term_text
# one, so this stays far below the interpreter's recursion limit.
MAX_TERM_DEPTH = 100

# replay caps n*L^2 for a word of length L in n parts.  Its factorization
# match takes at most n*L*(L+1) set steps, so this bounds it; a cap on
# n*L*|M| low enough to keep a Z2 replay near a second would refuse inputs
# this one admits, such as |M| = 1965 at L = 5000, n = 2
MAX_REPLAY_WORK = 10**8


def parse_term(text: str) -> OmegaTerm:
    """Parse an omega term; 'w' after '^' denotes the omega power.

    The grammar is expr := factor+; factor := atom ['^' (int|'w')];
    atom := letter | '(' expr ')', with whitespace ignored between tokens.
    One pass from the left: `levels` holds the factors read so far in the
    whole term and in each open parenthesis, innermost last, and a '^'
    applies to the last factor when that is a letter or a closed group."""
    levels: list[list[OmegaTerm]] = [[]]
    bare = False  # the last factor is a letter or a closed group
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        factors = levels[-1]
        ch = text[pos] if pos < len(text) else None
        if ch == "^" and bare:
            pos += 1
            while pos < len(text) and text[pos].isspace():
                pos += 1
            start = pos
            if text.startswith("w", pos):
                pos += 1
                factors[-1] = OmegaPower(factors[-1])
            else:
                while pos < len(text) and text[pos].isdecimal():
                    pos += 1
                k = _numeral(text[start:pos])
                if not 1 <= k < math.inf:
                    msg = ("expected an integer or w after ^" if pos == start
                           else "exponent must be at least 1" if k < 1
                           else "exponent has too many digits")
                    pos = start
                    break
                factors[-1] = Power(factors[-1], k)
            bare = False
            continue
        if ch is None:
            if factors and len(levels) == 1:
                return factors[0] if len(factors) == 1 else Concat(tuple(factors))
            msg = "expected )" if factors else "unexpected end of input"
            break
        if ch == ")" and factors and len(levels) > 1:
            levels.pop()
            levels[-1].append(factors[0] if len(factors) == 1 else Concat(tuple(factors)))
        elif ch == "(":
            if len(levels) > MAX_TERM_DEPTH:
                msg = f"parentheses nested deeper than {MAX_TERM_DEPTH}"
                break
            levels.append([])
        elif ch in ")^" or ch.isdecimal():
            msg = f"unexpected {ch!r}"
            break
        else:
            factors.append(Letter(ch))
        bare = ch != "("
        pos += 1
    raise InputError(f"term syntax error at position {pos}: {msg}")


def term_text(t: OmegaTerm) -> str:
    """Render a term back to parseable text."""
    if isinstance(t, Letter):
        return t.symbol
    if isinstance(t, Concat):
        return "".join(
            f"({term_text(p)})" if isinstance(p, Concat) else term_text(p)
            for p in t.parts)
    if isinstance(t, (Power, OmegaPower)):
        base = t.base
        inner = term_text(base)
        if not isinstance(base, Letter):
            inner = f"({inner})"
        exp = "w" if isinstance(t, OmegaPower) else str(t.exponent)
        return f"{inner}^{exp}"
    raise TypeError(f"not a term: {t!r}")


def evaluate(t: OmegaTerm, M: FiniteMonoid, g: GeneratorMap) -> int:
    """Homomorphic evaluation; the omega power maps to the idempotent power."""
    if isinstance(t, Letter):
        return g.image(t.symbol)
    if isinstance(t, Concat):
        return _product(M, (evaluate(p, M, g) for p in t.parts))
    if isinstance(t, Power):
        if t.exponent < 1:
            raise InputError("exponent must be at least 1")
        return M.power(evaluate(t.base, M, g), t.exponent)
    if isinstance(t, OmegaPower):
        return M.omega_power(evaluate(t.base, M, g))
    raise TypeError(f"not a term: {t!r}")


class StabilitySweep(Record):
    """Result of the power-stability sweep; counterexamples are (a, n, lam),
    and checked counts the (a, n, lam) triples covered, order^2 * (order+1)."""

    holds: bool
    counterexamples: tuple[tuple[int, int, int], ...]
    checked: int


def group_element_shadow(M: FiniteMonoid) -> StabilitySweep:
    """Sweep all a, 1 <= n <= order+1, 1 <= lam <= order: whenever
    a^n == a^(n+lam), the stabilized power a^n must be a group element.
    Holds in every finite monoid; any counterexample would be reported.
    The powers of a enter a cycle of length p at index i (`_cycle`), so
    a^n == a^(n+lam) exactly when n >= i and p divides lam, and a^n is the
    stable power of residue (n - i) mod p.  Each stable power is asked once,
    in the order the n loop reaches it, and the n loop runs only for an a
    with a stable power that is not a group element."""
    bad = []
    group: dict[int, bool] = {}  # is_group_element, once per stable power
    for a in range(M.order):
        pw, i, p = _cycle(M.table, M.identity, a)
        start = max(i, 1)
        stable = pw[start:] + pw[i:start]
        for s in stable:
            if s not in group:
                group[s] = is_group_element(M, s)
        if not all(map(group.__getitem__, stable)):
            for nn in range(start, M.order + 2):
                if not group[pw[i + (nn - i) % p]]:
                    bad += [(a, nn, lam) for lam in range(p, M.order + 1, p)]
    return StabilitySweep(not bad, tuple(bad), M.order * M.order * (M.order + 1))


class MembershipVerdict(Record):
    """Outcome of the ideal-product membership check.

    hypothesis: the product of the elements lies in the product of the
    ideals.  witness: 1-based (i, j) with element i inside ideal j, the
    least j and then the least i, when the hypothesis holds and one
    exists.  membership[i][j] is the full element-by-ideal matrix.
    """

    hypothesis: bool
    witness: tuple[int, int] | None
    membership: tuple[tuple[bool, ...], ...]
    product: int
    ideal_product: tuple[int, ...]

    @property
    def verdict(self) -> str:
        return "violated" if self.hypothesis and self.witness is None else "holds"


def ideal_product_shadow(
    M: FiniteMonoid,
    g: GeneratorMap,
    alphas: Sequence[OmegaTerm],
    ideal_gens: Sequence[Sequence[OmegaTerm]],
) -> MembershipVerdict:
    """Evaluate m elements and n ideals (m <= n) and test whether membership
    of the element product in the ideal product localizes to one element
    inside one ideal.  Finite monoids may genuinely violate this."""
    m, n = len(alphas), len(ideal_gens)
    if m < 1 or n < 1:
        raise InputError("need at least one element and one ideal")
    if m > n:
        raise InputError(f"more elements than ideals ({m} > {n})")
    avals = [evaluate(t, M, g) for t in alphas]
    gvals = [tuple(evaluate(t, M, g) for t in gens) for gens in ideal_gens]
    ideals = [ideal_generated(M, G) for G in gvals]
    ideal_sets = [set(I) for I in ideals]
    product = _product(M, avals)
    # I*(M*G*M) = (I*G)*M = M*(I*G)*M, since I*M = I = M*I for an ideal I
    iprod = ideals[0]
    for G in gvals[1:]:
        iprod = ideal_generated(M, {M.table[x][y] for x in iprod for y in G})
    membership = tuple(tuple(a in I for I in ideal_sets) for a in avals)
    hypothesis = product in iprod
    witness = next(((i + 1, j + 1) for j in range(n) for i in range(m)
                    if membership[i][j]), None) if hypothesis else None
    return MembershipVerdict(hypothesis, witness, membership, product, iprod)


class ProfileMismatch(Exception):
    """The two word sequences have different cut profiles; replay cannot run."""


class ReplayResult(Record):
    """Outcome of the factorization-transfer replay.

    parts: the produced factorization v_1..v_n of the u concatenation.
    witness: locates v_j inside u_i.  part_image is the image of that v_j
    (equal to the image of w_j); membership records that the image of u_i
    lies in the principal ideal of w_j's image.
    """

    parts: tuple[str, ...]
    witness: FactorWitness
    part_image: int
    source_image: int
    membership: bool


def replay_factorization(
    M: FiniteMonoid,
    g: GeneratorMap,
    n: int,
    us: Sequence[str],
    ws: Sequence[str],
) -> ReplayResult:
    """Re-factor the u concatenation so the part images match the w parts,
    then locate one new part inside one u part and record the resulting
    ideal membership.

    Precondition (checked): the two concatenations have equal cut profiles
    at arity n; ProfileMismatch is raised otherwise.  CapExceeded is raised,
    before any work, when n*L^2 for the longer word exceeds MAX_REPLAY_WORK,
    and as by cut, u's before w's, when a profile is past its tuple cap.
    """
    us, ws = tuple(us), tuple(ws)
    m = len(us)
    if n != len(ws):
        raise InputError(f"arity {n} must equal the number of w parts ({len(ws)})")
    if m < 1:
        raise InputError("need at least one u part")
    if m > n:
        raise InputError(f"more u parts than w parts ({m} > {n})")
    u = "".join(us)
    w = "".join(ws)
    L = max(len(u), len(w))
    if n * L * L > MAX_REPLAY_WORK:
        raise CapExceeded(f"replay of {L} letters in {n} parts: n*L^2 exceeds "
                          f"cap of {MAX_REPLAY_WORK}", n * L * L)
    # one DAG numbers both sequence sets: equal sets are one node, and
    # equal sets spread into equal profiles
    dag = _SequenceDag(M, n)
    if dag.fold(g, u) != dag.fold(g, w):
        raise ProfileMismatch(
            f"cut profiles at arity {n} differ between {u!r} and {w!r}")
    targets = tuple(word_image(M, g, part) for part in ws)
    vs = match_factorization(M, g, u, targets)
    assert vs is not None  # targets belong to the shared profile
    fw = lemma_factor(us, vs)
    for v, target in zip(vs, targets):
        assert word_image(M, g, v) == target
    vj = targets[fw.j - 1]
    ui = word_image(M, g, us[fw.i - 1])
    membership = ui in set(ideal_generated(M, (vj,)))
    return ReplayResult(vs, fw, vj, ui, membership)
