"""Shared test utilities: word enumeration, the factor-witness check,
`mono` in a child process and the earlier algorithms kept as oracles."""

import math
import os
import subprocess
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import product
from pathlib import Path

from monoidkit.expansion import profile_product
from monoidkit.formats import _numeral
from monoidkit.monoid import FiniteMonoid, GeneratorMap, GreensData, InputError, _classify
from monoidkit.shadows import (MAX_TERM_DEPTH, Concat, Letter, OmegaPower, OmegaTerm,
                               Power)
from monoidkit.words import FactorWitness, _spread, _step

# cycle, transposition and collapse on 3 and 4 points: the full
# transformation monoids T3 (27 elements) and T4 (256 elements)
T3_GENS = {"c": (1, 2, 0), "t": (1, 0, 2), "e": (0, 0, 2)}
T4_GENS = {"c": (1, 2, 3, 0), "t": (1, 0, 2, 3), "k": (0, 0, 2, 3)}
# a: 2 3 1 2, b: 4 2 1 2 in .tgen numbering; a 52-element monoid
M52_GENS = {"a": (1, 2, 0, 1), "b": (3, 1, 0, 1)}

ROOT = Path(__file__).resolve().parent.parent


def run_mono(argv, *, timeout=None, mem_kb=None, env=(), **kwargs):
    """`python -m monoidkit.cli *argv` in a child, from the repository root
    with PYTHONPATH=src and `env` added to the environment.  As a shell's
    `timeout` and `ulimit -v` would, `timeout` kills the child after that
    many seconds (raising TimeoutExpired) and `mem_kb` limits its address
    space to that many KiB; both act on the child only.  Both streams are
    captured unless `kwargs` redirect them."""
    limit = None
    if mem_kb is not None:
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (mem_kb * 1024,) * 2)

    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    return subprocess.run(
        [sys.executable, "-m", "monoidkit.cli", *argv],
        **{**streams, **kwargs}, timeout=timeout, preexec_fn=limit, cwd=ROOT,
        env={**os.environ, **dict(env), "PYTHONPATH": str(ROOT / "src")})


@contextmanager
def frames_to_spare(frames=50):
    """Lower the recursion limit to the caller's stack depth plus `frames`,
    restoring it on exit: a call that recursed with the size of its input
    raises RecursionError inside."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def outcome(f, *args):
    """f(*args), or the text of the InputError it raises."""
    try:
        return f(*args)
    except InputError as exc:
        return str(exc)


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


def relabelled(M, rng):
    """M with its elements renumbered by a random permutation that moves
    the identity off index 0 (when there is another index), so the greedy
    generators and the search order over the table change."""
    n = M.order
    perm = list(range(n))
    rng.shuffle(perm)
    if n > 1 and perm[M.identity] == 0:
        other = rng.choice([x for x in range(n) if x != M.identity])
        perm[M.identity], perm[other] = perm[other], perm[M.identity]
    inv = sorted(range(n), key=perm.__getitem__)
    names = tuple(M.names[x] for x in inv)
    table = tuple(tuple(perm[M.table[x][y]] for y in inv) for x in inv)
    R = FiniteMonoid(names, perm[M.identity], table)
    R.validate()
    return R


def ideal_product(M, I, J):
    """{x*y : x in I, y in J}; an ideal inside both arguments when they are
    ideals.  The library's shadow and idempotency checks close ideals
    instead; this product is kept as their oracle."""
    t = M.table
    return tuple(sorted({t[x][y] for x in I for y in J}))


def generator_map_bfs(M, mapping):
    """Oracle: generator_map's checks and map, with the submonoid the
    letters generate beside it, found by breadth-first search from the
    identity, one generation at a time, as a sorted element tuple."""
    letters = tuple(mapping)
    images = tuple(mapping[a] for a in letters)
    for a in letters:
        if not a:
            raise InputError("empty letter")
    for x in images:
        if not 0 <= x < M.order:
            raise InputError(f"generator image {x} out of range")
    seen = {M.identity}
    frontier = [M.identity]
    while frontier:
        nxt = []
        for s in frontier:
            for x in images:
                v = M.table[s][x]
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return GeneratorMap(letters, images), tuple(sorted(seen))


def greedy_generators_by_scan(t):
    """monoid._greedy_generators as it was before it closed through
    monoid._reach, kept as an oracle: the same picks, with its own reached
    array and closure loop."""
    n = len(t)
    gens: list[int] = []
    reached = [False] * n
    found: list[int] = []
    for x in range(n):
        if reached[x]:
            continue
        gens.append(x)
        done = len(found)
        for q in [x] + [t[p][x] for p in found]:
            if not reached[q]:
                reached[q] = True
                found.append(q)
        while done < len(found):
            row = t[found[done]]
            for a in gens:
                q = row[a]
                if not reached[q]:
                    reached[q] = True
                    found.append(q)
            done += 1
    return gens


def greens_by_ideals(M):
    """monoid.greens as it was before it read the classes off the Cayley
    graphs, kept as an oracle: Green's relations from the defining ideals
    xM, Mx, MxM.  MxM is built once per R-class, and J(a) <= J(b) exactly
    when a is in MbM."""
    t = M.table
    r_ideal = [frozenset(row) for row in t]
    l_ideal = [frozenset(col) for col in zip(*t)]
    r_of, r_classes = _classify(r_ideal)
    l_of, l_classes = _classify(l_ideal)
    h_of, h_classes = _classify(zip(r_of, l_of))
    # MxM is the union of the left ideals Mr over r in xM, taken as a set so
    # each distinct one is merged once (merging all |xM| of them leaves the
    # frozensets' tables half empty; T4: +1 MB)
    j_ideal = [frozenset().union(*{l_ideal[r] for r in r_ideal[c[0]]}) for c in r_classes]
    j_of, j_classes = _classify([j_ideal[r] for r in r_of])
    reps = [cls[0] for cls in j_classes]
    j_leq = tuple(zip(*(map(j_ideal[r_of[b]].__contains__, reps) for b in reps)))
    return GreensData(r_of, l_of, j_of, h_of,
                      r_classes, l_classes, j_classes, h_classes, j_leq)


# A word's profile as a fold of letter profiles under profile_product, kept
# as an oracle for cut, with the letter and identity profiles it folds.

def letter_profile(M, g, a, n):
    """Profile of a single letter: its image in one slot, identity elsewhere."""
    if n < 1:
        raise InputError("arity must be >= 1")
    return _spread(M, n, _step(M, n, [()], g.image(a)))


def identity_profile(M, n):
    return _spread(M, n, [()])


def word_profile(M, g, w, n):
    """Profile of a word as a fold of letter profiles under profile_product."""
    if n < 1:
        raise InputError("arity must be >= 1")
    acc = identity_profile(M, n)
    for ch in w:
        acc = profile_product(M, n, acc, letter_profile(M, g, ch, n))
    return acc


def profile_index(E):
    """Each spread profile of the expansion E to its number."""
    return {p: i for i, p in enumerate(E.profiles)}


def cut_by_step_fold(M, g, w, n):
    """cut as it was before the sequence-set DAG, kept as an oracle: the
    letter step folded over the whole set of non-identity sequences."""
    if n < 1:
        raise InputError("arity must be >= 1")
    seqs = {()}
    for ch in w:
        seqs = _step(M, n, seqs, g.image(ch))
    return _spread(M, n, seqs)


# The power layer as it was before every answer was read off one walk of
# <x> (monoid._cycle), kept as oracles.  They are compared on associative
# tables only: on a table that is not, x^k depends on its bracketing, so
# squaring and the left-nested walk may differ, and so may an idempotent
# search that starts at x and the walk, which starts at the identity.

def power_by_squaring(M, x, k):
    """x^k by binary exponentiation, the same products in the same order;
    it reads the bits of k from one bin() string instead of shifting k,
    since each shift copies k, O(log(k)^2) in all at k = 10^4299."""
    t = M.table
    acc = M.identity
    for bit in reversed(bin(k)[2:]):
        if bit == "1":
            acc = t[acc][x]
        x = t[x][x]
    return acc


def omega_power_by_search(M, x):
    """The first idempotent among x, x^2, ..., x^order."""
    p = x
    for _ in range(M.order):
        if M.table[p][p] == p:
            return p
        p = M.table[p][x]
    raise AssertionError("no idempotent power; is the table associative?")


def is_aperiodic_by_omega(M):
    """x^omega == x^omega * x for every x; the least x that fails."""
    for a in range(M.order):
        w = omega_power_by_search(M, a)
        if M.table[w][a] != w:
            return False, a
    return True, None


def check_eta_aperiodic_by_omega(E):
    """x^omega == x^omega * x in E.as_monoid() for every profile x over an
    idempotent of the base; the first (idempotent, profile) that fails."""
    EM = E.as_monoid()
    for e in E.base.idempotents():
        for x in E.fiber(e):
            xo = omega_power_by_search(EM, x)
            if EM.table[xo][x] != xo:
                return False, (e, x)
    return True, None


# The two hand-written scanners of the CLI's input as they were before each
# became one pass from the left, kept as oracles.

class _Parser:
    """Recursive descent for: expr := factor+; factor := atom ['^' (int|'w')];
    atom := letter | '(' expr ')'.  Whitespace is ignored between tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg: str):
        raise InputError(f"term syntax error at position {self.pos}: {msg}")

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self) -> OmegaTerm:
        t = self.expr()
        if self.peek() is not None:
            self.error(f"unexpected {self.text[self.pos]!r}")
        return t

    def expr(self) -> OmegaTerm:
        parts = [self.factor()]
        while True:
            ch = self.peek()
            if ch is None or ch == ")":
                break
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def factor(self) -> OmegaTerm:
        a = self.atom()
        if self.peek() == "^":
            self.pos += 1
            ch = self.peek()
            if ch == "w":
                self.pos += 1
                return OmegaPower(a)
            if ch is None or not ch.isdecimal():
                self.error("expected an integer or w after ^")
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                self.pos += 1
            k = _numeral(self.text[start:self.pos])
            if k < 1:
                self.pos = start
                self.error("exponent must be at least 1")
            if k == math.inf:
                self.pos = start
                self.error("exponent has too many digits")
            return Power(a, k)
        return a

    def atom(self) -> OmegaTerm:
        ch = self.peek()
        if ch is None:
            self.error("unexpected end of input")
        if ch == "(":
            if self.depth == MAX_TERM_DEPTH:
                self.error(f"parentheses nested deeper than {MAX_TERM_DEPTH}")
            self.depth += 1
            self.pos += 1
            t = self.expr()
            if self.peek() != ")":
                self.error("expected )")
            self.pos += 1
            self.depth -= 1
            return t
        if ch in ")^" or ch.isdecimal():
            self.error(f"unexpected {ch!r}")
        self.pos += 1
        return Letter(ch)


def parse_term_by_descent(text: str) -> OmegaTerm:
    """shadows.parse_term as it was before it read the text in one pass from
    the left, kept as an oracle: recursive descent, three frames a level."""
    return _Parser(text).parse()


def lemma_factor_by_spans(us: Sequence[str], vs: Sequence[str]) -> FactorWitness:
    """words.lemma_factor as it was before it walked the v parts once against
    the u parts' end offsets, kept as an oracle.

    Given two factorizations u_1..u_m = v_1..v_n of one word with m <= n,
    locate some v_j inside some u_i.

    Constructive and deterministic: an empty v part wins immediately
    (least j, then i = 1); otherwise map each v part to the non-empty u
    part holding its last letter.  The map is monotone, so either two
    consecutive v parts share a u part (v_j sits inside it, aligned) or
    the map is a bijection and v_1 is a prefix of the first non-empty u.
    """
    us = tuple(us)
    vs = tuple(vs)
    m, n = len(us), len(vs)
    if m < 1:
        raise InputError("need at least one part")
    if m > n:
        raise InputError(f"first factorization has more parts ({m} > {n})")
    w = "".join(us)
    if "".join(vs) != w:
        raise InputError("factorizations concatenate to different words")
    for j, v in enumerate(vs):
        if not v:
            return FactorWitness(1, j + 1, 0)
    spans = []  # (original index, start, end) of the non-empty u parts
    pos = 0
    for i, u in enumerate(us):
        if u:
            spans.append((i, pos, pos + len(u)))
        pos += len(u)
    f = []  # for each v part, the span holding its last letter
    k = 0
    pos = 0
    for v in vs:
        last = pos + len(v) - 1
        while spans[k][2] <= last:
            k += 1
        f.append(k)
        pos += len(v)
    vstart = 0
    for j in range(1, n):
        vstart += len(vs[j - 1])
        if f[j - 1] == f[j]:
            orig, start, _end = spans[f[j]]
            return FactorWitness(orig + 1, j + 1, vstart - start)
    # f injective: it is a monotone bijection, and v_1 is a position-aligned
    # prefix of the first non-empty u part (which starts at 0)
    return FactorWitness(spans[0][0] + 1, 1, 0)


def _images_from(M: FiniteMonoid, imgs: Sequence[int], i: int) -> list[int]:
    """row[k] = image of w[i:i+k] for k = 0..L-i, given w's letter images."""
    t = M.table
    acc = M.identity
    row = [acc]
    for x in imgs[i:]:
        acc = t[acc][x]
        row.append(acc)
    return row


def match_factorization_by_rows(
    M: FiniteMonoid, g: GeneratorMap, w: str, targets: Sequence[int],
) -> tuple[str, ...] | None:
    """words.match_factorization as it was before it kept one set of images
    per backward pass, kept as an oracle: one row of segment images per
    start position, O(n * L^2) time.

    The factorization with the least cut vector whose part images equal
    targets, or None when targets is not in the cut profile.  A backward
    pass finds where each part may end so the rest still matches; taking
    the least such end, part by part, gives the least cut vector."""
    targets = tuple(targets)
    n = len(targets)
    if n < 1:
        raise InputError("need at least one target")
    imgs = [g.image(ch) for ch in w]
    L = len(w)
    # ends[k]: where part k may end, parts k+1.. still matching, descending.
    # The start positions j are scanned from L down with one row of images
    # at a time, so memory is O(n * L) and not the (L+1)^2 of every slice's
    # image; one part needs no backward pass.
    ends = [[] for _ in range(n - 1)] + [[L]]
    for j in range(L, -1, -1) if n > 1 else ():
        row = _images_from(M, imgs, j)
        for k in range(n - 1, 0, -1):
            if any(row[e - j] == targets[k] for e in ends[k]):
                ends[k - 1].append(j)
    bounds = [0]
    for k, t in enumerate(targets):
        j = bounds[-1]
        row = _images_from(M, imgs, j)
        e = next((e for e in reversed(ends[k]) if e >= j and row[e - j] == t), None)
        if e is None:
            return None
        bounds.append(e)
    return tuple(w[bounds[k]:bounds[k + 1]] for k in range(n))
