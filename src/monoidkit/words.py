"""Free-monoid combinatorics: factorizations, cut profiles, factor location.

Words are plain strings of single-character letters; empty factors are
allowed everywhere and evaluate to the identity.
"""

from __future__ import annotations

from itertools import accumulate, combinations, combinations_with_replacement, zip_longest
from operator import itemgetter

from .monoid import (CapExceeded, FiniteMonoid, GeneratorMap, InputError, Record,
                     _product)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Collection, Iterable, Iterator, Sequence

MAX_PROFILE_TUPLES = 100_000
MAX_PROFILE_ENTRIES = 10**7     # about 80 MB of tuple pointers


def factorizations(w: str, n: int) -> Iterator[tuple[str, ...]]:
    """All n-part factorizations of w, in lexicographic order of the
    cut-position vectors.  There are C(|w|+n-1, n-1) of them."""
    if n < 1:
        raise InputError("arity must be >= 1")
    L = len(w)
    for cuts in combinations_with_replacement(range(L + 1), n - 1):
        bounds = (0, *cuts, L)
        yield tuple(w[bounds[k]:bounds[k + 1]] for k in range(n))


def word_image(M: FiniteMonoid, g: GeneratorMap, w: str) -> int:
    """Image of a word under the letter map extended to a morphism."""
    return _product(M, map(g.image, w))


class CutProfile(Record):
    """The set of n-tuples of part images over all n-part factorizations
    of some word.

    Canonical encoding: tuples deduplicated and sorted ascending; equality
    is encoding equality.
    """

    n: int
    tuples: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, n: int, tuples: Iterable[tuple[int, ...]]) -> "CutProfile":
        return cls(n, tuple(sorted(set(tuples))))


def cut_brute(M: FiniteMonoid, g: GeneratorMap, w: str, n: int) -> CutProfile:
    """Profile by the definition: the part images of every n-part
    factorization; the oracle implementation."""
    return CutProfile.make(n, (tuple(word_image(M, g, u) for u in parts)
                               for parts in factorizations(w, n)))


def _squeeze(M: FiniteMonoid, p: CutProfile) -> set[tuple[int, ...]]:
    """Each tuple of p without its identity entries."""
    return {tuple(x for x in t if x != M.identity) for t in p.tuples}


def _check_profile_size(n: int, counts: Iterable[int]) -> int:
    """How many n-tuples sequences spread into, counts[k] of them of k
    parts: C(n, k) each.  C(n, k) is stepped from C(n, k - 1), one product
    and one exact division each, since n may be huge.  CapExceeded past
    MAX_PROFILE_TUPLES."""
    size, c = 0, 1
    for k, m in enumerate(counts):
        size += c * m
        c = c * (n - k) // (k + 1)
    if size > MAX_PROFILE_TUPLES:
        raise CapExceeded(f"cut profile of {_decimal(size)} tuples exceeds cap of "
                          f"{MAX_PROFILE_TUPLES}", size)
    return size


def _decimal(count: int) -> str:
    """count in decimal or, past the digits that int-to-str conversion
    allows (4300 by default), `more than 10^k` for the largest such k."""
    try:
        return str(count)
    except ValueError:
        k = (count.bit_length() - 1) * 30102 // 100_000   # 10^k < 2^(bits-1)
        p = 10 ** k
        while 10 * p < count:
            p, k = 10 * p, k + 1
        return f"more than 10^{k}"


def _spread(M: FiniteMonoid, n: int, seqs: Collection[tuple[int, ...]]) -> CutProfile:
    """Every placement of each sequence into n slots, identity elsewhere (a
    part of image 1 reads like an empty part, so this inverts _squeeze).

    The sequences are grouped by length, each with the identity appended at
    index k for k parts, and the profile is sized from the group lengths.
    A placement of k parts is an itemgetter over such a sequence, built once
    and mapped over the whole group; a length without sequences builds
    none.  CapExceeded past MAX_PROFILE_TUPLES tuples and then past
    MAX_PROFILE_ENTRIES entries, n to a tuple, before any is built."""
    pad = (M.identity,)
    groups: list[list] = [[] for _ in range(max(map(len, seqs), default=0) + 1)]
    for s in seqs:
        groups[len(s)].append(s + pad)
    size = _check_profile_size(n, map(len, groups))
    if size * n > MAX_PROFILE_ENTRIES:
        raise CapExceeded(f"cut profile of {size} tuples of {_decimal(n)} entries "
                          f"exceeds cap of {MAX_PROFILE_ENTRIES} entries", size * n)
    if n == 1:  # itemgetter of one index returns an entry, not a tuple
        return CutProfile(1, tuple(sorted(s or pad for s in seqs)))
    tuples = []
    for k, group in enumerate(groups):
        for slots in combinations(range(n), k) if group else ():
            index = [k] * n
            for i, j in enumerate(slots):
                index[j] = i
            tuples += map(itemgetter(*index), group)
    return CutProfile(n, tuple(sorted(tuples)))


def _step(M: FiniteMonoid, n: int, seqs: Iterable[tuple[int, ...]], x: int) -> set:
    """Append a letter of image x: it multiplies into the last part (dropped
    if the product is 1) or starts a new part while fewer than n are used."""
    table, e = M.table, M.identity
    out = set()
    for s in seqs:
        if s:
            y = table[s[-1]][x]
            out.add(s[:-1] + (y,) if y != e else s[:-1])
        if len(s) < n:
            out.add(s + (x,) if x != e else s)
    return out


class _SequenceDag:
    """Sets of non-identity sequences of length <= n, hash-consed.

    A node is (holds_empty, ((c, prefixes), ...)): whether the set holds (),
    and for each last element c, ascending, the node of the set of p with
    p + (c,) in the set.  One table numbers the nodes, so equal sets are one
    integer and a child is numbered before its parent; node 0 is the empty
    set.  Union, truncation and the letter step are memoized on node
    numbers.  Each node carries counts[i], its number of sequences of
    each length 0, 1, ..., built from its children's when it is made, so a
    set's size is read before any sequence is listed.  A path is as long
    as its sequence, up to n, so every walk keeps an explicit stack and
    none recurses."""

    def __init__(self, M: FiniteMonoid, n: int):
        self.table, self.identity, self.n = M.table, M.identity, n
        self.ids: dict[tuple, int] = {}
        self.nodes: list[tuple] = []
        self.counts: list[tuple[int, ...]] = []     # sequences by length
        self.unions: dict[tuple[int, int], int] = {}
        self.truncs: dict[tuple[int, int], int] = {}
        self.steps: dict[tuple[int, int], int] = {}
        self.node(False, ())

    def node(self, holds_empty: bool, groups: tuple) -> int:
        key = (holds_empty, groups)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
            counts = self.counts
            counts.append((int(holds_empty), *map(sum, zip_longest(
                *[counts[p] for _, p in groups], fillvalue=0))))
        return i

    def union(self, a: int, b: int) -> int:
        if a == b or not b:
            return a
        if not a:
            return b
        nodes, memo = self.nodes, self.unions
        top = (a, b) if a < b else (b, a)
        stack = [top]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            (empty_a, groups_a), (empty_b, groups_b) = nodes[key[0]], nodes[key[1]]
            merged = dict(groups_a)
            todo = []
            for c, q in groups_b:
                p = merged.get(c, q)
                if p != q:
                    pair = (p, q) if p < q else (q, p)
                    q = memo.get(pair)
                    if q is None:
                        todo.append(pair)
                        continue
                merged[c] = q
            if todo:        # the children first; then this pair is revisited
                stack += todo
                continue
            memo[key] = self.node(empty_a or empty_b, tuple(sorted(merged.items())))
            stack.pop()
        return memo[top]

    def truncate(self, a: int, k: int) -> int:
        """The node of a's sequences of length <= k."""
        counts, nodes, memo = self.counts, self.nodes, self.truncs
        if len(counts[a]) <= k + 1:
            return a
        stack = [(a, k)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            b, j = key
            holds_empty, groups = nodes[b]
            kept, todo = [], []
            for c, p in groups if j else ():
                if len(counts[p]) > j:
                    r = memo.get((p, j - 1))
                    if r is None:
                        todo.append((p, j - 1))
                        continue
                    p = r
                if p:
                    kept.append((c, p))
            if todo:
                stack += todo
                continue
            memo[key] = self.node(holds_empty, tuple(kept))
            stack.pop()
        return memo[(a, k)]

    def step(self, a: int, x: int) -> int:
        """Append a letter of image x != 1 to every sequence of a: each
        group c moves to c*x, and its prefixes become whole sequences when
        c*x = 1; group x gains every sequence shorter than n."""
        key = (a, x)
        r = self.steps.get(key)
        if r is not None:
            return r
        t = self.table
        moved: dict[int, int] = {}
        whole = []
        for c, p in self.nodes[a][1]:
            d = t[c][x]
            if d == self.identity:
                whole.append(p)
            else:
                moved[d] = self.union(moved[d], p) if d in moved else p
        short = self.truncate(a, self.n - 1)
        if short:
            moved[x] = self.union(moved[x], short) if x in moved else short
        r = self.node(False, tuple(sorted(moved.items())))
        for p in whole:
            r = self.union(r, p)
        self.steps[key] = r
        return r

    def sequences(self, a: int) -> list[tuple[int, ...]]:
        """Every sequence of a, once each: a sequence is one path, read
        from its last element, and its tuple is built once at the end."""
        nodes = self.nodes
        out, path = [], []
        stack = [(a, 0, None)]      # (node, length of path above it, its c)
        while stack:
            b, depth, c = stack.pop()
            del path[depth:]
            if c is not None:
                path.append(c)
            holds_empty, groups = nodes[b]
            if holds_empty:
                out.append(tuple(reversed(path)))
            stack += [(p, len(path), c) for c, p in groups]
        return out

    def fold(self, g: GeneratorMap, w: str) -> int:
        """The node of w's non-identity part sequences: each letter of
        image x != 1 steps the set, from the set of the empty sequence.
        CapExceeded, before the node is returned, when they spread into
        more than MAX_PROFILE_TUPLES tuples: the node's counts are sized by
        _check_profile_size, as _spread sizes a profile.  The entries cap
        stays with _spread, since replay folds but never spreads."""
        s = self.node(True, ())
        for ch in w:
            x = g.image(ch)
            if x != self.identity:
                s = self.step(s, x)
        _check_profile_size(self.n, self.counts[s])
        return s


def cut(M: FiniteMonoid, g: GeneratorMap, w: str, n: int) -> CutProfile:
    """Profile by letter extension over the non-identity sequences.

    The set S of sequences is folded over w on a _SequenceDag made for this
    call, so a sub-set that comes back along the word is stepped once; a
    letter of image 1 leaves S as it is.  The fold counts the profile's
    tuples on S's node, by the count _spread applies to the listed
    sequences, so a profile past the cap is never listed.
    build_expansion keeps the set step _step instead: it spreads and
    stores every state it finds, so the DAG would save it nothing and its
    node table would slow it."""
    if n < 1:
        raise InputError("arity must be >= 1")
    dag = _SequenceDag(M, n)
    seqs = dag.sequences(dag.fold(g, w))
    del dag
    return _spread(M, n, seqs)


def match_factorization(
    M: FiniteMonoid, g: GeneratorMap, w: str, targets: Sequence[int],
) -> tuple[str, ...] | None:
    """The factorization with the least cut vector whose part images equal
    targets, or None when targets is not in the cut profile.  One backward
    pass per part, last part first, marks where each part may start so the
    rest still matches; read left to right, each part then ends at the
    least start of the next part that gives it its image.  This costs
    O(n*L*min(|M|, L+1)) time and O(n*L) bytes for L letters in n parts."""
    targets = tuple(targets)
    n = len(targets)
    if n < 1:
        raise InputError("need at least one target")
    t = M.table
    imgs = [g.image(ch) for ch in w]
    L = len(w)
    # starts[k][j]: w[j:] splits into parts k.. with images targets[k:].
    # Pass k keeps one set, the images of w[j:j'] over the j' where part
    # k+1 may start, stepped from j+1 to j by w[j]'s image on the left.
    starts = [bytearray(L + 1) for _ in range(n + 1)]
    starts[n][L] = 1
    for k in range(n - 1, -1, -1):
        images = set()
        for j in range(L, -1, -1):
            if j < L:
                images = set(map(t[imgs[j]].__getitem__, images))
            if starts[k + 1][j]:
                images.add(M.identity)
            starts[k][j] = targets[k] in images
    if not starts[0][0]:
        return None
    bounds = [0]
    for target, ends in zip(targets, starts[1:]):
        j = bounds[-1]
        prefix = accumulate(imgs[j:], lambda a, x: t[a][x], initial=M.identity)
        bounds.append(next(e for e, a in enumerate(prefix, j) if a == target and ends[e]))
    return tuple(w[bounds[k]:bounds[k + 1]] for k in range(n))


class FactorWitness(Record):
    """Locates part j of one factorization inside part i of another.

    i and j are 1-based part indices; offset is the 0-based start of the
    occurrence inside the u part.  For a non-empty located part the
    occurrence is position-aligned: in the common base word, the part's
    span lies inside the span of the enclosing u part.
    """

    i: int
    j: int
    offset: int


def lemma_factor(us: Sequence[str], vs: Sequence[str]) -> FactorWitness:
    """Given two factorizations u_1..u_m = v_1..v_n of one word with m <= n,
    locate some v_j inside some u_i.

    Constructive and deterministic: an empty v part wins immediately
    (least j, then i = 1); otherwise each v part lies under the u part
    holding its last letter, found among the u parts' end offsets.  That
    part never moves left, so either two consecutive v parts share a u part
    (v_j sits inside it, aligned) or each v part has a u part of its own.
    Then m = n, every u part ends where its v part does, and v_1 = u_1.
    """
    us = tuple(us)
    vs = tuple(vs)
    m, n = len(us), len(vs)
    if m < 1:
        raise InputError("need at least one part")
    if m > n:
        raise InputError(f"first factorization has more parts ({m} > {n})")
    if "".join(vs) != "".join(us):
        raise InputError("factorizations concatenate to different words")
    if "" in vs:
        return FactorWitness(1, vs.index("") + 1, 0)
    ends = list(accumulate(map(len, us)))
    i, held, vstart = 0, None, 0
    for j, vend in enumerate(accumulate(map(len, vs))):
        while ends[i] < vend:  # to the u part holding v_j's last letter
            i += 1
        if i == held:
            return FactorWitness(i + 1, j + 1, vstart - ends[i] + len(us[i]))
        held, vstart = i, vend
    return FactorWitness(1, 1, 0)
