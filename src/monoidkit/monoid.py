"""Finite monoids as explicit multiplication tables.

Element identity is by index; names are display labels.  A monoid and all
data derived from it are immutable after construction, so everything in
this module is safe to share between threads.
"""

from __future__ import annotations

import sys
from itertools import islice
from operator import attrgetter, itemgetter

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Mapping, Sequence

DEFAULT_ELEMENT_CAP = 512


class InputError(ValueError):
    """Malformed input: bad file, unknown name, or a violated precondition."""


class CapExceeded(RuntimeError):
    """A closure computation grew past its configured cap."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class Record:
    """An immutable value: the class's own annotations name its fields,
    each set once by position or keyword.  Records compare equal when
    they are of the same class with equal fields, hash as the tuple of
    their fields and print as ``Name(field=value, ...)``, as a frozen
    dataclass does, without the cost of importing and running
    ``dataclasses`` at every start.

    Fields are set with ``object.__setattr__`` and read with ``attrgetter``,
    never through ``self.__dict__``: touching it would turn the instance's
    inline attribute values into a dict and slow every attribute read.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        get = attrgetter(*fields)
        cls._values = get if len(fields) > 1 else staticmethod(lambda r: (get(r),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            bound = dict(zip(fields, args), **kwargs)
            if (len(args) > len(fields) or bound.keys() != set(fields)
                    or not kwargs.keys().isdisjoint(fields[:len(args)])):
                raise TypeError(f"{type(self).__name__}() takes the fields "
                                f"{', '.join(fields)}, each once")
            args = [bound[f] for f in fields]
        for f, v in zip(fields, args):
            object.__setattr__(self, f, v)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


class _cached:
    """functools.cached_property without importing functools: a non-data
    descriptor whose first read stores the value on the instance, where
    every later read finds it first.  Threads that read it first at once
    each compute the value and store equal ones."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


def configured_cap(default: int) -> int:
    """Default element/state cap, overridable via MONO_CAP (a positive
    integer).  On POSIX it is read from posix.environ, the store behind
    os.environ, and decoded as os.fsdecode does, so no command loads os."""
    try:
        from posix import environ
    except ImportError:
        from os import environ
        raw = environ.get("MONO_CAP")
    else:
        raw = environ.get(b"MONO_CAP")
        if raw is not None:
            raw = raw.decode(sys.getfilesystemencoding(), "surrogateescape")
    if not raw:
        return default
    bad = InputError(f"MONO_CAP must be a positive integer, got {raw!r}")
    try:
        cap = int(raw)
    except ValueError:
        raise bad from None
    if cap < 1:
        raise bad
    return cap


def _product(M: FiniteMonoid, xs: Iterable[int]) -> int:
    """The product of the elements xs, in order; the identity if empty."""
    t, p = M.table, M.identity
    for x in xs:
        p = t[p][x]
    return p


def _check_name(name: str) -> None:
    if not name or "#" in name or any(ch.isspace() for ch in name):
        raise InputError(f"bad element name {name!r}")


def _greedy_generators(t: Sequence[Sequence[int]]) -> list[int]:
    """A generating set of the table t (read as a magma): scan 0..n-1 and
    pick every element that is not yet a left-nested product of earlier
    picks.  A pick x seeds x and p*x for each p found so far, and _reach
    closes the new elements under right multiplication by the picks, so the
    reached set stays closed and each element is multiplied by each pick
    once, O(n * |A|)."""
    gens: list[int] = []
    found: list[int] = []
    reached: set[int] = set()
    for x in range(len(t)):
        if x not in reached:
            gens.append(x)
            done = len(found)
            seeds = dict.fromkeys([x, *(t[p][x] for p in found)])
            found += [q for q in seeds if q not in reached]
            reached.update(_reach(t, found, gens, start=done))
    return gens


def _first_violation(t: tuple[tuple[int, ...], ...],
                     middles: Iterable[int]) -> tuple[int, int] | None:
    """The least pair (a, b), a over all rows in order and b over middles,
    whose row of (a*b)*c differs from row a read through itemgetter(*t[b]),
    a*(b*c); None if there is none.  Over a generating set A of middles it
    is Light's test, O(n^2 * |A|): the b that pass are closed under the
    product without associativity, x*(bd) = (xb)d, then ((xb)d)y = (xb)(dy)
    = x(b(dy)) = x((bd)y), so None means t is associative (Clifford &
    Preston, vol. I, section 1.2)."""
    if len(t) == 1:
        # itemgetter of a single index returns an entry, not a tuple; the
        # only one-element table in range, ((0,),), is associative
        return None
    getters = [(b, itemgetter(*t[b])) for b in middles]
    for a, ra in enumerate(t):
        for b, row_b in getters:
            if t[ra[b]] != row_b(ra):
                return a, b
    return None


def _cycle(t: Sequence[Sequence[int]], e: int,
           a: int) -> tuple[list[int], int, int]:
    """The powers e, a, a^2, ... of a up to the first repeat, with the index
    i and period p of a: a^(i+p) = a^i and the list holds i + p <= order
    elements.  The cyclic subsemigroup <a> of a finite monoid has index i
    and period p, and a^i, ..., a^(i+p-1) form a cyclic group (Clifford &
    Preston, vol. I, section 1.6).  The walk multiplies by a on the right,
    so on a table that is not associative it follows the left-nested
    products a*a*...*a."""
    pw, first = [e], {e: 0}
    x = t[e][a]
    while x not in first:
        first[x] = len(pw)
        pw.append(x)
        x = t[x][a]
    i = first[x]
    return pw, i, len(pw) - i


class FiniteMonoid(Record):
    """A monoid given by its full multiplication table.

    ``table[x][y]`` is the index of x*y.  Two monoids are equal when their
    names, identity and table are, whatever built them; a monoid built by
    closure is named by its elements' generator words (``1`` for the empty
    one).
    """

    names: tuple[str, ...]
    identity: int
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.names)

    @_cached
    def _generators(self) -> tuple[int, ...]:
        """The greedy generating set of the table, found once per monoid."""
        return tuple(_greedy_generators(self.table))

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def power(self, x: int, k: int) -> int:
        """x^k read off the walk of <x>: O(i + p) <= order, whatever k.  On an
        unvalidated table that is not associative this is the left-nested
        product x*x*...*x."""
        if k < 0:
            raise InputError("negative exponent")
        pw, i, p = _cycle(self.table, self.identity, x)
        return pw[k] if k < i + p else pw[i + (k - i) % p]

    def omega_power(self, x: int) -> int:
        """The unique idempotent among the positive powers of x: x^n for the
        n >= i that p divides, with x^0 = x^p when i = 0."""
        pw, i, p = _cycle(self.table, self.identity, x)
        w = pw[i + -i % p]
        if self.table[w][w] != w:
            raise AssertionError("no idempotent power; is the table associative?")
        return w

    def is_idempotent(self, x: int) -> bool:
        return self.table[x][x] == x

    def idempotents(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.order) if self.table[x][x] == x)

    def element(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element {name!r}") from None

    def validate(self) -> None:
        """Check shape, associativity (naming a violating triple), identity."""
        n = len(self.names)
        if n == 0:
            raise InputError("monoid needs at least one element")
        for name in self.names:
            _check_name(name)
        if len(set(self.names)) != n:
            raise InputError("duplicate element names")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise InputError("table is not order x order")
        t = self.table
        if not set().union(*t) <= set(range(n)):
            bad = next((v for row in t for v in row if not 0 <= v < n), None)
            if bad is not None:
                raise InputError(f"table entry {bad} out of range")
        if _first_violation(t, self._generators) is not None:
            # Light's test failed: name the lexicographically first triple
            a, b = _first_violation(t, range(n))
            c = next(c for c in range(n) if t[t[a][b]][c] != t[a][t[b][c]])
            na, nb, nc = self.names[a], self.names[b], self.names[c]
            raise InputError(
                f"not associative: ({na}*{nb})*{nc} != {na}*({nb}*{nc})")
        e = self.identity
        if not 0 <= e < n:
            raise InputError("identity index out of range")
        for x in range(n):
            if t[e][x] != x or t[x][e] != x:
                raise InputError(
                    f"{self.names[e]!r} is not an identity (fails at {self.names[x]!r})")


class GeneratorMap(Record):
    """Letters mapped to elements: letter alphabet[i] has image images[i]."""

    alphabet: tuple[str, ...]
    images: tuple[int, ...]

    def image(self, letter: str) -> int:
        try:
            return self.images[self.alphabet.index(letter)]
        except ValueError:
            raise InputError(f"unknown letter {letter!r}") from None


def _reach(t: Sequence[Sequence[int]], found: list[int], right: Sequence[int],
           left: Sequence[int] = (), start: int = 0) -> Iterator[int]:
    """Extend found, a list of distinct elements, in place to its closure
    under x*a for a in right and a*x for a in left, yielding each element
    from found[start] on as it is visited, so a search can stop early.  The
    elements before found[start] are taken as already multiplied.  Each
    other element is multiplied by each of them once, O(|closure| *
    (|right| + |left|))."""
    seen = set(found)
    cols = [t[a] for a in left]
    for x in islice(found, start, None):  # also visits the elements appended below
        yield x
        row = t[x]
        for q in [*map(row.__getitem__, right), *(c[x] for c in cols)]:
            if q not in seen:
                seen.add(q)
                found.append(q)


def generator_map(M: FiniteMonoid, mapping: Mapping[str, int]) -> GeneratorMap:
    """The letters of mapping, in its order, with their images; each letter
    must be non-empty and each image an element of M."""
    letters = tuple(mapping)
    images = tuple(mapping[a] for a in letters)
    for a in letters:
        if not a:
            raise InputError("empty letter")
    for x in images:
        if not 0 <= x < M.order:
            raise InputError(f"generator image {x} out of range")
    return GeneratorMap(letters, images)


def _closure(start, step, letters: int, cap: int, message: str, key=None):
    """Breadth-first closure of ``start`` under ``step(state, k)`` for the
    letters k = 0..letters-1, one generation at a time.

    Each generation of new states is numbered in discovery order, or sorted
    by ``key`` when one is given; ``start`` is 0.  Each state keeps its least
    word as a tuple of letter indices (shortlex, letters in index order).
    ``CapExceeded(message, count)`` is raised before a state is numbered
    past ``cap``.  Returns the states, their words and the table.

    The table is read off the search: ``right[k][i]`` is state i times
    letter k, and state q > 0 was first reached as ``parent[q]`` times
    letter ``last[q]``.  Since ``k * q = (k * parent(q)) * last(q)``, each
    letter's left row ``left[k]`` takes one lookup per state; since
    ``p * q = parent(p) * (last(p) * q)``, each row is an earlier one read
    through ``left[last[p]]``, one lookup per entry and no state products
    (Froidure & Pin, "Algorithms for computing finite semigroups", 1997).
    """
    states, words = [start], [()]
    parent, last = [0], [0]
    right: list[list[int]] = [[] for _ in range(letters)]
    index = {start: 0}
    frontier = range(1)
    while frontier:
        batches = [[step(states[i], k) for k in range(letters)] for i in frontier]
        found: dict = {}  # new state -> (least word, parent, letter)
        for i, batch in zip(frontier, batches):
            for k, q in enumerate(batch):
                if q not in index:
                    cand = words[i] + (k,)
                    if q not in found or cand < found[q][0]:
                        found[q] = (cand, i, k)
        for q in found if key is None else sorted(found, key=key):
            if len(states) >= cap:
                raise CapExceeded(message, len(states))
            index[q] = len(states)
            states.append(q)
            w, i, k = found[q]
            words.append(w)
            parent.append(i)
            last.append(k)
        # the frontier is the block of states numbered last, in order, so
        # each right[k] grows in index order
        for batch in batches:
            for k, q in enumerate(batch):
                right[k].append(index[q])
        frontier = range(len(states) - len(found), len(states))
    left = [[r[0]] for r in right]  # left[k][q] = k * q
    for row in left:
        for k, i in zip(last[1:], parent[1:]):
            row.append(right[k][row[i]])
    # read_at[k](rows[i]) is row i read at left[k]; with two or more states
    # it is a tuple (with one there is no row to read)
    read_at = [itemgetter(*row) for row in left]
    rows = [tuple(range(len(states)))]
    for p in range(1, len(states)):
        rows.append(read_at[last[p]](rows[parent[p]]))
    return states, words, tuple(rows)


def generate_from_transformations(
    degree: int,
    gens: Mapping[str, Sequence[int]],
) -> tuple[FiniteMonoid, GeneratorMap]:
    """Close named maps on {0..degree-1} under composition, identity adjoined.

    Elements are ordered by shortlex-first generator word (generators in the
    given order), each is named by that word (``1`` for the empty one), and
    `_closure` reads the table off the search.  CapExceeded past
    configured_cap(DEFAULT_ELEMENT_CAP) elements, which MONO_CAP sets.
    Returns the monoid and the generator map.
    """
    if degree < 1:
        raise InputError("degree must be >= 1")
    names, maps = [], []
    for name, m in gens.items():
        _check_name(name)
        m = tuple(m)
        if len(m) != degree or any(not 0 <= v < degree for v in m):
            raise InputError(f"generator {name!r} is not a map on {degree} points")
        names.append(name)
        maps.append(m)
    cap = configured_cap(DEFAULT_ELEMENT_CAP)
    elems, words, table = _closure(
        tuple(range(degree)), lambda x, k: tuple(map(maps[k].__getitem__, x)),
        len(maps), cap, f"transformation closure exceeded cap of {cap} elements")
    labels = tuple("".join(map(names.__getitem__, w)) or "1" for w in words)
    if len(set(labels)) != len(labels):
        raise InputError("generator words collide as element names; rename generators")
    M = FiniteMonoid(labels, 0, table)
    return M, generator_map(M, {name: elems.index(m) for name, m in zip(names, maps)})


class GreensData(Record):
    """Green's relation partitions (class index per element) and the
    containment order on J-classes."""

    r_class: tuple[int, ...]
    l_class: tuple[int, ...]
    j_class: tuple[int, ...]
    h_class: tuple[int, ...]
    r_classes: tuple[tuple[int, ...], ...]
    l_classes: tuple[tuple[int, ...], ...]
    j_classes: tuple[tuple[int, ...], ...]
    h_classes: tuple[tuple[int, ...], ...]
    j_leq: tuple[tuple[bool, ...], ...]


def _classify(keys) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    class_of = []
    classes: list[list[int]] = []
    seen: dict = {}
    for x, k in enumerate(keys):
        c = seen.get(k)
        if c is None:
            c = len(classes)
            seen[k] = c
            classes.append([])
        class_of.append(c)
        classes[c].append(x)
    return tuple(class_of), tuple(tuple(c) for c in classes)


def _sccs(n: int, maps: Sequence[Sequence[int]]) -> list[int]:
    """The strongly connected components of the graph on 0..n-1 with an
    edge x -> m[x] for each m in maps, as a component id per node.

    Tarjan's algorithm (SIAM J. Comput., 1972), O(n * |maps|), on an
    explicit stack, since a path can be as long as n.  Ids are given in
    the order the components complete, which is reverse topological: an
    edge between two components leads to the one with the lower id."""
    num = [0] * n  # 1 + preorder number; 0 while unvisited
    low = [0] * n
    comp = [-1] * n
    path: list[int] = []  # visited nodes not yet in a component
    count = done = 0
    for root in range(n):
        if num[root]:
            continue
        count += 1
        num[root] = low[root] = count
        path.append(root)
        dfs = [(root, iter([m[root] for m in maps]))]
        while dfs:
            v, edges = dfs[-1]
            for w in edges:
                if not num[w]:
                    count += 1
                    num[w] = low[w] = count
                    path.append(w)
                    dfs.append((w, iter([m[w] for m in maps])))
                    break
                if comp[w] < 0 and num[w] < low[v]:
                    low[v] = num[w]
            else:
                dfs.pop()
                if dfs and low[v] < low[dfs[-1][0]]:
                    low[dfs[-1][0]] = low[v]
                if low[v] == num[v]:
                    w = -1
                    while w != v:
                        w = path.pop()
                        comp[w] = done
                    done += 1
    return comp


def _cayley_maps(M: FiniteMonoid) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The right and left Cayley graphs of M over its greedy generators a,
    as successor maps: x -> x*a and x -> a*x.  The identity, which adds
    only loops, is left out.  Since every element is a product of the
    generators, on an associative table y is reachable from x in the right
    graph exactly when y is in xM, in the left one when y is in Mx, and in
    both together when y is in MxM."""
    t, e = M.table, M.identity
    A = [a for a in M._generators if a != e]
    return [[row[a] for row in t] for a in A], [t[a] for a in A]


def greens(M: FiniteMonoid) -> GreensData:
    """Green's relations of a validated monoid, from the strongly connected
    components of its Cayley graphs over the greedy generators (Froidure &
    Pin, "Algorithms for computing finite semigroups", 1997): R-classes in
    the right graph, L-classes in the left one and J-classes, which equal
    D-classes in a finite monoid, in both together.  H pairs the R- and
    L-class numbers.  O(order * |A|) for the generators A, plus O(#J^2) for
    the J-order, read off the J-classes in topological order: a class lies
    below every class with a path to it.  The table must be associative."""
    n = M.order
    right, left = _cayley_maps(M)
    r_of, r_classes = _classify(_sccs(n, right))
    l_of, l_classes = _classify(_sccs(n, left))
    h_of, h_classes = _classify(zip(r_of, l_of))
    edges = right + left
    comp = _sccs(n, edges)
    j_of, j_classes = _classify(comp)
    # above[c] has bit b set when J(c) <= J(b); Tarjan's ids fall from the
    # sources, so each class is complete before it passes on its bits
    k = len(j_classes)
    above = [0] * k
    for c in sorted(range(k), key=lambda c: comp[j_classes[c][0]], reverse=True):
        bits = above[c] = above[c] | 1 << c
        for d in {j_of[m[x]] for x in j_classes[c] for m in edges}:
            above[d] |= bits
    j_leq = tuple(tuple(map("1".__eq__, f"{bits:0{k}b}"[::-1])) for bits in above)
    return GreensData(r_of, l_of, j_of, h_of,
                      r_classes, l_classes, j_classes, h_classes, j_leq)


def _regular_elements(M: FiniteMonoid) -> list[int]:
    """The regular elements of a validated monoid: those whose R-class,
    a component of the right Cayley graph, holds an idempotent.  If a R e
    with e*e = e, then e = a*b for some b and a = e*a = a*b*a; if a = a*b*a,
    then a*b is idempotent and R-related to a."""
    r_of = _sccs(M.order, _cayley_maps(M)[0])
    held = {r_of[e] for e in M.idempotents()}
    return [a for a in range(M.order) if r_of[a] in held]


def is_regular(M: FiniteMonoid, a: int) -> tuple[bool, int | None]:
    """Least b with a*b*a == a."""
    t = M.table
    witness = None
    for b in range(M.order):
        if t[t[a][b]][a] == a:
            witness = b
            break
    return witness is not None, witness


def is_aperiodic(M: FiniteMonoid) -> tuple[bool, int | None]:
    """x^omega == x^omega * x for every x, that is every x has period 1; the
    witness is the least x of period p > 1.  On an unvalidated table that is
    not associative the period of the left-nested walk decides."""
    t, e = M.table, M.identity
    bad = next((a for a in range(M.order) if _cycle(t, e, a)[2] > 1), None)
    return bad is None, bad


def is_group_element(M: FiniteMonoid, a: int) -> bool:
    """a lies in the maximal subgroup of its H-class, i.e. a == a^omega * a."""
    w = M.omega_power(a)
    return M.table[w][a] == a


def ideal_generated(M: FiniteMonoid, gens: Iterable[int]) -> tuple[int, ...]:
    """The two-sided ideal {x*a*y : a in gens}, as a sorted element tuple.

    Every element of M is a product of the greedy generators A, so M*G*M
    is the closure of G under multiplication by A on either side: O(|I| *
    |A|) for the ideal I, after O(order * |A|) to find A on the first call
    for M."""
    gens = dict.fromkeys(gens)
    if not gens:
        raise InputError("ideal needs at least one generator")
    for x in gens:
        if not 0 <= x < M.order:
            raise InputError(f"ideal generator {x} out of range")
    A = M._generators
    return tuple(sorted(_reach(M.table, list(gens), A, A)))


def is_ideal(M: FiniteMonoid, S: Iterable[int]) -> bool:
    """Non-empty, inside 0..order-1 and closed under multiplication on
    either side; with an identity this is M*S*M == S."""
    s = set(S)
    return bool(s) and s <= set(range(M.order)) and set(ideal_generated(M, s)) == s


def _require_ideal(M: FiniteMonoid, S: Iterable[int]) -> set[int]:
    s = set(S)
    if not is_ideal(M, s):
        raise InputError("input set is not an ideal")
    return s


def is_prime_ideal(M: FiniteMonoid, I: Iterable[int]) -> tuple[bool, tuple[int, int] | None]:
    """No product of two outside elements may land inside; witness pair
    otherwise, the least (a, b) in element order.  Each outside row is read
    whole, and b is looked for only in the first row that fails."""
    inside = _require_ideal(M, I)
    outside = [x for x in range(M.order) if x not in inside]
    for a in outside:
        row = M.table[a]
        if not inside.isdisjoint(map(row.__getitem__, outside)):
            return False, (a, next(b for b in outside if row[b] in inside))
    return True, None


def is_idempotent_ideal(M: FiniteMonoid, I: Iterable[int]) -> bool:
    """I*I == I, decided as: I is generated by its idempotents E.  If I =
    M*E*M, each a = u*e*v in I is (u*e)*(e*v), in I*I.  Conversely, if I*I
    = I then each a in I is a product of more than order factors from I;
    two of its prefixes are equal, p = p*w with w in I, so p = p*w^omega
    and a lies in M*e*M for the idempotent e = w^omega of I."""
    inside = _require_ideal(M, I)
    return set(ideal_generated(M, [e for e in inside if M.is_idempotent(e)])) == inside


def minimal_ideal(M: FiniteMonoid) -> tuple[int, ...]:
    """The kernel: the unique smallest ideal."""
    # The product of all elements lies in every ideal, so its principal
    # ideal is contained in every ideal and is itself one.
    return ideal_generated(M, (_product(M, range(M.order)),))
