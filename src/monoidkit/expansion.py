"""The cut-profile expansion: the monoid of reachable profiles at a fixed
arity, projecting back onto the base monoid.

Two words are identified exactly when their cut profiles agree; that
identification is a finite-index congruence refining the word-image
kernel, so the reachable profiles form a monoid and the profile-to-image
map eta is a morphism onto the generated submonoid.
"""

from __future__ import annotations

from .monoid import (FiniteMonoid, GeneratorMap, InputError, Record, _cached,
                     _closure, _cycle, _product, configured_cap)
from .words import CutProfile, _spread, _squeeze, _step

DEFAULT_PROFILE_CAP = 20_000


def profile_product(M: FiniteMonoid, n: int, s: CutProfile, t: CutProfile) -> CutProfile:
    """Extend each non-identity sequence of s by one of t: t's first part
    takes the letter step and the rest follow as new parts.  Equals the
    profile of the concatenation when s and t are word profiles."""
    if s.n != n or t.n != n:
        raise InputError("profile arity mismatch")
    heads = _squeeze(M, s)
    out = set()
    for b in _squeeze(M, t):
        joined = _step(M, n, heads, b[0]) if b else heads
        out.update(c + b[1:] for c in joined if len(c) + len(b) <= n + 1)
    return _spread(M, n, out)


class ExpandedMonoid(Record):
    """The monoid of reachable cut profiles, with the projection eta onto
    the base and a shortlex-least representative word per profile.

    Each profile is stored as its set of non-identity sequences, the state
    the search works on; `profile(i)` spreads one into its n-tuples."""

    base: FiniteMonoid
    gmap: GeneratorMap
    n: int
    sequences: tuple[frozenset[tuple[int, ...]], ...]
    table: tuple[tuple[int, ...], ...]
    eta: tuple[int, ...]
    representatives: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.sequences)

    @property
    def identity(self) -> int:
        return 0

    def profile(self, i: int) -> CutProfile:
        """Profile i spread into its n-tuples, built afresh on each call."""
        return _spread(self.base, self.n, self.sequences[i])

    @_cached
    def profiles(self) -> tuple[CutProfile, ...]:
        return tuple(map(self.profile, range(self.order)))

    @_cached
    def names(self) -> tuple[str, ...]:
        return tuple(f"P{i}" for i in range(self.order))

    def as_monoid(self) -> FiniteMonoid:
        return FiniteMonoid(self.names, 0, self.table)

    def fiber(self, e: int) -> tuple[int, ...]:
        """All profiles projecting onto the base element e."""
        return tuple(x for x in range(self.order) if self.eta[x] == e)


def build_expansion(M: FiniteMonoid, g: GeneratorMap, n: int) -> ExpandedMonoid:
    """Breadth-first closure of the identity profile under the letter step
    that `cut` folds over a word, run on each profile's set of non-identity
    sequences, which is also what the result stores.

    Numbering is canonical: each generation of newly reached profiles is
    sorted by encoding (its spread tuples, built for the sort and then
    dropped) before numbering; representatives are
    shortlex-least words.  A non-generating map is fine: the result is the
    expansion of the generated submonoid, onto which eta maps, so its
    fibers are one per element of that submonoid.  CapExceeded past
    configured_cap(DEFAULT_PROFILE_CAP) profiles, which MONO_CAP sets.

    Profile equality is a congruence, so `_closure` reads the table off the
    right Cayley graph of the search without any profile products.
    """
    if n < 1:
        raise InputError("arity must be >= 1")
    cap = configured_cap(DEFAULT_PROFILE_CAP)
    alphabet = sorted(g.alphabet)  # so the least letter-index word is shortlex-least
    images = [g.image(a) for a in alphabet]
    seqs, words, table = _closure(
        frozenset({()}), lambda s, k: frozenset(_step(M, n, s, images[k])),
        len(images), cap, f"expansion exceeded cap of {cap} profiles",
        key=lambda q: _spread(M, n, q).tuples)
    # every sequence of a profile multiplies to the same image
    eta = tuple(_product(M, next(iter(s))) for s in seqs)
    return ExpandedMonoid(M, g, n, tuple(seqs), table, eta,
                          tuple("".join(map(alphabet.__getitem__, w)) for w in words))


def check_eta_aperiodic(E: ExpandedMonoid) -> tuple[bool, tuple[int, int] | None]:
    """Aperiodicity of the projection: over each idempotent of the base,
    the preimage is an aperiodic subsemigroup, so each of its profiles has
    period 1 in E.  Witness is (base idempotent, offending profile index).
    On an unvalidated table that is not associative the period of the
    left-nested walk decides."""
    for e in E.base.idempotents():
        for x in E.fiber(e):
            if _cycle(E.table, E.identity, x)[2] > 1:
                return False, (e, x)
    return True, None


def check_refinement(E_hi: ExpandedMonoid, E_lo: ExpandedMonoid) -> bool:
    """Truncation via padding maps the arity-(n+1) expansion onto the
    arity-n one; verify it is a well-defined surjective morphism commuting
    with eta.  The two letter maps must agree letter by letter; the order
    they list their letters in does not matter."""
    maps = [dict(zip(E.gmap.alphabet, E.gmap.images)) for E in (E_hi, E_lo)]
    if E_hi.base != E_lo.base or maps[0] != maps[1]:
        raise InputError("expansions have different bases or generators")
    if E_hi.n != E_lo.n + 1:
        raise InputError("refinement needs arities n+1 and n")
    # the tuples of a profile that end in the identity are the placements
    # of its sequences of at most n parts, so truncation keeps those
    n = E_lo.n
    lo = {q: k for k, q in enumerate(E_lo.sequences)}
    f = []
    for p in E_hi.sequences:
        k = lo.get(frozenset(s for s in p if len(s) <= n))
        if k is None:
            return False
        f.append(k)
    if set(f) != set(range(E_lo.order)):
        return False
    if f[0] != 0:
        return False
    if any(E_lo.eta[f[i]] != E_hi.eta[i] for i in range(E_hi.order)):
        return False
    for i in range(E_hi.order):
        hi_row = E_hi.table[i]
        for j in range(E_hi.order):
            if f[hi_row[j]] != E_lo.table[f[i]][f[j]]:
                return False
    return True
