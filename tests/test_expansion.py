import os
import random
from functools import reduce
from itertools import combinations, product
from pathlib import Path

import pytest

from monoidkit import (CapExceeded, CutProfile, InputError, build_expansion,
                       check_eta_aperiodic, check_refinement, cut,
                       generate_from_transformations, generator_map, is_aperiodic,
                       load_table, profile_product, serialize_monoid, word_image)
from monoidkit.cli import _expansion_sidecar, cli_dispatch
from monoidkit.expansion import DEFAULT_PROFILE_CAP, ExpandedMonoid
from monoidkit.monoid import configured_cap
from monoidkit.words import _spread, _squeeze, _step
from catalog import flipflop, n3, t2, trivial, z2, z3
from helpers import (all_words, check_eta_aperiodic_by_omega, generator_map_bfs,
                     identity_profile, letter_profile, profile_index,
                     word_profile)

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_letter_profile_examples(cat):
    M, g = cat["z2"]
    assert letter_profile(M, g, "a", 1).tuples == ((1,),)
    assert letter_profile(M, g, "a", 2).tuples == ((0, 1), (1, 0))
    # a letter mapped to the identity collapses all slot placements
    g_id = generator_map(M, {"c": 0})
    assert letter_profile(M, g_id, "c", 3).tuples == ((0, 0, 0),)
    with pytest.raises(InputError):
        letter_profile(M, g, "z", 2)


def test_profile_product_identity_laws(cat):
    for _, (M, g) in cat.items():
        for n in (1, 2, 3):
            one = identity_profile(M, n)
            for w in all_words("ab", 3):
                p = cut(M, g, w, n)
                assert profile_product(M, n, p, one) == p
                assert profile_product(M, n, one, p) == p


def test_profile_product_z2_hand_example(cat):
    M, g = cat["z2"]
    p1 = letter_profile(M, g, "a", 2)
    assert profile_product(M, 2, p1, p1).tuples == ((0, 0), (1, 1))


def test_profile_product_arity_mismatch(cat):
    M, g = cat["z2"]
    with pytest.raises(InputError):
        profile_product(M, 2, letter_profile(M, g, "a", 2), letter_profile(M, g, "a", 3))


def test_profile_product_matches_concatenation(cat):
    # cut(u) * cut(v) == cut(uv) for all u, v of length <= 5
    for _, (M, g) in cat.items():
        for n in (1, 2, 3):
            single = {w: cut(M, g, w, n) for w in all_words("ab", 5)}
            joined: dict[str, CutProfile] = {}
            for u in all_words("ab", 5):
                for v in all_words("ab", 5):
                    uv = u + v
                    if uv not in joined:
                        joined[uv] = cut(M, g, uv, n)
                    assert profile_product(M, n, single[u], single[v]) == joined[uv]


def test_expansion_of_trivial_monoid(cat):
    M, g = cat["trivial"]
    for n in (1, 2, 3):
        assert build_expansion(M, g, n).order == 1


def test_arity_one_expansion_is_isomorphic(cat):
    for _, (M, g) in cat.items():
        E = build_expansion(M, g, 1)
        assert E.order == M.order
        assert sorted(E.eta) == list(range(M.order))
        for i in range(E.order):
            for j in range(E.order):
                assert E.eta[E.table[i][j]] == M.mul(E.eta[i], E.eta[j])


def test_z2_single_generator_expansion():
    M = z2()
    g = generator_map(M, {"a": 1})
    E = build_expansion(M, g, 2)
    assert E.order == 3
    assert E.profiles == (
        CutProfile(2, ((0, 0),)),
        CutProfile(2, ((0, 1), (1, 0))),
        CutProfile(2, ((0, 0), (1, 1))),
    )
    assert E.representatives == ("", "a", "aa")
    assert [len(E.fiber(e)) for e in range(M.order)] == [2, 1]
    # {P1, P2} is a two-cycle with P2 as its local identity
    assert E.table[1][1] == 2
    assert E.table[1][2] == 1 and E.table[2][1] == 1
    assert E.table[2][2] == 2


def test_eta_surjects_onto_generated_submonoid(cat):
    for _, (M, g) in cat.items():
        for n in (1, 2, 3):
            E = build_expansion(M, g, n)
            mapping = dict(zip(g.alphabet, g.images))
            assert tuple(sorted(set(E.eta))) == generator_map_bfs(M, mapping)[1]
            for i in range(E.order):
                for j in range(E.order):
                    assert E.eta[E.table[i][j]] == M.mul(E.eta[i], E.eta[j])


def test_generated_size_is_the_size_of_the_generated_submonoid(tmp_path, capsys, fx):
    # every fixture map at n = 1..3, and z3 with its one letter sent to the identity
    cases = [(name, M, g, n) for name, (M, g) in fx.items() for n in (1, 2, 3)]
    cases.append(("z3-a0", z3(), generator_map(z3(), {"a": 0}), 2))
    for name, M, g, n in cases:
        path = tmp_path / f"{name}.mon"
        path.write_text(serialize_monoid(M))
        mapping = dict(zip(g.alphabet, g.images))
        gens = ",".join(f"{a}={M.names[x]}" for a, x in mapping.items())
        cli_dispatch(["expand", str(path), "-n", str(n), "--gens", gens,
                      "--format", "machine"])
        fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        generated = generator_map_bfs(M, mapping)[1]
        assert fields["generated_size"] == str(len(generated)), (name, n)


def test_representative_round_trip(cat):
    for _, (M, g) in cat.items():
        for n in (1, 2, 3):
            E = build_expansion(M, g, n)
            for i in range(E.order):
                rep = E.representatives[i]
                assert cut(M, g, rep, n) == E.profiles[i]
                assert word_image(M, g, rep) == E.eta[i]


def test_profile_equality_is_a_congruence(cat):
    for _, (M, g) in cat.items():
        for n in (1, 2, 3):
            classes: dict[CutProfile, list[str]] = {}
            for w in all_words("ab", 4):
                classes.setdefault(cut(M, g, w, n), []).append(w)
            for profile, members in classes.items():
                rep = members[0]
                img = word_image(M, g, rep)
                for w in members[1:]:
                    assert word_image(M, g, w) == img
                    for c in "ab":
                        assert cut(M, g, rep + c, n) == cut(M, g, w + c, n)
                        assert cut(M, g, c + rep, n) == cut(M, g, c + w, n)


def test_eta_aperiodic_examples(cat):
    M = z2()
    g = generator_map(M, {"a": 1})
    E1 = build_expansion(M, g, 1)
    assert check_eta_aperiodic(E1) == (True, None)
    E2 = build_expansion(M, g, 2)
    assert E2.fiber(0) == (0, 2)
    assert check_eta_aperiodic(E2) == (True, None)
    for _, (Mc, gc) in cat.items():
        for n in (1, 2, 3):
            assert check_eta_aperiodic(build_expansion(Mc, gc, n)) == (True, None)


def times_z2(B, keep=lambda b, z: True):
    """The submonoid of B x Z2 on the pairs (b, z) that keep admits, identity
    first, as an ExpandedMonoid whose eta is the first coordinate: a kept
    (b, 1) has period 2, so the fiber over an idempotent b that holds it is
    not aperiodic."""
    pairs = [(B.identity, 0)] + [(b, z) for b in range(B.order) for z in (0, 1)
                                 if (b, z) != (B.identity, 0) and keep(b, z)]
    index = {q: k for k, q in enumerate(pairs)}
    table = tuple(tuple(index[B.table[b][c], (z + y) % 2] for c, y in pairs)
                  for b, z in pairs)
    E = ExpandedMonoid(B, generator_map(B, {"a": B.identity}), 1,
                       tuple(frozenset({(k,)}) for k in range(len(pairs))),
                       table, tuple(b for b, _ in pairs), ("",) * len(pairs))
    E.as_monoid().validate()
    return E


def test_eta_aperiodic_names_the_first_periodic_fiber(fx):
    # Z2's table over the trivial monoid: both elements project to 1
    E = times_z2(trivial())
    assert E.table == z2().table and E.eta == (0, 0)
    cases = [(E, (0, 1))]
    # over N3's idempotents 1 and 0: the fiber of 1 is {1}, aperiodic, and
    # the fiber of 0 holds (0, 1), numbered 3
    cases.append((times_z2(n3(), lambda b, z: z == 0 or b == 2), (2, 3)))
    # over the flip-flop's idempotents 1, s and r: 1's fiber is aperiodic,
    # and both s and r have one of period 2; s comes first
    cases.append((times_z2(flipflop(), lambda b, z: b != 0), (1, 2)))
    for E, witness in cases:
        assert check_eta_aperiodic(E) == (False, witness)
        assert check_eta_aperiodic_by_omega(E) == (False, witness)
    # and the expansions of every fixture, which all pass
    for M, g in fx.values():
        for n in (1, 2, 3):
            E = build_expansion(M, g, n)
            assert check_eta_aperiodic(E) == check_eta_aperiodic_by_omega(E)


def test_aperiodic_base_gives_aperiodic_expansion(cat):
    for name in ("trivial", "n3", "flipflop"):
        M, g = cat[name]
        for n in (1, 2, 3):
            E = build_expansion(M, g, n)
            ok, _ = is_aperiodic(E.as_monoid())
            assert ok


def test_non_generating_map_expands_the_submonoid():
    M = z3()
    g = generator_map(M, {"a": 0})
    assert generator_map_bfs(M, {"a": 0}) == (g, (0,))
    E = build_expansion(M, g, 2)
    assert E.order == 1
    assert set(E.eta) == {0}


def test_expansion_cap(monkeypatch):
    monkeypatch.setenv("MONO_CAP", "10")
    M = z3()
    g = generator_map(M, {"a": 1, "b": 2})
    with pytest.raises(CapExceeded) as ei:
        build_expansion(M, g, 3)
    assert ei.value.count == 10


def test_refinement_examples(cat):
    M = z2()
    g = generator_map(M, {"a": 1})
    assert check_refinement(build_expansion(M, g, 2), build_expansion(M, g, 1))
    for _, (Mc, gc) in cat.items():
        for n in (1, 2):
            hi = build_expansion(Mc, gc, n + 1)
            lo = build_expansion(Mc, gc, n)
            assert check_refinement(hi, lo)


def test_refinement_across_construction_routes():
    # T2 built by closure and T2 loaded from its .mon file are one monoid
    text = (FIXDIR / "T2.mon").read_text()
    closed = generate_from_transformations(
        2, {"s": (1, 0), "c1": (0, 0), "c2": (1, 1)})[0]
    assert serialize_monoid(closed) == text
    E = {}
    for n, M in ((2, closed), (1, load_table(text))):
        g = generator_map(M, {"a": M.element("s"), "b": M.element("c1")})
        E[n] = build_expansion(M, g, n)
    assert check_refinement(E[2], E[1]) is True


def test_refinement_ignores_the_order_of_the_letters():
    # one map listed as a, b and as b, a: the same expansions, so the check
    # holds; a map that sends a letter elsewhere, or another base, raises
    M = t2()
    s, c1 = M.element("s"), M.element("c1")
    hi = build_expansion(M, generator_map(M, {"a": s, "b": c1}), 2)
    lo = build_expansion(M, generator_map(M, {"b": c1, "a": s}), 1)
    assert check_refinement(hi, lo) is True
    for other, images in ((M, {"b": s, "a": c1}), (z2(), {"b": 0, "a": 1})):
        with pytest.raises(InputError, match="different bases or generators"):
            check_refinement(hi, build_expansion(other, generator_map(other, images), 1))


def test_refinement_input_errors(cat):
    Ma, ga = cat["z2"]
    Mb, gb = cat["z3"]
    with pytest.raises(InputError):
        check_refinement(build_expansion(Ma, ga, 2), build_expansion(Mb, gb, 1))
    with pytest.raises(InputError):
        check_refinement(build_expansion(Ma, ga, 3), build_expansion(Ma, ga, 1))


def product_table(E):
    """The table by brute force: one profile product per pair of profiles."""
    index = profile_index(E)
    return tuple(
        tuple(index[profile_product(E.base, E.n, p, q)] for q in E.profiles)
        for p in E.profiles)


def test_table_matches_profile_product_oracle(cat):
    cases = [(name, n) for name in cat for n in (1, 2, 3)]
    cases += [("z3", 4), ("n3", 4), ("flipflop", 4)]
    for name, n in cases:
        M, g = cat[name]
        E = build_expansion(M, g, n)
        assert E.table == product_table(E), (name, n)


def build_expansion_spread(M, g, n):
    """The earlier build_expansion, kept as an oracle: it keys the search
    on padded CutProfiles, spreads every letter step of every frontier
    profile, and checks that all tuples of a profile give one eta."""
    if n < 1:
        raise InputError("arity must be >= 1")
    cap = configured_cap(DEFAULT_PROFILE_CAP)
    ident = identity_profile(M, n)
    letters = [g.image(a) for a in g.alphabet]
    profiles = [ident]
    words = [""]
    parent = [0]
    last = [0]
    right = [[] for _ in letters]
    index = {ident: 0}
    frontier = [0]
    while frontier:
        batches = [[_spread(M, n, _step(M, n, seqs, x)) for x in letters]
                   for seqs in (_squeeze(M, profiles[i]) for i in frontier)]
        found = {}
        for i, batch in zip(frontier, batches):
            for k, q in enumerate(batch):
                if q in index:
                    continue
                cand = words[i] + g.alphabet[k]
                prev = found.get(q)
                if prev is None or cand < prev[0]:
                    found[q] = (cand, i, k)
        new = sorted(found, key=lambda p: p.tuples)
        for q in new:
            if len(profiles) >= cap:
                raise CapExceeded(
                    f"expansion exceeded cap of {cap} profiles", len(profiles))
            index[q] = len(profiles)
            profiles.append(q)
            w, i, k = found[q]
            words.append(w)
            parent.append(i)
            last.append(k)
        for batch in batches:
            for k, q in enumerate(batch):
                right[k].append(index[q])
        frontier = [index[q] for q in new]

    eta = []
    for p in profiles:
        vals = {reduce(M.mul, t, M.identity) for t in p.tuples}
        assert len(vals) == 1  # every tuple of a profile multiplies to one image
        eta.append(vals.pop())
    columns = [range(len(profiles))]
    for q in range(1, len(profiles)):
        columns.append(list(map(right[last[q]].__getitem__, columns[parent[q]])))
    table = tuple(zip(*columns))
    return ExpandedMonoid(M, g, n, tuple(frozenset(_squeeze(M, p)) for p in profiles), table,
                          tuple(eta), tuple(words))


def spread_by_slots(M, n, seqs):
    """The earlier _spread, kept as an oracle: each placement written slot
    by slot into a list of identities."""
    tuples = []
    for s in seqs:
        for slots in combinations(range(n), len(s)):
            t = [M.identity] * n
            for k, x in zip(slots, s):
                t[k] = x
            tuples.append(tuple(t))
    return CutProfile(n, tuple(sorted(tuples)))


def test_spread_matches_the_slot_loop(fx):
    # every profile of every fixture expansion at n = 1..4, except b21 at
    # n = 4, which reaches the profile cap
    for name, (M, g) in fx.items():
        for n in range(1, 4 if name == "b21" else 5):
            for q in build_expansion(M, g, n).sequences:
                assert _spread(M, n, q) == spread_by_slots(M, n, q), (name, n)
    # no sequence; every set at n = 1; lengths 0, 1 and 2 together at
    # n = 40, and 0 and 2 without 1
    M, _ = fx["flipflop"]     # identity 0
    short = [(), (1,), (2,)]
    sets = [[s for s, keep in zip(short, bits) if keep]
            for bits in product((0, 1), repeat=len(short))]
    pairs = list(product((1, 2), repeat=2))
    cases = [(n, q) for q in sets for n in (1, 3)]
    cases += [(40, short + pairs), (40, [(), *pairs[:2]])]
    for n, q in cases:
        assert _spread(M, n, q) == spread_by_slots(M, n, q), (n, q)


def listed_backwards(M, g):
    """The letter map g with its letters listed in the reverse order."""
    return generator_map(M, {a: g.image(a) for a in reversed(g.alphabet)})


def spread_oracle_cases(fx):
    cases = [(name, n) for name in ("trivial", "z2", "z3", "n3", "flipflop")
             for n in (1, 2, 3, 4)]
    cases += [("t2", n) for n in (1, 2, 3)] + [("b21", n) for n in (1, 2)]
    out = [(name, n, *fx[name]) for name, n in cases]
    # the same maps listed as b, a: an alphabet out of symbol order
    return out + [(name + ":ba", n, M, listed_backwards(M, g))
                  for name, n, M, g in out if name in ("z3", "flipflop", "t2", "b21")]


def test_build_matches_spread_oracle(fx):
    for name, n, M, g in spread_oracle_cases(fx):
        E, F = build_expansion(M, g, n), build_expansion_spread(M, g, n)
        assert E.profiles == F.profiles, (name, n)
        assert E.table == F.table, (name, n)
        assert E.eta == F.eta, (name, n)
        assert E.representatives == F.representatives, (name, n)


def test_letter_order_does_not_change_the_expansion(fx):
    # the search runs over the letters in symbol order, so its least words
    # are the shortlex-least strings however the map lists its letters
    for name, n, M, g in spread_oracle_cases(fx):
        E, F = build_expansion(M, g, n), build_expansion(M, listed_backwards(M, g), n)
        assert E.gmap.alphabet != F.gmap.alphabet, (name, n)
        assert E.profiles == F.profiles, (name, n)
        assert E.table == F.table, (name, n)
        assert E.eta == F.eta, (name, n)
        assert E.representatives == F.representatives, (name, n)


def test_every_tuple_multiplies_to_eta(fx):
    for name, n, M, g in spread_oracle_cases(fx):
        E = build_expansion(M, g, n)
        for p, e in zip(E.profiles, E.eta):
            assert {reduce(M.mul, t, M.identity) for t in p.tuples} == {e}, (name, n)


@pytest.mark.parametrize("limit", [2, 12, 30, 42])
def test_tuple_cap_stops_where_the_spread_oracle_does(monkeypatch, fx, limit):
    # the first profile over the tuple cap is the same in both searches
    monkeypatch.setattr("monoidkit.words.MAX_PROFILE_TUPLES", limit)
    M, g = fx["b21"]
    with pytest.raises(CapExceeded) as new:
        build_expansion(M, g, 3)
    with pytest.raises(CapExceeded) as old:
        build_expansion_spread(M, g, 3)
    assert (str(new.value), new.value.count) == (str(old.value), old.value.count)


def expansion_outcome(build, M, g, n):
    try:
        E = build(M, g, n)
    except CapExceeded as exc:
        return str(exc), exc.count
    return E.profiles, E.table, E.eta, E.representatives


@pytest.mark.parametrize("name, n, order", [("z3", 3, 24), ("b21", 2, 71), ("b21", 3, 1835)])
@pytest.mark.parametrize("cap", [1, 2, 10, -1, 0])  # -1, 0: order - 1, order
def test_expansion_cap_stops_where_the_spread_oracle_does(monkeypatch, fx, name, n, order,
                                                          cap):
    M, g = fx[name]
    cap = cap if cap > 0 else order + cap
    monkeypatch.setenv("MONO_CAP", str(cap))
    got = expansion_outcome(build_expansion, M, g, n)
    assert got == expansion_outcome(build_expansion_spread, M, g, n)
    if cap < order:
        assert got == (f"expansion exceeded cap of {cap} profiles", cap)
    else:
        assert len(got[0]) == order


def test_tuple_cap_comes_before_the_profile_cap(monkeypatch, fx):
    # at 12 tuples the b21 search first spreads a profile past the tuple cap
    # in the generation after the one that ends at 15 profiles, so every cap
    # from 15 up meets that generation's tuple-cap error first
    monkeypatch.setattr("monoidkit.words.MAX_PROFILE_TUPLES", 12)
    M, g = fx["b21"]
    for cap in range(1, 20):
        monkeypatch.setenv("MONO_CAP", str(cap))
        got = expansion_outcome(build_expansion, M, g, 3)
        assert got == expansion_outcome(build_expansion_spread, M, g, 3), cap
        assert got == ((f"expansion exceeded cap of {cap} profiles", cap) if cap < 15
                       else ("cut profile of 15 tuples exceeds cap of 12", 15)), cap


def test_each_profile_is_spread_once(monkeypatch, cat):
    # the build spreads each profile it sorts, every one but the identity's;
    # the sidecar spreads each once more, as its lines are drawn, and keeps
    # none; the first read of E.profiles spreads each once, a second none
    calls = []

    def counting_spread(*args):
        calls.append(1)
        return _spread(*args)

    monkeypatch.setattr("monoidkit.expansion._spread", counting_spread)
    for name, (M, g) in cat.items():
        calls.clear()
        E = build_expansion(M, g, 3)
        assert len(calls) == E.order - 1, name
        calls.clear()
        for _ in _expansion_sidecar(E):
            pass
        assert len(calls) == E.order and "profiles" not in vars(E), name
        calls.clear()
        profiles = E.profiles
        assert len(calls) == E.order, name
        assert E.profiles is profiles and len(calls) == E.order, name


def check_refinement_by_tuples(E_hi, E_lo):
    """The earlier check_refinement, kept as an oracle: truncate each
    spread tuple that ends in the identity and look the result up in
    E_lo's profile index."""
    if E_hi.base != E_lo.base or E_hi.gmap != E_lo.gmap:
        raise InputError("expansions have different bases or generators")
    if E_hi.n != E_lo.n + 1:
        raise InputError("refinement needs arities n+1 and n")
    e = E_hi.base.identity
    n = E_lo.n
    index = profile_index(E_lo)
    f = []
    for p in E_hi.profiles:
        q = CutProfile.make(n, (t[:-1] for t in p.tuples if t[-1] == e))
        k = index.get(q)
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


def broken_copies(E):
    """Copies of E that fail check_refinement on either side: the
    identity's row swapped with the row of the first profile whose eta is
    not the identity (the refinement maps it to a profile whose row differs
    from the identity's too), and the last profile's eta moved to another
    base element."""
    x = next((x for x in range(E.order) if E.eta[x] != E.eta[0]), None)
    if x is not None:
        table = list(E.table)
        table[0], table[x] = table[x], table[0]
        yield ExpandedMonoid(E.base, E.gmap, E.n, E.sequences, tuple(table),
                             E.eta, E.representatives)
    if E.base.order > 1:
        eta = E.eta[:-1] + ((E.eta[-1] + 1) % E.base.order,)
        yield ExpandedMonoid(E.base, E.gmap, E.n, E.sequences, E.table,
                             eta, E.representatives)


def test_refinement_matches_tuple_truncation_oracle(fx):
    # every fixture pair (n+1, n) for n = 1..3, except b21 at n = 4, which
    # reaches the profile cap; copies with a swapped table row or a moved
    # eta entry on either side must fail both checks
    for name, (M, g) in fx.items():
        E = {n: build_expansion(M, g, n) for n in range(1, 4 if name == "b21" else 5)}
        for n in range(1, len(E)):
            hi, lo = E[n + 1], E[n]
            assert check_refinement(hi, lo) is check_refinement_by_tuples(hi, lo) is True
            broken = [(bad, lo) for bad in broken_copies(hi)]
            broken += [(hi, bad) for bad in broken_copies(lo)]
            assert broken or name == "trivial", (name, n)
            for h, lo_ in broken:
                assert check_refinement(h, lo_) is check_refinement_by_tuples(h, lo_) is False


def _last_nonidentity(t, e):
    for k in range(len(t) - 1, -1, -1):
        if t[k] != e:
            return k
    return -1


def profile_product_padded(M, n, s, t):
    """The earlier profile_product, kept as an oracle: glue a prefix
    reading of s to a suffix reading of t at every cut index, identity
    padding supplying the shorter readings."""
    if s.n != n or t.n != n:
        raise InputError("profile arity mismatch")
    e = M.identity
    table = M.table
    out = set()
    tt = [(tup, _last_nonidentity(tup, e)) for tup in t.tuples]
    for stup in s.tuples:
        lo = max(1, _last_nonidentity(stup, e) + 1)
        for ttup, pt in tt:
            hi = n if pt < 0 else n - pt
            for i in range(lo, hi + 1):
                out.add(stup[:i - 1] + (table[stup[i - 1]][ttup[0]],) + ttup[1:n - i + 1])
    return CutProfile.make(n, out)


def test_profile_product_matches_padded_oracle(fx):
    # a MONO_SEED-pinned sample of pairs of arity-3 expansion profiles
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    for name, (M, g) in fx.items():
        E = build_expansion(M, g, 3)
        index = profile_index(E)
        for _ in range(150):
            p, q = rng.choice(E.profiles), rng.choice(E.profiles)
            pq = profile_product(M, 3, p, q)
            assert pq == profile_product_padded(M, 3, p, q), name
            assert index[pq] == E.table[index[p]][index[q]], name


def test_word_profile_equals_cut(cat):
    for _, (M, g) in cat.items():
        for w in all_words("ab", 4):
            for n in (1, 2, 3):
                assert word_profile(M, g, w, n) == cut(M, g, w, n)


def test_profile_product_on_seeded_long_words(cat):
    # spot checks past the exhaustive bound; MONO_SEED pins the sample
    import os
    import random
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    for _, (M, g) in cat.items():
        for _ in range(25):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(6, 12)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(6, 12)))
            n = rng.randint(1, 3)
            lhs = profile_product(M, n, cut(M, g, u, n), cut(M, g, v, n))
            assert lhs == cut(M, g, u + v, n)
