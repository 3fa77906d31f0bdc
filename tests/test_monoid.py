import os
import random
import tracemalloc
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest

import monoidkit.cli
import monoidkit.formats
import monoidkit.monoid
import monoidkit.shadows
from monoidkit import (CapExceeded, GeneratorMap, InputError, Letter,
                       MembershipVerdict, build_expansion, cut, cut_brute,
                       dfa_to_transition_monoid, evaluate,
                       generate_from_transformations, generator_map, greens,
                       ideal_generated, ideal_product_shadow, is_aperiodic,
                       is_group_element, is_ideal, is_idempotent_ideal,
                       is_prime_ideal, is_regular, load_table, parse_dfa,
                       parse_tgen, replay_factorization)
from monoidkit.cli import cli_dispatch
from monoidkit.monoid import (DEFAULT_ELEMENT_CAP, FiniteMonoid, GreensData,
                              _check_name, _classify, _first_violation,
                              _greedy_generators, _product, _regular_elements,
                              configured_cap)
from catalog import b21, catalog, fixtures, flipflop, n3, t2, trivial, z2, z3
from helpers import (M52_GENS, T3_GENS, T4_GENS, frames_to_spare, generator_map_bfs,
                     greedy_generators_by_scan, greens_by_ideals, ideal_product,
                     is_aperiodic_by_omega, omega_power_by_search, power_by_squaring,
                     relabelled)

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def t3():
    """The full transformation monoid on 3 points (27 elements)."""
    M, _ = generate_from_transformations(3, T3_GENS)
    return M


@pytest.fixture(scope="module")
def oracle_monoids():
    """Every fixture, T3, and the catalog expansions at n = 1..3."""
    out = {name: M for name, (M, _) in fixtures().items()}
    out["T3"] = t3()
    for name, (M, g) in catalog().items():
        for n in (1, 2, 3):
            out[f"{name}@{n}"] = build_expansion(M, g, n).as_monoid()
    return out


def generate_pairwise(degree, gens):
    """Oracle: the transformation closure with its table built by composing
    every pair of elements, O(order^2 * degree)."""
    if degree < 1:
        raise InputError("degree must be >= 1")
    items = []
    for name, m in gens.items():
        _check_name(name)
        m = tuple(m)
        if len(m) != degree or any(not 0 <= v < degree for v in m):
            raise InputError(f"generator {name!r} is not a map on {degree} points")
        items.append((name, m))
    cap = configured_cap(DEFAULT_ELEMENT_CAP)
    ident = tuple(range(degree))
    elems = [ident]
    words = [""]
    index = {ident: 0}
    pos = 0
    while pos < len(elems):
        base = elems[pos]
        for name, m in items:
            nxt = tuple(m[base[p]] for p in range(degree))
            if nxt not in index:
                if len(elems) >= cap:
                    raise CapExceeded(
                        f"transformation closure exceeded cap of {cap} elements",
                        len(elems))
                index[nxt] = len(elems)
                elems.append(nxt)
                words.append(words[pos] + name)
        pos += 1
    names = tuple("1" if w == "" else w for w in words)
    if len(set(names)) != len(names):
        raise InputError("generator words collide as element names; rename generators")
    table = tuple(
        tuple(index[tuple(b[a[p]] for p in range(degree))] for b in elems)
        for a in elems)
    M = FiniteMonoid(names, 0, table)
    gm = generator_map(M, {name: index[m] for name, m in items})
    return M, gm


def greens_brute(M):
    """Oracle: Green's relations with MxM built as every u*x*v, O(n^3)."""
    n = M.order
    t = M.table
    rng = range(n)
    r_ideal = [frozenset(t[x]) for x in rng]
    l_ideal = [frozenset(t[y][x] for y in rng) for x in rng]
    j_ideal = [frozenset(t[t[u][x]][v] for u in rng for v in rng) for x in rng]
    r_of, r_classes = _classify(r_ideal)
    l_of, l_classes = _classify(l_ideal)
    j_of, j_classes = _classify(j_ideal)
    h_of, h_classes = _classify(list(zip(r_ideal, l_ideal)))
    reps = [cls[0] for cls in j_classes]
    j_leq = tuple(tuple(j_ideal[a] <= j_ideal[b] for b in reps) for a in reps)
    return GreensData(r_of, l_of, j_of, h_of,
                      r_classes, l_classes, j_classes, h_classes, j_leq)


def greens_by_subsets(M):
    """Oracle: Green's relations with MxM built once per element and the
    J-order as (#J)^2 subset tests between J-ideals."""
    n = M.order
    t = M.table
    rng = range(n)
    r_ideal = [frozenset(t[x]) for x in rng]
    l_ideal = [frozenset(t[y][x] for y in rng) for x in rng]
    j_ideal = [frozenset().union(*{l_ideal[r] for r in r_ideal[x]}) for x in rng]
    r_of, r_classes = _classify(r_ideal)
    l_of, l_classes = _classify(l_ideal)
    j_of, j_classes = _classify(j_ideal)
    h_of, h_classes = _classify(list(zip(r_ideal, l_ideal)))
    reps = [cls[0] for cls in j_classes]
    j_leq = tuple(tuple(j_ideal[a] <= j_ideal[b] for b in reps) for a in reps)
    return GreensData(r_of, l_of, j_of, h_of,
                      r_classes, l_classes, j_classes, h_classes, j_leq)


def validate_brute(M):
    """Oracle: validate's associativity and identity checks, with the full
    n^3 loop for associativity (the table is taken to be in shape)."""
    n = M.order
    t = M.table
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    na, nb, nc = M.names[a], M.names[b], M.names[c]
                    raise InputError(
                        f"not associative: ({na}*{nb})*{nc} != {na}*({nb}*{nc})")
    e = M.identity
    if not 0 <= e < n:
        raise InputError("identity index out of range")
    for x in range(n):
        if t[e][x] != x or t[x][e] != x:
            raise InputError(
                f"{M.names[e]!r} is not an identity (fails at {M.names[x]!r})")


def validate_verdict(check, M):
    try:
        check(M)
    except InputError as exc:
        return str(exc)
    return None


def ideal_generated_brute(M, gens):
    """Oracle: the ideal as every x*a*y, O(order^2 * |gens|)."""
    t = M.table
    rng = range(M.order)
    return tuple(sorted({t[t[x][a]][y] for a in gens for x in rng for y in rng}))


def is_ideal_two_sided(M, S):
    """Oracle: non-empty and closed under x*a*y for all x, y."""
    s = set(S)
    if not s:
        return False
    t = M.table
    rng = range(M.order)
    return all(t[t[x][a]][y] in s for a in s for x in rng for y in rng)


def is_ideal_by_cells(M, S):
    """Oracle: non-empty and closed under multiplication on either side,
    one cell at a time, O(|S| * order)."""
    s = set(S)
    if not s:
        return False
    t = M.table
    return all(t[x][a] in s and t[a][x] in s for a in s for x in range(M.order))


def is_idempotent_ideal_by_product(M, I):
    """Oracle: I*I == I, with I*I as the product of every pair."""
    inside = set(I)
    if not is_ideal_by_cells(M, inside):
        raise InputError("input set is not an ideal")
    return ideal_product(M, inside, inside) == tuple(sorted(inside))


def is_prime_ideal_by_cells(M, I):
    """Oracle: is_prime_ideal with one lookup per pair of outside elements."""
    inside = set(I)
    if not is_ideal_by_cells(M, inside):
        raise InputError("input set is not an ideal")
    outside = [x for x in range(M.order) if x not in inside]
    for a in outside:
        for b in outside:
            if M.table[a][b] in inside:
                return False, (a, b)
    return True, None


def ideal_product_shadow_fold(M, g, alphas, ideal_gens):
    """Oracle: ideal_product_shadow with the product of the ideals folded
    by ideal_product, O(|I| * |J|) per step."""
    m, n = len(alphas), len(ideal_gens)
    if m < 1 or n < 1:
        raise InputError("need at least one element and one ideal")
    if m > n:
        raise InputError(f"more elements than ideals ({m} > {n})")
    avals = [evaluate(t, M, g) for t in alphas]
    ideals = [ideal_generated(M, tuple(evaluate(t, M, g) for t in gens))
              for gens in ideal_gens]
    ideal_sets = [set(I) for I in ideals]
    product = _product(M, avals)
    iprod = ideals[0]
    for I in ideals[1:]:
        iprod = ideal_product(M, iprod, I)
    membership = tuple(
        tuple(avals[i] in ideal_sets[j] for j in range(n)) for i in range(m))
    hypothesis = product in set(iprod)
    witness = None
    if hypothesis:
        for j in range(n):
            for i in range(m):
                if membership[i][j]:
                    witness = (i + 1, j + 1)
                    break
            if witness:
                break
    return MembershipVerdict(hypothesis, witness, membership, product, iprod)


def outcome(f, *args):
    """f's value, or the type and text of the InputError it raises."""
    try:
        return f(*args)
    except InputError as exc:
        return type(exc), str(exc)


def ideal_oracle_cases(oracle_monoids):
    """Each oracle monoid, T4 and M52, with every union of at most two
    principal ideals, each such union less its least element, and 100
    MONO_SEED-seeded subsets."""
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    monoids = [*oracle_monoids.values(),
               generate_from_transformations(4, T4_GENS)[0],
               generate_from_transformations(4, M52_GENS)[0]]
    for M in monoids:
        principal = {ideal_generated_brute(M, (a,)) for a in range(M.order)}
        unions = sorted({tuple(sorted({*I, *J}))
                         for I, J in combinations_with_replacement(principal, 2)})
        sets = unions + [I[1:] for I in unions]
        sets += [tuple(rng.sample(range(M.order), rng.randint(1, M.order)))
                 for _ in range(100)]
        yield M, sets


def test_load_trivial():
    M = load_table("elements: e\nidentity: e\ntable:\ne\n")
    assert M.order == 1
    assert M.identity == 0


def test_load_z2():
    M = load_table("elements: 1 g\nidentity: 1\ntable:\n1 g\ng 1\n")
    assert M.order == 2
    assert M.names == ("1", "g")
    assert M.mul(1, 1) == 0


def test_load_comments_and_blanks():
    text = "# a comment\nelements: 1\n\nidentity: 1  # trailing\ntable:\n1\n"
    assert load_table(text).order == 1


def test_load_rejects_nonassociative_table():
    # no identity law can rescue this: (x*x)*y = x while x*(x*y) = y
    text = "elements: x y\nidentity: x\ntable:\ny x\nx x\n"
    with pytest.raises(InputError, match=r"not associative: \(x\*x\)\*y"):
        load_table(text)


def test_nonassociative_error_comes_before_identity_error():
    # 1 is not an identity (1*a = b), and (1*a)*a = b*a = a but 1*(a*a) = 1*b = b
    M = FiniteMonoid(("1", "a", "b"), 0,
                     ((0, 2, 2), (1, 2, 2), (2, 1, 2)))
    msg = "not associative: (1*a)*a != 1*(a*a)"
    assert validate_verdict(validate_brute, M) == msg
    with pytest.raises(InputError) as exc:
        M.validate()
    assert str(exc.value) == msg


def test_validate_matches_brute_oracle(oracle_monoids, cat):
    # every table, then seeded one- and two-entry mutations of each;
    # MONO_SEED pins the sample
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    tables = [*oracle_monoids.values(), *(M for M, _ in cat.values())]
    failures = 0
    for M in tables:
        assert validate_verdict(FiniteMonoid.validate, M) is None
        assert validate_verdict(validate_brute, M) is None
        n = M.order
        if n == 1:
            continue
        for k in (1, 2) * 12:
            rows = [list(row) for row in M.table]
            for _ in range(k):
                x, y = rng.randrange(n), rng.randrange(n)
                rows[x][y] = rng.choice([v for v in range(n) if v != rows[x][y]])
            Mx = FiniteMonoid(M.names, M.identity, tuple(map(tuple, rows)))
            verdict = validate_verdict(validate_brute, Mx)
            assert validate_verdict(FiniteMonoid.validate, Mx) == verdict
            failures += verdict is not None and verdict.startswith("not associative")
    assert failures > 100   # the sample does reach the fallback path


def test_unknown_element_error_names_the_first_unknown_token():
    text = "elements: a b\nidentity: a\ntable:\na b\nb y x\n"
    with pytest.raises(InputError, match="line 5: expected 2 entries, got 3"):
        load_table(text)
    text = "elements: a b\nidentity: a\ntable:\na b\ny x\n"
    with pytest.raises(InputError) as exc:
        load_table(text)
    assert str(exc.value) == "line 5: unknown element 'y'"


def test_light_test_on_the_one_element_table():
    assert _first_violation(((0,),), [0]) is None


@pytest.mark.parametrize("n, edits, expected", [
    # one violation in the last rows, with every element a generator
    (60, {(59, 58): 58}, "(z59*z59)*z58 != z59*(z59*z58)"),
    # the only violating pairs (a, b) are (z2, z6), from z6*z7 = z4 and
    # z2*z4 = z8, and (z5, z3), from z3*z10 = z11 and z5*z11 = z12: a scan
    # with b outer would name the second
    (14, {(6, 7): 4, (2, 4): 8, (3, 10): 11, (5, 11): 12},
     "(z2*z6)*z7 != z2*(z6*z7)"),
], ids=["late", "crossed"])
def test_validate_names_the_first_triple_of_a_late_violation(n, edits, expected):
    # a null monoid with identity: 1, 0, z2..z{n-1}, every other product 0
    names = ("1", "0", *(f"z{i}" for i in range(2, n)))
    rows = [list(range(n)), *([x] + [1] * (n - 1) for x in range(1, n))]
    for (x, y), v in edits.items():
        rows[x][y] = v
    M = FiniteMonoid(names, 0, tuple(map(tuple, rows)))
    assert validate_verdict(validate_brute, M) == f"not associative: {expected}"
    assert validate_verdict(FiniteMonoid.validate, M) == f"not associative: {expected}"


def test_load_rejects_bad_identity():
    text = "elements: x y\nidentity: x\ntable:\nx x\nx x\n"
    with pytest.raises(InputError, match="not an identity"):
        load_table(text)


@pytest.mark.parametrize("text", [
    "",
    "elements: a a\nidentity: a\ntable:\na a\na a\n",
    "elements: a b\nidentity: c\ntable:\na b\nb a\n",
    "elements: a b\nidentity: a\ntable:\na b\n",
    "elements: a b\nidentity: a\ntable:\na b c\nb a c\n",
    "elements: a b\nidentity: a\ntable:\na z\nb a\n",
    "identity: a\nelements: a\ntable:\na\n",
])
def test_load_parse_errors(text):
    with pytest.raises(InputError):
        load_table(text)


def test_catalog_tables_are_valid():
    for M in (trivial(), z2(), z3(), n3(), flipflop(), t2(), b21()):
        M.validate()


def test_generate_identity_only():
    M, _ = generate_from_transformations(2, {"a": (0, 1)})
    assert M.order == 1


def test_generate_swap_gives_z2():
    M, g = generate_from_transformations(2, {"a": (1, 0)})
    assert M.order == 2
    assert M.mul(1, 1) == 0
    assert M.names == ("1", "a")
    assert g.image("a") == 1


def test_generate_two_constants_gives_flipflop():
    M, g = generate_from_transformations(2, {"s": (0, 0), "r": (1, 1)})
    assert M.names == ("1", "s", "r")
    assert M.table == flipflop().table
    assert generator_map_bfs(M, {"s": 1, "r": 2}) == (g, (0, 1, 2))


def test_generate_cap(monkeypatch):
    monkeypatch.setenv("MONO_CAP", "2")
    with pytest.raises(CapExceeded):
        generate_from_transformations(2, {"s": (0, 0), "r": (1, 1)})


def closure_cases(monkeypatch):
    """(degree, gens) of every shipped .tgen and .dfa, T3, T4, a 52-element
    monoid of degree 4, and MONO_SEED-seeded random maps of degree 1..4."""
    seen = []

    def record(degree, gens):
        seen.append((degree, dict(gens)))
        return generate_from_transformations(degree, gens)

    monkeypatch.setattr(monoidkit.formats, "generate_from_transformations", record)
    for path in sorted(FIXDIR.glob("*.tgen")):
        parse_tgen(path.read_text())
    for path in sorted(FIXDIR.glob("*.dfa")):
        dfa_to_transition_monoid(parse_dfa(path.read_text()))
    assert len(seen) == 3
    cases = seen + [(3, T3_GENS), (4, T4_GENS), (4, M52_GENS)]
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    for _ in range(40):
        degree = rng.randint(1, 4)
        gens = {name: tuple(rng.randrange(degree) for _ in range(degree))
                for name in "xyz"[:rng.randint(0, 3)]}
        cases.append((degree, gens))
    return cases


def test_closure_matches_pairwise_oracle(monkeypatch):
    orders = []
    for degree, gens in closure_cases(monkeypatch):
        M, g = generate_from_transformations(degree, gens)
        M_ref, g_ref = generate_pairwise(degree, gens)
        assert M.names == M_ref.names, (degree, gens)
        assert M.table == M_ref.table, (degree, gens)
        assert M == M_ref and g == g_ref
        orders.append(M.order)
    assert orders[3:6] == [27, 256, 52]


def closure_outcome(closure, degree, gens):
    try:
        return closure(degree, gens)
    except CapExceeded as exc:
        return str(exc), exc.count


@pytest.mark.parametrize("cap", [1, 2, 5, 26, 27, 100, 255, 256])
def test_closure_cap_stops_where_the_pairwise_oracle_does(monkeypatch, cap):
    monkeypatch.setenv("MONO_CAP", str(cap))
    for degree, gens, order in ((3, T3_GENS, 27), (4, T4_GENS, 256)):
        got = closure_outcome(generate_from_transformations, degree, gens)
        assert got == closure_outcome(generate_pairwise, degree, gens)
        if cap < order:
            assert got == (
                f"transformation closure exceeded cap of {cap} elements", cap)
        else:
            assert got[0].order == order


def test_catalog_ignores_mono_cap(monkeypatch):
    monkeypatch.setenv("MONO_CAP", "1")
    assert fixtures()["t2"][0].order == 4


def test_generate_rejects_bad_map():
    with pytest.raises(InputError):
        generate_from_transformations(2, {"a": (0, 2)})


def test_mono_cap_env_is_honored(monkeypatch):
    monkeypatch.setenv("MONO_CAP", "2")
    with pytest.raises(CapExceeded):
        generate_from_transformations(2, {"s": (0, 0), "r": (1, 1)})


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
def test_mono_cap_env_rejects_non_positive_integers(monkeypatch, raw):
    monkeypatch.setenv("MONO_CAP", raw)
    with pytest.raises(InputError, match="MONO_CAP"):
        configured_cap(512)


def test_power_matches_repeated_multiplication(fx):
    for M, _ in fx.values():
        for a in range(M.order):
            acc = M.identity
            for k in range(2 * M.order + 3):
                assert M.power(a, k) == acc
                acc = M.mul(acc, a)
    M = z3()
    g = M.element("g")
    assert M.power(g, 10**10) == g  # 10^10 = 1 mod 3
    with pytest.raises(InputError, match="negative exponent"):
        M.power(g, -1)


def test_power_walk_matches_the_old_bodies(oracle_monoids):
    # every fixture, T3, T4, M52 and the catalog expansions at n = 1..3
    cases = dict(oracle_monoids)
    cases["T4"], _ = generate_from_transformations(4, T4_GENS)
    cases["M52"], _ = generate_from_transformations(4, M52_GENS)
    for name, M in cases.items():
        n = M.order
        for a in range(n):
            assert M.omega_power(a) == omega_power_by_search(M, a), (name, a)
            for k in (0, 1, n - 1, n, n + 1, 10**7, 10**4299):
                assert M.power(a, k) == power_by_squaring(M, a, k), (name, a, k)
        assert is_aperiodic(M) == is_aperiodic_by_omega(M), name


def test_multiply_and_power_examples():
    M = z2()
    assert M.mul(1, 1) == 0
    Mn = n3()
    a = Mn.element("a")
    assert Mn.power(a, 2) == Mn.element("0")
    assert Mn.power(a, 0) == Mn.identity


def test_omega_examples():
    assert z2().omega_power(1) == 0
    Mn = n3()
    assert Mn.omega_power(Mn.element("a")) == Mn.element("0")
    for M in (z2(), z3(), n3(), flipflop(), t2(), b21()):
        for e in M.idempotents():
            assert M.omega_power(e) == e


def test_omega_is_an_idempotent_power(fx):
    for M, _ in fx.values():
        for a in range(M.order):
            w = M.omega_power(a)
            assert M.is_idempotent(w)
            assert w in {M.power(a, k) for k in range(1, M.order + 1)}


def test_greens_z2():
    gd = greens(z2())
    assert len(gd.j_classes) == 1
    assert gd.h_classes == ((0, 1),)


def test_greens_n3():
    gd = greens(n3())
    assert gd.j_classes == ((0,), (1,), (2,))
    # containment order is {0} < {a} < {1}
    assert gd.j_leq[2][1] and gd.j_leq[1][0] and gd.j_leq[2][0]
    assert not gd.j_leq[0][1] and not gd.j_leq[1][2] and not gd.j_leq[0][2]


def test_greens_flipflop():
    M = flipflop()
    gd = greens(M)
    assert gd.j_classes == ((0,), (1, 2))
    assert gd.r_class[1] == gd.r_class[2]
    assert gd.l_classes == ((0,), (1,), (2,))
    assert all(len(c) == 1 for c in gd.h_classes)


def test_h_is_r_meet_l(fx):
    for M, _ in fx.values():
        gd = greens(M)
        for x in range(M.order):
            for y in range(M.order):
                same_h = gd.h_class[x] == gd.h_class[y]
                same_rl = (gd.r_class[x] == gd.r_class[y]
                           and gd.l_class[x] == gd.l_class[y])
                assert same_h == same_rl


def test_j_order_is_a_partial_order(fx):
    for M, _ in fx.values():
        leq = greens(M).j_leq
        k = len(leq)
        for a in range(k):
            assert leq[a][a]
            for b in range(k):
                if leq[a][b] and leq[b][a]:
                    assert a == b
                for c in range(k):
                    if leq[a][b] and leq[b][c]:
                        assert leq[a][c]


def test_h_class_with_idempotent_acts_trivially(fx):
    for M, _ in fx.values():
        gd = greens(M)
        for e in M.idempotents():
            for a in range(M.order):
                if gd.h_class[a] == gd.h_class[e]:
                    assert M.mul(e, a) == a


def test_regular_examples():
    M = z2()
    assert is_regular(M, 1) == (True, 1)
    Mn = n3()
    assert is_regular(Mn, Mn.element("a")) == (False, None)
    for M in (z2(), n3(), flipflop(), t2(), b21()):
        assert is_regular(M, M.identity) == (True, M.identity)


def test_greens_matches_brute_oracle(oracle_monoids):
    for M in oracle_monoids.values():
        assert greens(M) == greens_brute(M)


def test_greens_matches_subset_oracle(cat, fx):
    # T4, M52, the order-160 T2 expansion at n = 3 and the catalog
    # expansions at n = 4
    T2, g2 = fx["t2"]
    monoids = [generate_from_transformations(4, T4_GENS)[0],
               generate_from_transformations(4, M52_GENS)[0],
               build_expansion(T2, g2, 3).as_monoid(),
               *(build_expansion(M, g, 4).as_monoid() for M, g in cat.values())]
    assert [M.order for M in monoids] == [256, 52, 160, 1, 5, 83, 157, 137]
    for M in monoids:
        assert greens(M) == greens_by_subsets(M)


@pytest.fixture(scope="module")
def relabelled_monoids(oracle_monoids):
    """Each oracle monoid, T4 and M52, as given and under two MONO_SEED-seeded
    relabellings."""
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    monoids = [*oracle_monoids.values(),
               generate_from_transformations(4, T4_GENS)[0],
               generate_from_transformations(4, M52_GENS)[0]]
    return [R for M in monoids for R in (M, relabelled(M, rng), relabelled(M, rng))]


def test_greens_matches_the_oracles_on_relabelled_tables(relabelled_monoids):
    for M in relabelled_monoids:
        gd = greens(M)
        assert gd == greens_by_ideals(M)
        assert gd == greens_by_subsets(M)
        if M.order <= 60:
            assert gd == greens_brute(M)


def test_info_regular_list_matches_is_regular(relabelled_monoids):
    for M in relabelled_monoids:
        assert _regular_elements(M) == [a for a in range(M.order) if is_regular(M, a)[0]]


def nilpotent_chain(k):
    """1, a, ..., a^k = 0: a^i * a^j = a^min(i + j, k)."""
    names = ("1", *(f"a{i}" for i in range(1, k + 1)))
    return FiniteMonoid(names, 0, tuple(tuple(min(i + j, k) for j in range(k + 1))
                                        for i in range(k + 1)))


def test_greens_does_not_recurse_with_the_order():
    # the search from 1 along x -> x*a walks a path through all 301 elements
    k = 300
    M = nilpotent_chain(k)
    M.validate()
    with frames_to_spare(50):
        gd = greens(M)
        regular = _regular_elements(M)
    assert gd.r_classes == gd.l_classes == gd.j_classes == tuple((i,) for i in range(k + 1))
    assert gd.j_leq == tuple(tuple(i >= j for j in range(k + 1)) for i in range(k + 1))
    assert regular == [0, k]


def test_greens_stays_in_small_memory():
    # T4: one row and one column per element as sets took 2.1 MB
    M = generate_from_transformations(4, T4_GENS)[0]
    M.validate()
    tracemalloc.start()
    try:
        greens(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_regular_witness_is_valid(oracle_monoids):
    # a is regular iff an idempotent shares its R-class
    for M in oracle_monoids.values():
        gd = greens(M)
        for a in range(M.order):
            ok, b = is_regular(M, a)
            via_r = any(gd.r_class[e] == gd.r_class[a] for e in M.idempotents())
            assert ok == via_r
            if ok:
                assert M.mul(M.mul(a, b), a) == a
                assert all(M.mul(M.mul(a, c), a) != a for c in range(b))
            else:
                assert b is None


def test_aperiodic_matches_trivial_h_classes(oracle_monoids):
    for M in oracle_monoids.values():
        ok, bad = is_aperiodic(M)
        assert ok == all(len(c) == 1 for c in greens(M).h_classes)
        if not ok:
            w = M.omega_power(bad)
            assert M.mul(w, bad) != w


def test_aperiodic_examples():
    assert is_aperiodic(n3()) == (True, None)
    ok, w = is_aperiodic(z2())
    assert not ok and w == 1
    assert is_aperiodic(flipflop()) == (True, None)
    assert is_aperiodic(b21()) == (True, None)
    assert not is_aperiodic(t2())[0]


def test_group_element_examples():
    assert is_group_element(z2(), 1)
    Mn = n3()
    assert not is_group_element(Mn, Mn.element("a"))
    for M in (z2(), n3(), flipflop(), t2(), b21()):
        for e in M.idempotents():
            assert is_group_element(M, e)


def test_group_element_matches_h_relation(oracle_monoids):
    # a is a group element iff a H a^omega
    for M in oracle_monoids.values():
        gd = greens(M)
        for a in range(M.order):
            assert is_group_element(M, a) == (
                gd.h_class[a] == gd.h_class[M.omega_power(a)])


def test_predicates_never_call_greens(fx, monkeypatch, capsys):
    argvs = [[cmd, str(FIXDIR / "B21.mon"), "--format", "machine"]
             for cmd in ("info", "shadow")]
    expected = []
    for argv in argvs:
        code = cli_dispatch(argv)
        expected.append((code, capsys.readouterr().out))

    def no_greens(M):
        raise AssertionError("greens was called")

    monkeypatch.setattr(monoidkit.monoid, "greens", no_greens)
    monkeypatch.setattr(monoidkit.cli, "greens", no_greens)
    for argv, (code, out) in zip(argvs, expected):
        assert code == 0 and f"command={argv[0]}\n" in out
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr().out == out
    for M, _ in fx.values():
        for a in range(M.order):
            is_group_element(M, a)


def test_is_ideal_matches_two_sided_oracle(fx):
    for M, _ in fx.values():
        for k in range(min(6, M.order) + 1):
            for S in combinations(range(M.order), k):
                assert is_ideal(M, S) == is_ideal_two_sided(M, S)
    M = t3()
    for a in range(M.order):
        I = ideal_generated(M, [a])
        for S in (I, I[1:]):
            assert is_ideal(M, S) == is_ideal_two_sided(M, S)


def test_ideal_generated_matches_brute_oracle(oracle_monoids):
    # every singleton and pair of generators on the fixtures, T3 and the
    # catalog expansions at n <= 3; every singleton of T4
    for M in oracle_monoids.values():
        for k in (1, 2):
            for gens in combinations(range(M.order), k):
                assert ideal_generated(M, gens) == ideal_generated_brute(M, gens)
    M, _ = generate_from_transformations(4, T4_GENS)
    for a in range(M.order):
        assert ideal_generated(M, (a,)) == ideal_generated_brute(M, (a,))


def test_ideal_closures_match_the_old_loops(oracle_monoids):
    # is_ideal against the cell loop, is_idempotent_ideal against I*I == I
    # by ideal_product, and generator_map against the breadth-first search:
    # the same value, or the same exception type and text
    verdicts = set()
    for M, sets in ideal_oracle_cases(oracle_monoids):
        for S in sets:
            assert is_ideal(M, S) == is_ideal_by_cells(M, S)
            got = outcome(is_idempotent_ideal, M, S)
            assert got == outcome(is_idempotent_ideal_by_product, M, S)
            verdicts.add(got)
            mapping = dict(zip("abc", S))
            assert generator_map(M, mapping) == generator_map_bfs(M, mapping)[0]
        for mapping in ({}, {"a": -1}, {"a": M.order}, {"": 0}):
            assert (outcome(generator_map, M, mapping)
                    == outcome(lambda *args: generator_map_bfs(*args)[0], M, mapping))
    assert True in verdicts and False in verdicts


def test_is_prime_ideal_matches_the_cell_loop(fx):
    # every principal ideal and every union of two of them, on the fixtures,
    # T3 and M52: the same verdict and the same least witness
    monoids = [M for M, _ in fx.values()]
    monoids += [t3(), generate_from_transformations(4, M52_GENS)[0]]
    verdicts = set()
    for M in monoids:
        principal = sorted({ideal_generated(M, (a,)) for a in range(M.order)})
        for I, J in combinations_with_replacement(principal, 2):
            S = {*I, *J}
            got = is_prime_ideal(M, S)
            assert got == is_prime_ideal_by_cells(M, S), (M.names, sorted(S))
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_greedy_generators_match_the_scan_oracle(oracle_monoids):
    # the oracle monoids, T4, M52, a 400-element null monoid with identity
    # and MONO_SEED-seeded tables of order 1 to 12, most of them not
    # associative: validate picks the generators before Light's test
    tables = [M.table for M in oracle_monoids.values()]
    tables += [generate_from_transformations(4, gens)[0].table
               for gens in (T4_GENS, M52_GENS)]
    n = 400
    tables.append((tuple(range(n)), *((x,) + (1,) * (n - 1) for x in range(1, n))))
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    for _ in range(300):
        n = rng.randint(1, 12)
        tables.append(tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))
    for t in tables:
        assert _greedy_generators(t) == greedy_generators_by_scan(t), t


@pytest.mark.parametrize("argv", [["ideal", "N3.mon", "a"], ["info", "N3.mon"]])
def test_generating_set_is_found_once_per_command(monkeypatch, capsys, argv):
    # validate, ideal_generated and the ideal predicates share the
    # monoid's own greedy generating set
    calls = []

    def counting(t):
        calls.append(1)
        return _greedy_generators(t)

    monkeypatch.setattr(monoidkit.monoid, "_greedy_generators", counting)
    assert cli_dispatch([argv[0], str(FIXDIR / argv[1]), *argv[2:]]) == 0
    assert capsys.readouterr().out.startswith(f"mono {argv[0]}\n")
    assert len(calls) == 1


def test_ideal_product_shadow_matches_the_ideal_product_fold(oracle_monoids):
    # one letter per element; MONO_SEED-seeded sets of one to three ideals,
    # each generated by one or two letters, and as many elements or fewer
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    verdicts = set()
    for M, _ in ideal_oracle_cases(oracle_monoids):
        symbols = [chr(0x4E00 + a) for a in range(M.order)]
        g = generator_map(M, dict(zip(symbols, range(M.order))))
        for _ in range(30):
            n = rng.randint(1, 3)
            ideal_gens = [[Letter(rng.choice(symbols)) for _ in range(rng.randint(1, 2))]
                          for _ in range(n)]
            alphas = [Letter(rng.choice(symbols)) for _ in range(rng.randint(1, n))]
            verdict = ideal_product_shadow(M, g, alphas, ideal_gens)
            assert verdict == ideal_product_shadow_fold(M, g, alphas, ideal_gens)
            verdicts.add(verdict.verdict)
    assert verdicts == {"holds", "violated"}


def test_generator_map_records_letters_and_images():
    # the map the oracle builds beside the submonoid the letters generate
    M = z3()
    assert generator_map_bfs(M, {"a": 1}) == (generator_map(M, {"a": 1}), (0, 1, 2))
    assert generator_map_bfs(M, {"a": 0}) == (generator_map(M, {"a": 0}), (0,))
    assert generator_map(M, {"a": 1, "b": 0}) == GeneratorMap(("a", "b"), (1, 0))
    with pytest.raises(InputError):
        generator_map(M, {"a": 7})


def test_generator_map_runs_no_closure(monkeypatch):
    # generator_map only checks and records its letters; cut and replay
    # close nothing else either, once replay's ideal membership test runs
    # on the brute-force oracle
    M = flipflop()
    u, ws = ("ab", "ab"), ("a", "bab")
    expected = replay_factorization(M, generator_map(M, {"a": 1, "b": 2}), 2, u, ws)

    def no_closure(*args, **kwargs):
        raise AssertionError("_reach called")

    monkeypatch.setattr(monoidkit.monoid, "_reach", no_closure)
    monkeypatch.setattr(monoidkit.shadows, "ideal_generated", ideal_generated_brute)
    g = generator_map(M, {"a": 1, "b": 2})
    assert g == GeneratorMap(("a", "b"), (1, 2))
    assert cut(M, g, "abab", 3) == cut_brute(M, g, "abab", 3)
    assert replay_factorization(M, g, 2, u, ws) == expected
