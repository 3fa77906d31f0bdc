import os
import random
import time
from functools import cache, partial
from itertools import product

import pytest

from monoidkit import (CapExceeded, Concat, InputError, Letter, OmegaPower,
                       Power, ProfileMismatch, StabilitySweep, build_expansion,
                       cut, evaluate, generate_from_transformations, generator_map,
                       group_element_shadow, ideal_generated,
                       ideal_product_shadow, is_group_element, parse_term,
                       replay_factorization, term_text, word_image)
from monoidkit import shadows
from monoidkit.monoid import FiniteMonoid
from monoidkit.shadows import MAX_REPLAY_WORK, MAX_TERM_DEPTH
from catalog import flipflop, n3, t2, z2
from helpers import (M52_GENS, T3_GENS, T4_GENS, all_words,
                     check_factor_witness, frames_to_spare, outcome,
                     parse_term_by_descent)


def test_parse_examples():
    assert parse_term("a") == Letter("a")
    assert parse_term("(ab)^w") == OmegaPower(Concat((Letter("a"), Letter("b"))))
    assert parse_term("a^2(ba)^w") == Concat((
        Power(Letter("a"), 2),
        OmegaPower(Concat((Letter("b"), Letter("a")))),
    ))


def test_parse_accepts_w_as_a_letter():
    assert parse_term("w^w") == OmegaPower(Letter("w"))


def test_parse_whitespace_and_nesting():
    assert parse_term(" a ( b a ) ^ 3 ") == Concat((
        Letter("a"), Power(Concat((Letter("b"), Letter("a"))), 3)))
    assert parse_term("((a))") == Letter("a")


@pytest.mark.parametrize("text", ["", "a^0", "(ab", "a)", "^2", "a^", "a^x", "2a", "()",
                                  "a^\u00b2",
                                  pytest.param("a^" + "9" * 5000, id="a^<5000 nines>")])
def test_parse_errors(text):
    with pytest.raises(InputError):
        parse_term(text)


def test_parse_error_reports_position():
    with pytest.raises(InputError, match="position 2"):
        parse_term("a^0")


def test_parse_nesting_cap():
    M = z2()
    g = generator_map(M, {"a": 1})
    deepest = "(" * MAX_TERM_DEPTH + "a" + ")^2" * MAX_TERM_DEPTH
    t = parse_term(deepest)
    assert parse_term(term_text(t)) == t
    assert evaluate(t, M, g) == M.identity
    with pytest.raises(InputError, match=f"position {MAX_TERM_DEPTH}: .*nested"):
        parse_term("(" + deepest + ")")


def test_parse_does_not_recurse_with_the_nesting():
    # the depth-MAX_TERM_DEPTH term and its depth-101 error with 50 frames
    # to spare; the recursive descent spent three frames a level
    deepest = "(" * MAX_TERM_DEPTH + "a" + ")^2" * MAX_TERM_DEPTH
    with frames_to_spare(50):
        t = parse_term(deepest)
        with pytest.raises(InputError) as exc:
            parse_term("(" + deepest + ")")
    assert t == parse_term_by_descent(deepest)
    assert str(exc.value) == (f"term syntax error at position {MAX_TERM_DEPTH}: "
                              f"parentheses nested deeper than {MAX_TERM_DEPTH}")


def _parse_as_the_oracle(texts):
    """parse_term gives the descent oracle's tree, or its exact InputError
    text, error position included; each tree round-trips via term_text."""
    for text in texts:
        got = outcome(parse_term, text)
        assert got == outcome(parse_term_by_descent, text), text
        if not isinstance(got, str):
            assert parse_term(term_text(got)) == got, text


def test_parse_matches_descent_on_every_short_string():
    # all 66,430 strings of at most 5 symbols over these 9
    _parse_as_the_oracle("".join(p) for k in range(6)
                         for p in product("a(b)^w0 1", repeat=k))


def test_parse_matches_descent_on_seeded_long_strings():
    # MONO_SEED pins the sample: random strings, and random terms rendered
    # with blanks strewn in and one symbol dropped, added or replaced
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    symbols = "ab()^w0123 \t\u00b2"

    def term(depth):
        k = rng.random()
        if depth == 0 or k < 0.35:
            return Letter(rng.choice("abw\u00b2"))
        if k < 0.6:
            return Concat(tuple(term(depth - 1) for _ in range(rng.randint(2, 3))))
        base = term(depth - 1)
        return OmegaPower(base) if k < 0.8 else Power(base, rng.randint(1, 120))

    texts = ["".join(rng.choices(symbols, k=rng.randint(6, 40))) for _ in range(3000)]
    for _ in range(3000):
        text = list(term_text(term(rng.randint(1, 6))))
        for _ in range(rng.randint(0, 3)):
            text.insert(rng.randint(0, len(text)), rng.choice(" \t"))
        k, edit = rng.randrange(len(text) + 1), rng.randrange(4)
        text[k:k + (edit in (1, 2))] = rng.choice(symbols) if edit > 1 else ""
        texts.append("".join(text))
    _parse_as_the_oracle(texts)


def test_parse_matches_descent_at_the_caps():
    deepest = "(" * MAX_TERM_DEPTH + "a" + ")^2" * MAX_TERM_DEPTH
    _parse_as_the_oracle([
        deepest, "(" + deepest + ")",
        "(" * MAX_TERM_DEPTH + "ab" + ")" * MAX_TERM_DEPTH,
        "(" * (MAX_TERM_DEPTH + 1) + "ab" + ")" * (MAX_TERM_DEPTH + 1),
        "a^1" + "0" * 4299, "a^" + "9" * 4301, "(ab)^" + "9" * 4300 + "b",
        "a^" + "0" * 4300, "a^ " + "7" * 4301 + "^w"])


def test_term_text_round_trip():
    for s in ("a", "(ab)^w", "a^2(ba)^w", "ab", "((ab)^2b)^w", "w^w", "a^10"):
        t = parse_term(s)
        assert parse_term(term_text(t)) == t


def test_evaluate_examples():
    M = z2()
    g = generator_map(M, {"a": 1})
    assert evaluate(parse_term("a^w"), M, g) == 0
    assert evaluate(parse_term("a^w a"), M, g) == 1
    Mn = n3()
    gn = generator_map(Mn, {"a": Mn.element("a")})
    assert evaluate(parse_term("a^w"), Mn, gn) == Mn.element("0")
    with pytest.raises(InputError):
        evaluate(parse_term("z"), M, g)


def test_evaluate_power_and_omega_invariants(fx):
    texts = ("a", "b", "ab", "a^2", "(ab)^w", "a^3b", "(a^2b)^wa")
    for _, (M, g) in fx.items():
        for s in texts:
            t = parse_term(s)
            val = evaluate(t, M, g)
            w = evaluate(OmegaPower(t), M, g)
            assert M.is_idempotent(w)
            assert w == M.omega_power(val)
            for k in (1, 2, 3, 5):
                assert evaluate(Power(t, k), M, g) == M.power(val, k)


def test_stability_examples():
    assert group_element_shadow(z2()).holds
    sweep = group_element_shadow(n3())
    assert sweep.holds
    assert sweep.counterexamples == ()


def test_stability_sweep_all_fixtures(fx):
    for _, (M, _) in fx.items():
        assert group_element_shadow(M).holds


def test_stability_extends_to_all_multiples(fx):
    # a^n == a^(n+lam) forces a^n == a^(n+k*lam) for every k >= 1
    for _, (M, _) in fx.items():
        for a in range(M.order):
            top = M.order + 1 + 4 * M.order
            powers = [M.identity]
            x = M.identity
            for _ in range(top):
                x = M.mul(x, a)
                powers.append(x)
            for n in range(1, M.order + 2):
                for lam in range(1, M.order + 1):
                    if powers[n] == powers[n + lam]:
                        for k in (2, 3, 4):
                            assert powers[n] == powers[n + k * lam]


def group_element_shadow_brute(M: FiniteMonoid) -> StabilitySweep:
    """The earlier sweep, kept as an oracle: it compares every pair of
    powers a^n and a^(n+lam) in a list of 2*order+1 powers."""
    bad = []
    checked = 0
    top = 2 * M.order + 1
    for a in range(M.order):
        pw = [M.identity]
        x = M.identity
        for _ in range(top):
            x = M.table[x][a]
            pw.append(x)
        for nn in range(1, M.order + 2):
            for lam in range(1, M.order + 1):
                checked += 1
                if pw[nn] == pw[nn + lam] and not is_group_element(M, pw[nn]):
                    bad.append((a, nn, lam))
    return StabilitySweep(not bad, tuple(bad), checked)


def sweep_outcome(sweep, M):
    """The sweep's result, or the type and text of what it raised."""
    try:
        return sweep(M)
    except Exception as exc:
        return type(exc), str(exc)


def mutated_tables(M, rng, count):
    """count copies of M with one or two table entries set at random,
    left unvalidated, so some are not associative and some not monoids."""
    for _ in range(count):
        table = [list(row) for row in M.table]
        for _ in range(rng.randint(1, 2)):
            table[rng.randrange(M.order)][rng.randrange(M.order)] = (
                rng.randrange(M.order))
        yield FiniteMonoid(M.names, M.identity, tuple(map(tuple, table)))


def sweep_cases(fx, cat):
    """Every fixture, T3, M52, the catalog expansions at n = 1 and 2, and
    60 mutated tables of each fixture and of T3."""
    T3, _ = generate_from_transformations(3, T3_GENS)
    M52, _ = generate_from_transformations(4, M52_GENS)
    bases = [M for M, _ in fx.values()] + [T3]
    cases = bases + [M52]
    for M, g in cat.values():
        cases += [build_expansion(M, g, n).as_monoid() for n in (1, 2)]
    # MONO_SEED pins the mutations
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    for M in bases:
        cases += mutated_tables(M, rng, 60)
    return cases


def test_sweep_matches_brute_oracle(fx, cat):
    outcomes = []
    for M in sweep_cases(fx, cat):
        got = sweep_outcome(group_element_shadow, M)
        assert got == sweep_outcome(group_element_shadow_brute, M), M.table
        outcomes.append(got)
    # the mutations reach both a violated verdict and a raise
    assert any(isinstance(o, StabilitySweep) and not o.holds for o in outcomes)
    assert any(isinstance(o, tuple) for o in outcomes)


def group_element_shadow_cached(M: FiniteMonoid) -> StabilitySweep:
    """The sweep as it was with functools, kept as an oracle of the order in
    which the sweep asks is_group_element: once per stable power, first
    asked first."""
    bad = []
    group = cache(partial(shadows.is_group_element, M))
    for a in range(M.order):
        pw, first = [M.identity], {M.identity: 0}
        x = M.table[M.identity][a]
        while x not in first:
            first[x] = len(pw)
            pw.append(x)
            x = M.table[x][a]
        i, p = first[x], len(pw) - first[x]
        for nn in range(max(i, 1), M.order + 2):
            if not group(pw[i + (nn - i) % p]):
                bad += [(a, nn, lam) for lam in range(p, M.order + 1, p)]
    return StabilitySweep(not bad, tuple(bad), M.order * M.order * (M.order + 1))


def test_sweep_asks_is_group_element_as_the_cached_sweep_did(fx, cat, monkeypatch):
    calls = []

    def spy(M, x):
        calls.append(x)
        return is_group_element(M, x)

    monkeypatch.setattr(shadows, "is_group_element", spy)
    for M in sweep_cases(fx, cat):
        got = sweep_outcome(group_element_shadow, M)
        asked, calls[:] = calls[:], []
        assert got == sweep_outcome(group_element_shadow_cached, M), M.table
        assert asked == calls and len(set(asked)) == len(asked), M.table
        calls.clear()


def test_sweep_on_t4_does_not_hang():
    # the order^3 sweep took about 9 s on a 2-core machine
    M, _ = generate_from_transformations(4, T4_GENS)
    t0 = time.perf_counter()
    sweep = group_element_shadow(M)
    assert time.perf_counter() - t0 < 2
    assert sweep == StabilitySweep(True, (), 256 * 256 * 257)


def test_sweep_on_m1965_walks_each_cycle_once():
    # T2 at n = 4 (order 1965): one walk per element and its stable powers;
    # visiting every n per element took 0.65 s on a 2-core machine
    M = t2()
    E = build_expansion(M, generator_map(M, {"a": M.element("s"),
                                             "b": M.element("c1")}), 4).as_monoid()
    t0 = time.perf_counter()
    sweep = group_element_shadow(E)
    assert time.perf_counter() - t0 < 0.2
    assert sweep == StabilitySweep(True, (), 1965 * 1965 * 1966)


def test_membership_violated_example():
    Mn = n3()
    gn = generator_map(Mn, {"a": Mn.element("a")})
    verdict = ideal_product_shadow(
        Mn, gn, [parse_term("a"), parse_term("a")],
        [[parse_term("a^w")], [parse_term("a^w")]])
    assert verdict.hypothesis
    assert verdict.verdict == "violated"
    assert verdict.witness is None
    assert verdict.membership == ((False, False), (False, False))
    assert verdict.product == Mn.element("0")
    assert verdict.ideal_product == (Mn.element("0"),)


def test_membership_holds_when_alpha_generates_ideal():
    M = flipflop()
    g = generator_map(M, {"a": M.element("s"), "b": M.element("r")})
    verdict = ideal_product_shadow(
        M, g, [parse_term("a")], [[parse_term("a")], [parse_term("b")]])
    assert verdict.hypothesis
    assert verdict.verdict == "holds"
    assert verdict.witness == (1, 1)


def test_membership_single_ideal_always_localizes(fx):
    texts = ("a", "b", "ab", "(ab)^w", "a^2b")
    for _, (M, g) in fx.items():
        for s1 in texts:
            for s2 in texts:
                verdict = ideal_product_shadow(
                    M, g, [parse_term(s1)], [[parse_term(s2)]])
                if verdict.hypothesis:
                    assert verdict.verdict == "holds"
                    assert verdict.witness == (1, 1)
                else:
                    assert verdict.verdict == "holds"
                    assert verdict.witness is None


def test_membership_verdict_consistency(fx):
    texts = ("a", "b", "ab", "a^w")
    for _, (M, g) in fx.items():
        for s1 in texts:
            for s2 in texts:
                for s3 in texts:
                    verdict = ideal_product_shadow(
                        M, g, [parse_term(s1), parse_term(s2)],
                        [[parse_term(s2)], [parse_term(s3)]])
                    if verdict.witness is not None:
                        i, j = verdict.witness
                        assert verdict.hypothesis
                        assert verdict.membership[i - 1][j - 1]
                    if verdict.verdict == "violated":
                        assert verdict.hypothesis
                        assert not any(any(row) for row in verdict.membership)


def test_membership_witness_is_the_least_ideal_then_element(fx):
    # the witness is the least (j, i) with element i inside ideal j: the
    # first ideal that holds an element, then its first element; on the
    # fixtures that is not always the least (i, j)
    texts = ("a", "b", "ab", "a^w")
    orders = set()
    for _, (M, g) in fx.items():
        for terms in product(texts, repeat=5):
            verdict = ideal_product_shadow(
                M, g, [parse_term(t) for t in terms[:2]],
                [[parse_term(t)] for t in terms[2:]])
            held = [(j + 1, i + 1) for j in range(3) for i in range(2)
                    if verdict.membership[i][j]]
            least = min(held)[::-1] if verdict.hypothesis and held else None
            assert verdict.witness == least, (terms, verdict)
            if least is not None:
                orders.add(least == min((i, j) for j, i in held))
    assert orders == {True, False}

def test_membership_preconditions():
    Mn = n3()
    gn = generator_map(Mn, {"a": 1})
    with pytest.raises(InputError):
        ideal_product_shadow(Mn, gn, [parse_term("a")] * 3, [[parse_term("a")]] * 2)
    with pytest.raises(InputError):
        ideal_product_shadow(Mn, gn, [], [[parse_term("a")]])


def test_replay_identity_case(cat):
    for _, (M, g) in cat.items():
        us = ("ab", "ba")
        result = replay_factorization(M, g, 2, us, us)
        assert "".join(result.parts) == "abba"
        for part, w in zip(result.parts, us):
            assert word_image(M, g, part) == word_image(M, g, w)
        check_factor_witness(us, result.parts, result.witness)
        assert result.membership


def test_replay_z2_example():
    M = z2()
    g = generator_map(M, {"a": 1})
    result = replay_factorization(M, g, 2, ("aa", "aa"), ("a", "aaa"))
    assert result.parts == ("a", "aaa")
    assert (result.witness.i, result.witness.j, result.witness.offset) == (1, 1, 0)
    assert result.part_image == 1
    assert result.source_image == 0
    assert result.membership


def test_replay_flipflop_example():
    M = flipflop()
    g = generator_map(M, {"a": M.element("s"), "b": M.element("r")})
    us, ws = ("ab", "ba"), ("a", "bba")
    result = replay_factorization(M, g, 2, us, ws)
    assert result.parts == ("a", "bba")
    assert (result.witness.i, result.witness.j) == (1, 1)
    assert result.part_image == M.element("s")
    assert result.source_image == M.element("r")
    assert result.membership
    assert result.source_image in ideal_generated(M, [result.part_image])


def test_replay_profile_mismatch():
    M = z2()
    g = generator_map(M, {"a": 1, "b": 0})
    with pytest.raises(ProfileMismatch):
        replay_factorization(M, g, 1, ("a",), ("b",))


def test_replay_preconditions():
    M = z2()
    g = generator_map(M, {"a": 1})
    with pytest.raises(InputError):
        replay_factorization(M, g, 1, ("a", "a"), ("aa",))
    with pytest.raises(InputError):
        replay_factorization(M, g, 3, ("aa",), ("a", "a"))


def test_replay_word_length_cap():
    # n*L^2 is checked before the fold and the match, so an over-cap replay
    # stops at once; the longer of the two words counts
    M = z2()
    g = generator_map(M, {"a": 1})
    L = 7071                          # the longest a^L in 2 parts under the cap
    assert 2 * L * L <= MAX_REPLAY_WORK < 2 * (L + 1) ** 2
    t0 = time.perf_counter()
    for us, ws in ((("a" * (L + 1),), ("a", "a" * L)),
                   (("a",), ("a" * (L + 1), ""))):
        with pytest.raises(CapExceeded, match="n\\*L\\^2 exceeds cap") as exc:
            replay_factorization(M, g, 2, us, ws)
        assert exc.value.count == 2 * (L + 1) ** 2
    assert time.perf_counter() - t0 < 0.5


def test_replay_at_the_word_length_cap_is_fast():
    # the largest input under the cap: one backward pass per part keeps a
    # set of at most |M| images, where a row per start position cost
    # n*L^2 steps, 0.72 s on a 2-core x86-64 VM
    M = z2()
    g = generator_map(M, {"a": 1})
    L = 7071
    t0 = time.perf_counter()
    r = replay_factorization(M, g, 2, ("a" * L,), ("a" * (L - 1), "a"))
    assert time.perf_counter() - t0 < 0.3
    assert r.parts == ("", "a" * L)


def test_replay_profile_cap_names_the_first_word_past_it(monkeypatch):
    # replay compares the two folded nodes and spreads neither profile; a
    # profile past the cap raises cut's line, u's before w's
    M = flipflop()
    g = generator_map(M, {"a": M.element("s"), "b": M.element("r")})
    u, v, small = ("ab" * 150,), ("b" * 300,) + ("",) * 29, ("a",)
    lines = {}
    for parts in (u, v):
        with pytest.raises(CapExceeded) as exc:
            cut(M, g, "".join(parts), 30)
        lines[parts] = str(exc.value)
    assert lines[u] != lines[v]

    def unreachable(*args):
        raise AssertionError("replay spread a profile")

    monkeypatch.setattr("monoidkit.words._spread", unreachable)
    for us, ws, parts in ((u, v, u), (small, v, v), (u, ("",) * 29 + u, u)):
        with pytest.raises(CapExceeded) as exc:
            replay_factorization(M, g, 30, us, ws)
        assert str(exc.value) == lines[parts], (us, ws)
    result = replay_factorization(M, g, 3, ("ab",), ("a", "", "b"))
    assert result.parts == ("a", "", "b")


def test_replay_small_sweep(cat):
    from monoidkit import factorizations
    M, g = cat["flipflop"]
    for w in all_words("ab", 3):
        for n in (1, 2):
            for m in range(1, n + 1):
                for us in factorizations(w, m):
                    for ws in factorizations(w, n):
                        result = replay_factorization(M, g, n, us, ws)
                        assert "".join(result.parts) == w
                        check_factor_witness(us, result.parts, result.witness)
                        assert result.membership
