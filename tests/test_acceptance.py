"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import hashlib
import math
import time
from contextlib import contextmanager
from pathlib import Path

from monoidkit import (build_expansion, check_eta_aperiodic, check_refinement,
                       cut, cut_brute, factorizations, generator_map,
                       ideal_generated, is_aperiodic, is_ideal,
                       is_idempotent_ideal, is_prime_ideal, is_regular,
                       lemma_factor, minimal_ideal, parse_term,
                       replay_factorization, word_image,
                       ideal_product_shadow, group_element_shadow)
from monoidkit.cli import cli_dispatch

from catalog import catalog, fixtures, n3, z2
from helpers import (all_words, check_factor_witness, cut_by_step_fold,
                     ideal_product, word_profile)

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


def test_criterion_01_cut_oracle_equivalence():
    with criterion(1, "cut oracle equivalence"):
        for _, (M, g) in catalog().items():
            for w in all_words("ab", 6):
                for n in (1, 2, 3, 4, 5):
                    a = cut(M, g, w, n)
                    b = cut_brute(M, g, w, n)
                    c = word_profile(M, g, w, n)
                    d = cut_by_step_fold(M, g, w, n)
                    assert a == b == c == d


def test_criterion_02_factorization_count():
    with criterion(2, "factorization count"):
        for w in all_words("ab", 6):
            for n in (1, 2, 3, 4):
                expected = math.comb(len(w) + n - 1, n - 1)
                got = 0
                for parts in factorizations(w, n):
                    assert "".join(parts) == w
                    got += 1
                assert got == expected


def test_criterion_03_factor_lemma_exhaustive():
    with criterion(3, "factor lemma exhaustive"):
        for w in all_words("ab", 6):
            fact = {k: list(factorizations(w, k)) for k in (1, 2, 3, 4)}
            for m in (1, 2, 3, 4):
                for n in range(m, 5):
                    for us in fact[m]:
                        for vs in fact[n]:
                            check_factor_witness(us, vs, lemma_factor(us, vs))


def test_criterion_04_expansion_correctness():
    with criterion(4, "expansion correctness"):
        for _, (M, g) in catalog().items():
            E1 = build_expansion(M, g, 1)
            assert E1.order == M.order
            assert sorted(E1.eta) == list(range(M.order))
            for i in range(E1.order):
                for j in range(E1.order):
                    assert E1.eta[E1.table[i][j]] == M.mul(E1.eta[i], E1.eta[j])
        M2 = z2()
        g2 = generator_map(M2, {"a": 1})
        E = build_expansion(M2, g2, 2)
        assert E.order == 3
        assert sorted(len(E.fiber(e)) for e in range(M2.order)) == [1, 2]
        for _, (M, g) in catalog().items():
            for n in (1, 2, 3):
                E = build_expansion(M, g, n)
                for i in range(E.order):
                    assert cut(M, g, E.representatives[i], n) == E.profiles[i]


def test_criterion_05_eta_aperiodicity():
    with criterion(5, "eta aperiodicity"):
        for _, (M, g) in catalog().items():
            for n in (1, 2, 3):
                E = build_expansion(M, g, n)
                ok, witness = check_eta_aperiodic(E)
                assert ok and witness is None
        for name in ("trivial", "n3", "flipflop"):
            M, g = catalog()[name]
            assert is_aperiodic(M)[0]
            for n in (1, 2, 3):
                assert is_aperiodic(build_expansion(M, g, n).as_monoid())[0]


def test_criterion_06_congruence_and_kernel():
    with criterion(6, "congruence and kernel"):
        for _, (M, g) in catalog().items():
            for n in (1, 2, 3):
                classes = {}
                for w in all_words("ab", 4):
                    classes.setdefault(cut(M, g, w, n), []).append(w)
                for members in classes.values():
                    rep = members[0]
                    img = word_image(M, g, rep)
                    for w in members[1:]:
                        assert word_image(M, g, w) == img
                        for c in "ab":
                            assert cut(M, g, rep + c, n) == cut(M, g, w + c, n)
                            assert cut(M, g, c + rep, n) == cut(M, g, c + w, n)


def test_criterion_07_refinement():
    with criterion(7, "refinement"):
        for _, (M, g) in catalog().items():
            for n in (1, 2):
                hi = build_expansion(M, g, n + 1)
                lo = build_expansion(M, g, n)
                assert check_refinement(hi, lo)


def test_criterion_08_ideal_shadows():
    with criterion(8, "ideal shadows"):
        for _, (M, _) in fixtures().items():
            principals = [ideal_generated(M, [a]) for a in range(M.order)]
            for a in range(M.order):
                if is_regular(M, a)[0]:
                    assert is_idempotent_ideal(M, principals[a])
            for I in principals:
                for J in principals:
                    P = ideal_product(M, I, J)
                    assert is_ideal(M, P)
                    assert set(P) <= set(I) & set(J)
            kernel = minimal_ideal(M)
            for I in principals:
                assert set(kernel) <= set(I)


def test_criterion_09_localization_fails_finitely(capsys):
    with criterion(9, "localization fails finitely"):
        M = n3()
        zero = M.element("0")
        a = M.element("a")
        ok, witness = is_prime_ideal(M, (zero,))
        assert not ok and witness == (a, a)
        g = generator_map(M, {"a": a})
        verdict = ideal_product_shadow(
            M, g, [parse_term("a"), parse_term("a")],
            [[parse_term("a^w")], [parse_term("a^w")]])
        assert verdict.hypothesis and verdict.verdict == "violated"
        # exact golden CLI outputs for both facts
        path = FIXDIR / "N3.mon"
        d = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        code = cli_dispatch(["ideal", str(path), "0", "--format", "machine"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            "command=ideal\n"
            "generators={0}\n"
            "ideal={0}\n"
            "idempotent=true\n"
            f"input={d}\n"
            "prime=false\n"
            "prime_witness=(a,a)\n"
        )
        code = cli_dispatch(["shadow", str(path), "--map", "a=a",
                             "--alphas", "a;a", "--ideals", "a^w|a^w",
                             "--format", "machine"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == (
            "alphas=a;a\n"
            "command=shadow\n"
            "hypothesis=true\n"
            "ideal_product={0}\n"
            "ideals=a^w|a^w\n"
            f"input={d}\n"
            "m=2\n"
            "membership=1:1=false;1:2=false;2:1=false;2:2=false\n"
            "mode=ideal_product\n"
            "n=2\n"
            "product=0\n"
            "verdict=violated\n"
        )


def test_criterion_10_stability_shadow():
    with criterion(10, "stability shadow"):
        for _, (M, _) in fixtures().items():
            assert M.order <= 6
            sweep = group_element_shadow(M)
            assert sweep.holds and sweep.counterexamples == ()
            # same sweep spelled out directly against the definition
            for a in range(M.order):
                for n in range(1, M.order + 2):
                    for lam in range(1, M.order + 1):
                        x = M.power(a, n)
                        if x == M.power(a, n + lam):
                            assert M.mul(M.omega_power(x), x) == x


def test_criterion_11_proof_replay_exhaustive():
    with criterion(11, "proof replay exhaustive"):
        for name in ("z2", "flipflop"):
            M, g = catalog()[name]
            for w in all_words("ab", 5):
                fact = {k: list(factorizations(w, k)) for k in (1, 2, 3)}
                images = {}
                for n in (1, 2, 3):
                    for m in range(1, n + 1):
                        for us in fact[m]:
                            for ws in fact[n]:
                                result = replay_factorization(M, g, n, us, ws)
                                vs = result.parts
                                assert "".join(vs) == w
                                for v, wpart in zip(vs, ws):
                                    key = v
                                    if key not in images:
                                        images[key] = word_image(M, g, key)
                                    if wpart not in images:
                                        images[wpart] = word_image(M, g, wpart)
                                    assert images[v] == images[wpart]
                                check_factor_witness(us, vs, result.witness)
                                ui = images.setdefault(
                                    us[result.witness.i - 1],
                                    word_image(M, g, us[result.witness.i - 1]))
                                wj = images[ws[result.witness.j - 1]]
                                assert ui in ideal_generated(M, [wj])
                                assert result.membership


def test_criterion_12_cli_determinism(capsys):
    with criterion(12, "cli determinism"):
        commands = [
            ["info", str(FIXDIR / "N3.mon")],
            ["greens", str(FIXDIR / "flipflop.mon")],
            ["ideal", str(FIXDIR / "N3.mon"), "0"],
            ["cut", str(FIXDIR / "Z2.mon"), "-n", "2", "--map", "a=g,b=g", "ab"],
            ["expand", str(FIXDIR / "Z2.mon"), "-n", "2", "--gens", "a=g"],
            ["lemma", "--u", "ab,ba", "--v", "a,bb,a"],
            ["replay", str(FIXDIR / "Z2.mon"), "-n", "2", "--map", "a=g",
             "--u", "aa,aa", "--w", "a,aaa"],
            ["shadow", str(FIXDIR / "N3.mon"), "--map", "a=a",
             "--alphas", "a;a", "--ideals", "a^w|a^w"],
            ["from-dfa", str(FIXDIR / "flipflop.dfa")],
            ["from-tgen", str(FIXDIR / "flipflop.tgen")],
        ]
        for argv in commands:
            argv = argv + ["--format", "machine"]
            code1 = cli_dispatch(argv)
            out1 = capsys.readouterr().out
            code2 = cli_dispatch(argv)
            out2 = capsys.readouterr().out
            assert out1 == out2
            assert code1 == code2
            assert out1.endswith("\n") and "command=" in out1
