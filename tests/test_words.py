import gc
import math
import os
import random
import time
import tracemalloc
from collections import Counter
from itertools import accumulate, chain, product

import pytest

import monoidkit.words
from monoidkit import (CapExceeded, CutProfile, FactorWitness, InputError,
                       build_expansion, cut, cut_brute, factorizations,
                       generator_map, lemma_factor, match_factorization, word_image)
from catalog import z2
from helpers import (all_words, check_factor_witness, cut_by_step_fold,
                     frames_to_spare, lemma_factor_by_spans,
                     match_factorization_by_rows, outcome, relabelled,
                     word_profile)


def test_factorizations_examples():
    assert list(factorizations("ab", 1)) == [("ab",)]
    assert list(factorizations("ab", 2)) == [("", "ab"), ("a", "b"), ("ab", "")]
    assert len(list(factorizations("abc", 3))) == 10


def test_factorizations_reject_zero_arity():
    with pytest.raises(InputError):
        list(factorizations("ab", 0))


def test_factorization_counts():
    for w in all_words("ab", 6):
        for n in range(1, 5):
            expected = math.comb(len(w) + n - 1, n - 1)
            assert sum(1 for _ in factorizations(w, n)) == expected


def test_factorizations_concatenate_in_cut_vector_order():
    for n in (2, 3, 4):
        parts_list = list(factorizations("abab", n))
        assert all("".join(p) == "abab" for p in parts_list)
        vecs = [tuple(accumulate(map(len, p)))[:-1] for p in parts_list]
        assert vecs == sorted(vecs)
        assert len(set(vecs)) == len(vecs)


def test_word_image(cat):
    M, g = cat["z2"]
    assert word_image(M, g, "") == 0
    assert word_image(M, g, "ab") == 0
    assert word_image(M, g, "aba") == 1
    with pytest.raises(InputError):
        word_image(M, g, "xa")


def test_cut_examples(cat):
    M, g = cat["z2"]
    assert cut(M, g, "ab", 1).tuples == ((0,),)
    assert cut(M, g, "ab", 2).tuples == ((0, 0), (1, 1))
    for _, (M, g) in cat.items():
        for n in (1, 2, 3):
            assert cut(M, g, "", n).tuples == ((M.identity,) * n,)


def test_cut_rejects_bad_input(cat):
    M, g = cat["z2"]
    with pytest.raises(InputError):
        cut(M, g, "ax", 2)
    with pytest.raises(InputError):
        cut(M, g, "ab", 0)


def test_cut_tuples_multiply_to_the_image(cat):
    for _, (M, g) in cat.items():
        for w in all_words("ab", 4):
            img = word_image(M, g, w)
            for n in (1, 2, 3):
                for t in cut(M, g, w, n).tuples:
                    acc = M.identity
                    for x in t:
                        acc = M.mul(acc, x)
                    assert acc == img


def test_cut_padding_property(cat):
    for _, (M, g) in cat.items():
        e = M.identity
        for w in all_words("ab", 3):
            profiles = {n: cut(M, g, w, n) for n in (1, 2, 3, 4)}
            for j in (1, 2, 3):
                for n in range(j, 5):
                    padded = {t + (e,) * (n - j) for t in profiles[j].tuples}
                    assert padded <= set(profiles[n].tuples)
                    trimmed = {t[:j] for t in profiles[n].tuples
                               if all(x == e for x in t[j:])}
                    assert trimmed == set(profiles[j].tuples)


def test_cut_stable_under_identity_insertion(cat):
    for _, (M, g) in cat.items():
        e = M.identity
        for w in all_words("ab", 3):
            for n in (1, 2, 3):
                bigger = set(cut(M, g, w, n + 1).tuples)
                for t in cut(M, g, w, n).tuples:
                    for k in range(n + 1):
                        assert t[:k] + (e,) + t[k:] in bigger


def test_cut_implementations_agree(cat):
    for _, (M, g) in cat.items():
        for w in all_words("ab", 4):
            for n in (1, 2, 3):
                assert cut(M, g, w, n) == cut_brute(M, g, w, n) == word_profile(M, g, w, n)


def test_cut_agrees_with_its_oracles_off_identity_zero(cat):
    # each catalog monoid renumbered so that its identity is not 0 (the
    # trivial monoid has no other index), its letters mapped by name:
    # the DAG must read the identity by value; MONO_SEED pins the renumbering
    seed = int(os.environ.get("MONO_SEED", "0"))
    rng = random.Random(seed)
    for name, (M, g) in cat.items():
        R = relabelled(M, rng)
        assert R.identity != 0 or R.order == 1, name
        h = generator_map(R, {ch: R.element(M.names[g.image(ch)]) for ch in g.alphabet})
        for w in all_words("ab", 5):
            for n in (1, 2, 3, 4):
                expected = cut_brute(R, h, w, n)
                assert cut(R, h, w, n) == expected, (seed, name, w, n)
                assert cut_by_step_fold(R, h, w, n) == expected, (seed, name, w, n)


def cut_padded(M, g, w, n):
    """The earlier cut, kept as an oracle: n-tuples padded with identities,
    where a letter multiplies into the last non-identity slot or starts
    any later slot."""
    if n < 1:
        raise InputError("arity must be >= 1")
    e = M.identity
    table = M.table
    tuples = {(e,) * n}
    for ch in w:
        x = g.image(ch)
        nxt = set()
        for t in tuples:
            p = -1
            for k in range(n - 1, -1, -1):
                if t[k] != e:
                    p = k
                    break
            for j in range(max(1, p + 1), n + 1):
                nxt.add(t[:j - 1] + (table[t[j - 1]][x],) + (e,) * (n - j))
        tuples = nxt
    return CutProfile.make(n, tuples)


def test_cut_matches_padded_oracle(fx):
    for _, (M, g) in fx.items():
        for w in all_words("ab", 6):
            for n in (1, 2, 3, 4):
                assert cut(M, g, w, n) == cut_padded(M, g, w, n), (w, n)
    # the shapes of the benchmark's seeded cut jobs; MONO_SEED pins the words
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    for name, n, length in (("flipflop", 8, 120), ("n3", 7, 60),
                            ("b21", 5, 120), ("t2", 6, 60)):
        M, g = fx[name]
        w = "".join(rng.choice("ab") for _ in range(length))
        assert cut(M, g, w, n) == cut_padded(M, g, w, n), (name, w, n)


def test_cut_profile_size_cap(fx, monkeypatch):
    M, g = fx["b21"]
    size = len(cut(M, g, "abab", 5).tuples)
    monkeypatch.setattr(monoidkit.words, "MAX_PROFILE_TUPLES", size)
    assert len(cut(M, g, "abab", 5).tuples) == size
    monkeypatch.setattr(monoidkit.words, "MAX_PROFILE_TUPLES", size - 1)
    with pytest.raises(CapExceeded) as ei:
        cut(M, g, "abab", 5)
    assert ei.value.count == size
    assert str(ei.value) == f"cut profile of {size} tuples exceeds cap of {size - 1}"


def test_cut_stops_listing_sequences_past_the_cap(fx, monkeypatch):
    # a cap below the number of sequences is read off the folded node, so
    # no tuple is spread: the same error line and count as the step fold,
    # which spreads every sequence; MONO_SEED pins the words
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))

    def unreachable(*args):
        raise AssertionError("a profile past the cap was spread")

    for name, n, length in (("flipflop", 8, 60), ("b21", 5, 60), ("t2", 4, 40)):
        M, g = fx[name]
        w = "".join(rng.choice("ab") for _ in range(length))
        listed = len(monoidkit.words._squeeze(M, cut(M, g, w, n)))
        for cap in (0, listed // 2, listed - 1):
            monkeypatch.setattr(monoidkit.words, "MAX_PROFILE_TUPLES", cap)
            with pytest.raises(CapExceeded) as oracle:
                cut_by_step_fold(M, g, w, n)
            monkeypatch.setattr(monoidkit.words, "_spread", unreachable)
            with pytest.raises(CapExceeded) as got:
                cut(M, g, w, n)
            monkeypatch.undo()
            assert str(got.value) == str(oracle.value), (name, w, n, cap)
            assert got.value.count == oracle.value.count, (name, w, n, cap)


def test_cut_past_the_cap_stays_in_small_memory(fx):
    # (ab)^150 at n = 30 has more than a billion sequences; the fold
    # counts their tuples on the DAG node and lists none of them
    M, g = fx["flipflop"]
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as exc:
            cut(M, g, "ab" * 150, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.count == 102945566047324
    assert str(exc.value) == ("cut profile of 102945566047324 tuples "
                              "exceeds cap of 100000")
    assert peak < 100_000_000


def test_cut_of_a_long_path_counts_only_its_result():
    # Z2's a^3000 at n = 3000 folds into a path of about 3000 nodes, each
    # made by a union or a truncation; only the folded node and the nodes
    # below it are counted, about 4.5 million entries in all, so the
    # traced peak stays under 45 MB (38 MB on Python 3.11.7; 56 MB when
    # every node made was counted)
    M = z2()
    g = generator_map(M, {"a": 1})
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as exc:
            cut(M, g, "a" * 3000, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.count == 2**2999
    assert str(exc.value) == f"cut profile of {2**2999} tuples exceeds cap of 100000"
    assert peak < 45_000_000


def test_cut_counts_the_profile_before_listing_it(fx, monkeypatch):
    # a billion sequences and the CI's 1800-letter B21 word at n = 12: the
    # cap is checked on the folded node, and no sequence is listed
    def unlisted(self, a):
        raise AssertionError("a profile past the cap was listed")

    monkeypatch.setattr(monoidkit.words._SequenceDag, "sequences", unlisted)
    for name, n, w, count in (("flipflop", 30, "ab" * 150, 102945566047324),
                              ("b21", 12, "aab" * 300 + "bba" * 300, 63782592)):
        M, g = fx[name]
        with pytest.raises(CapExceeded) as exc:
            cut(M, g, w, n)
        assert exc.value.count == count, name
        assert str(exc.value) == f"cut profile of {count} tuples exceeds cap of 100000"


def test_node_counts_tally_the_sequences(fx):
    # every node the folds make, the transient ones too, from the last
    # made down, so a count walks below nodes not yet counted: count(a) is
    # its sequences by length, up to its height, the length of its longest
    for name, (M, g) in fx.items():
        letters = "".join(sorted(g.alphabet))
        for n in range(1, 7):
            dag = monoidkit.words._SequenceDag(M, n)
            for w in all_words(letters, 8):
                dag.fold(g, w)
            for a in reversed(range(len(dag.nodes))):
                height, tally = dag.heights[a], Counter(map(len, dag.sequences(a)))
                assert height == max(tally, default=0), (name, n, a)
                expected = tuple(tally[k] for k in range(height + 1))
                assert dag.count(a) == expected, (name, n, a)


# an arity of 3000 digits: C(n, 2) has 6000, past the 4300 digits that
# int-to-str conversion allows by default
HUGE_ARITY = int("9" * 3000)


def test_profile_entries_cap_stops_a_huge_arity(monkeypatch):
    # a word of image 1 has one tuple, the identity n times, and expand at
    # n = 10^5 meets 10^5 tuples of 10^5 entries: each passes the tuple
    # cap and stops at the entries cap before any tuple is built
    M = z2()
    g = generator_map(M, {"a": 1, "b": 0})
    with pytest.raises(CapExceeded) as exc:
        cut(M, g, "bb", HUGE_ARITY)
    assert exc.value.count == HUGE_ARITY
    assert str(exc.value) == (f"cut profile of 1 tuples of {HUGE_ARITY} entries "
                              "exceeds cap of 10000000 entries")
    with pytest.raises(CapExceeded) as exc:
        build_expansion(M, generator_map(M, {"a": 1}), 10**5)
    assert exc.value.count == 10**10
    assert str(exc.value) == ("cut profile of 100000 tuples of 100000 entries "
                              "exceeds cap of 10000000 entries")
    # the bound is inclusive: "a" at n = 5 spreads into 5 tuples of 5
    monkeypatch.setattr(monoidkit.words, "MAX_PROFILE_ENTRIES", 25)
    assert len(cut(M, g, "a", 5).tuples) == 5
    monkeypatch.setattr(monoidkit.words, "MAX_PROFILE_ENTRIES", 24)
    with pytest.raises(CapExceeded) as exc:
        cut(M, g, "a", 5)
    assert exc.value.count == 25


def test_cut_cap_message_bounds_a_count_too_long_to_print():
    M = z2()
    g = generator_map(M, {"a": 1})
    with pytest.raises(CapExceeded) as exc:
        cut(M, g, "aa", HUGE_ARITY)
    assert exc.value.count == 1 + math.comb(HUGE_ARITY, 2)
    assert str(exc.value) == ("cut profile of more than 10^5999 tuples "
                              "exceeds cap of 100000")


def test_cut_cap_message_prints_every_count_str_can():
    # 4300 digits print in full; past them, the largest k with 10^k < count
    for count, text in ((10**4300 - 1, "9" * 4300), (10**4300, "more than 10^4299"),
                        (10**4300 + 1, "more than 10^4300"),
                        (7 * 10**9000, "more than 10^9000")):
        with pytest.raises(CapExceeded) as exc:
            monoidkit.words._check_profile_size(1, [count])
        assert exc.value.count == count
        assert str(exc.value) == f"cut profile of {text} tuples exceeds cap of 100000"


def profile_size_by_comb(n, tally):
    """The earlier count, kept as an oracle: math.comb(n, len(s)) summed
    over the sequences s, tally[k] of them of k parts."""
    return sum(math.comb(n, k) * m for k, m in enumerate(tally))


def test_profile_size_matches_the_binomial_sum():
    # seeded tallies below the cap, gaps and the empty tally among them;
    # at an arity of 3000 digits only sequences of no part stay below it
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    cases = [(n, tally) for n in (1, 2, 40, HUGE_ARITY)
             for tally in ((), (0,), (1,), (1, 0, 3), (0, 0, 0, 2), (100_000,))]
    for n in (1, 2, 40):
        for _ in range(200):
            cases.append((n, tuple(rng.choice((0, rng.randint(1, 40)))
                                   for _ in range(rng.randint(0, 6)))))
    cases += [(HUGE_ARITY, (rng.randint(0, 100_000),) + (0,) * rng.randint(0, 3))
              for _ in range(20)]
    checked = 0
    for n, tally in cases:
        size = profile_size_by_comb(n, tally)
        if size <= monoidkit.words.MAX_PROFILE_TUPLES:
            assert monoidkit.words._check_profile_size(n, tally) == size, (n, tally)
            checked += 1
    assert checked > 500


def test_cut_counts_past_the_listing_at_a_huge_arity(fx, monkeypatch):
    # a node's counts keep one entry per sequence length, so a cap below
    # the sequence count is found at any arity with the step fold's exact
    # count
    M, g = fx["flipflop"]
    monkeypatch.setattr(monoidkit.words, "MAX_PROFILE_TUPLES", 0)
    for w in ("ab" * 6, "abba" * 3):
        with pytest.raises(CapExceeded) as oracle:
            cut_by_step_fold(M, g, w, HUGE_ARITY)
        with pytest.raises(CapExceeded) as got:
            cut(M, g, w, HUGE_ARITY)
        assert got.value.count == oracle.value.count, w
        assert str(got.value) == str(oracle.value), w


# the benchmark's cut shapes: (fixture, arity, word length)
LONG_CUTS = (("flipflop", 8, 120), ("flipflop", 8, 60), ("flipflop", 6, 200),
             ("n3", 7, 60), ("n3", 6, 120), ("n3", 5, 200),
             ("b21", 4, 200), ("b21", 5, 60), ("b21", 5, 120),
             ("t2", 4, 120), ("t2", 5, 120), ("t2", 6, 60))


def test_cut_matches_step_fold_oracle_on_long_words(fx):
    # sub-sets recur along a long word, which the DAG steps only once;
    # MONO_SEED pins the words
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    for name, n, length in LONG_CUTS:
        M, g = fx[name]
        for _ in range(2):
            w = "".join(rng.choice("ab") for _ in range(length))
            assert cut(M, g, w, n) == cut_by_step_fold(M, g, w, n), (name, w, n)


def test_cut_with_an_identity_letter_matches_the_oracles(fx):
    # a letter of image 1 leaves the set of sequences as it is; Z2, Z3 and T2
    # also have units other than 1, whose products can come back to 1
    cases = (("z2", {"a": "g", "b": "1"}), ("z3", {"a": "g", "b": "g2", "c": "1"}),
             ("b21", {"a": "a", "b": "b", "c": "1"}),
             ("t2", {"a": "s", "b": "c1", "c": "1"}))
    for name, images in cases:
        M = fx[name][0]
        g = generator_map(M, {k: M.element(v) for k, v in images.items()})
        for w in all_words("".join(images), 5):
            for n in (1, 2, 3, 4, 5):
                expected = cut_by_step_fold(M, g, w, n)
                assert cut(M, g, w, n) == expected == cut_brute(M, g, w, n), (name, w, n)


def test_cut_does_not_recurse_with_the_arity():
    # Z2's a^300 at n = 300 keeps sequences of every even length up to 300,
    # each a path of as many DAG nodes; the cap stops it after the fold
    M = z2()
    g = generator_map(M, {"a": 1})
    w = "a" * 300
    with pytest.raises(CapExceeded) as oracle:
        cut_by_step_fold(M, g, w, 300)
    with frames_to_spare(50), pytest.raises(CapExceeded) as exc:
        cut(M, g, w, 300)
    assert str(exc.value) == str(oracle.value)


def test_cut_leaves_no_reference_cycle(fx):
    # the DAG is dropped by reference counting when cut returns
    M, g = fx["flipflop"]
    w = "".join(random.Random(120).choice("ab") for _ in range(120))
    gc.collect()
    gc.disable()
    try:
        cut(M, g, w, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cut_of_a_long_word_does_not_hang(fx):
    # about 0.6 s by the step fold, 0.02 s on the DAG (Python 3.11, 2 cores)
    M, g = fx["b21"]
    rng = random.Random(2000)
    w = "".join(rng.choice("ab") for _ in range(2000))
    t0 = time.perf_counter()
    cut(M, g, w, 5)
    assert time.perf_counter() - t0 < 0.15


def test_lemma_examples():
    assert lemma_factor(("abba",), ("", "abba")) == FactorWitness(1, 1, 0)
    w = lemma_factor(("ab", "ba"), ("a", "bb", "a"))
    assert (w.i, w.j, w.offset) == (2, 3, 1)
    w = lemma_factor(("ab", "ba"), ("a", "bba"))
    assert (w.i, w.j, w.offset) == (1, 1, 0)


def test_lemma_empty_part_tiebreak():
    # least empty v part wins, with i = 1
    w = lemma_factor(("ab", "ba"), ("ab", "", "ba", ""))
    assert (w.i, w.j, w.offset) == (1, 2, 0)


def test_lemma_skips_empty_u_parts():
    # both v parts end inside the one non-empty u part, so the collision
    # branch fires at j=2 and reports the original u index
    w = lemma_factor(("", "abba"), ("a", "bba"))
    assert (w.i, w.j, w.offset) == (2, 2, 1)


def test_lemma_errors():
    with pytest.raises(InputError):
        lemma_factor(("a", "b"), ("ab",))
    with pytest.raises(InputError):
        lemma_factor(("ab",), ("a", "a"))
    with pytest.raises(InputError):
        lemma_factor((), ())


def test_lemma_matches_the_span_oracle():
    # every pair of 1..4-part factorizations of every word of at most 5
    # letters over {a, b}: the same witness, or the same error where m > n
    for w in all_words("ab", 5):
        fact = [list(factorizations(w, k)) for k in (1, 2, 3, 4)]
        for us, vs in product(chain.from_iterable(fact), repeat=2):
            assert outcome(lemma_factor, us, vs) == outcome(lemma_factor_by_spans, us, vs)


def test_lemma_exhaustive_small():
    for w in all_words("ab", 4):
        fact = {k: list(factorizations(w, k)) for k in (1, 2, 3)}
        for m in (1, 2, 3):
            for n in range(m, 4):
                for us in fact[m]:
                    for vs in fact[n]:
                        check_factor_witness(us, vs, lemma_factor(us, vs))


def test_match_examples(cat):
    M, g = cat["z2"]
    assert match_factorization(M, g, "ab", (1, 1)) == ("a", "b")
    assert match_factorization(M, g, "ab", (0, 0)) == ("", "ab")
    assert match_factorization(M, g, "a", (0,)) is None


def test_match_iff_in_profile(cat):
    for _, (M, g) in cat.items():
        for w in all_words("ab", 3):
            for n in (1, 2):
                profile = set(cut(M, g, w, n).tuples)
                for targets in product(range(M.order), repeat=n):
                    got = match_factorization(M, g, w, targets)
                    if targets in profile:
                        assert got is not None
                        assert "".join(got) == w
                        assert tuple(word_image(M, g, p) for p in got) == targets
                    else:
                        assert got is None


def match_factorization_brute(M, g, w, targets):
    """The earlier match_factorization, kept as an oracle: it tries every
    cut vector in lexicographic order, C(|w|+n-1, n-1) of them, and
    multiplies out each part's letters."""
    targets = tuple(targets)
    n = len(targets)
    if n < 1:
        raise InputError("need at least one target")
    for parts in factorizations(w, n):
        if all(word_image(M, g, u) == t for u, t in zip(parts, targets)):
            return parts
    return None


def test_match_factorization_matches_brute_oracle(fx):
    # up to six targets from each profile and three seeded random ones,
    # most of them infeasible; MONO_SEED pins the sample
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    found = set()
    for _, (M, g) in fx.items():
        for w in all_words("ab", 6):
            for n in (1, 2, 3, 4):
                profile = sorted(cut(M, g, w, n).tuples)
                targets = rng.sample(profile, min(len(profile), 6)) + [
                    tuple(rng.randrange(M.order) for _ in range(n))
                    for _ in range(3)]
                for t in targets:
                    got = match_factorization(M, g, w, t)
                    assert got == match_factorization_brute(M, g, w, t), (w, t)
                    found.add(got is None)
    assert found == {False, True}


def test_match_factorization_matches_row_oracle(fx):
    # words up to 40 letters in up to 6 parts, past the brute oracle's
    # reach; 60% of the targets are a real factorization's images. Beside
    # the fixtures: a letter of image 1, and B21 renumbered so that its
    # identity is not 0. MONO_SEED pins the sample.
    seed = int(os.environ.get("MONO_SEED", "0"))
    rng = random.Random(seed)
    Z, B = z2(), relabelled(fx["b21"][0], rng)
    assert B.identity != 0
    cases = {**fx, "z2 b=1": (Z, generator_map(Z, {"a": 1, "b": 0})),
             "b21 relabelled": (B, generator_map(B, {"a": B.element("a"),
                                                     "b": B.element("b")}))}
    found = set()
    for name, (M, g) in cases.items():
        for _ in range(300):
            w = "".join(rng.choices("ab", k=rng.randint(0, 40)))
            n = rng.randint(1, 6)
            if rng.random() < 0.6:
                cuts = sorted(rng.choices(range(len(w) + 1), k=n - 1))
                bounds = (0, *cuts, len(w))
                t = tuple(word_image(M, g, w[bounds[k]:bounds[k + 1]]) for k in range(n))
            else:
                t = tuple(rng.randrange(M.order) for _ in range(n))
            got = match_factorization(M, g, w, t)
            assert got == match_factorization_by_rows(M, g, w, t), (seed, name, w, t)
            found.add(got is None)
    assert found == {False, True}


def test_match_factorization_infeasible_does_not_hang():
    # 11 parts of odd length cannot make a^22; the enumeration tried all
    # C(32, 10) cut vectors, about 100 s on a 2-core machine
    M = z2()
    g = generator_map(M, {"a": 1})
    t0 = time.perf_counter()
    assert match_factorization(M, g, "a" * 22, (1,) * 11) is None
    assert time.perf_counter() - t0 < 2


def test_match_factorization_memory_is_linear_in_the_word():
    # an (L+1)^2 table of segment images takes about 8 MB at L = 1000
    M = z2()
    g = generator_map(M, {"a": 1})
    tracemalloc.start()
    try:
        got = match_factorization(M, g, "a" * 1000, (1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ("a", "a" * 999)
    assert peak < 1_000_000


def test_match_factorization_memory_over_many_parts():
    # a set of images per part would take about 20 MB here; one pass keeps
    # one set, so the peak is the flags and the parts (about 6 MB)
    M = z2()
    g = generator_map(M, {"a": 0})
    tracemalloc.start()
    try:
        got = match_factorization(M, g, "a", (0,) * 65001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ("",) * 65000 + ("a",)
    assert peak < 10_000_000
