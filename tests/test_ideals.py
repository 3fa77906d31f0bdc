import time

import pytest

from monoidkit import (InputError, generate_from_transformations,
                       ideal_generated, is_ideal, is_idempotent_ideal,
                       is_prime_ideal, is_regular, minimal_ideal)
from catalog import flipflop, n3, z2
from helpers import T4_GENS, ideal_product


def test_ideal_generated_examples():
    M = z2()
    assert ideal_generated(M, [M.identity]) == (0, 1)
    Mn = n3()
    assert ideal_generated(Mn, [Mn.element("a")]) == (1, 2)
    Mf = flipflop()
    assert ideal_generated(Mf, [Mf.element("s")]) == (1, 2)


def test_ideal_generated_needs_generators():
    with pytest.raises(InputError):
        ideal_generated(n3(), [])


def test_ideal_generators_and_sets_must_be_in_range():
    Mn = n3()
    for x in (-1, 3):
        with pytest.raises(InputError, match=f"^ideal generator {x} out of range$"):
            ideal_generated(Mn, [0, x])
    M = z2()
    assert not is_ideal(M, {0, 1, -1})
    assert not is_ideal(M, {0, 1, 2})
    with pytest.raises(InputError, match="^input set is not an ideal$"):
        is_prime_ideal(M, {0, 1, -1})


def test_ideal_predicates_on_t4_do_not_hang():
    # every principal ideal of T4 (256 elements); T4 is regular, so each is
    # idempotent, and it is prime exactly when its generator has rank 3 or 4
    # (232 or 256 elements)
    M, _ = generate_from_transformations(4, T4_GENS)
    t0 = time.perf_counter()
    for a in range(M.order):
        I = ideal_generated(M, [a])
        assert is_prime_ideal(M, I)[0] == (len(I) in (232, 256))
        assert is_idempotent_ideal(M, I)
    assert time.perf_counter() - t0 < 2


def test_ideal_product_examples():
    Mn = n3()
    whole = (0, 1, 2)
    assert ideal_product(Mn, whole, whole) == whole
    assert ideal_product(Mn, (1, 2), (1, 2)) == (2,)
    assert ideal_product(Mn, (2,), (2,)) == (2,)


def test_prime_examples():
    assert is_prime_ideal(z2(), (0, 1)) == (True, None)
    Mn = n3()
    ok, witness = is_prime_ideal(Mn, (2,))
    assert not ok
    assert witness == (Mn.element("a"), Mn.element("a"))
    assert is_prime_ideal(Mn, (1, 2)) == (True, None)


def test_prime_rejects_non_ideals():
    Mn = n3()
    with pytest.raises(InputError):
        is_prime_ideal(Mn, (1,))
    with pytest.raises(InputError):
        is_prime_ideal(Mn, ())
    with pytest.raises(InputError):
        is_idempotent_ideal(Mn, (0,))


def test_idempotent_examples():
    Mn = n3()
    assert is_idempotent_ideal(Mn, (2,))
    assert not is_idempotent_ideal(Mn, (1, 2))


def test_minimal_ideal_examples():
    assert minimal_ideal(z2()) == (0, 1)
    assert minimal_ideal(n3()) == (2,)
    assert minimal_ideal(flipflop()) == (1, 2)


def test_ideal_invariants(fx):
    for M, _ in fx.values():
        principals = [ideal_generated(M, [a]) for a in range(M.order)]
        for I in principals:
            assert is_ideal(M, I)
            for J in principals:
                P = ideal_product(M, I, J)
                assert is_ideal(M, P)
                assert set(P) <= set(I) & set(J)
        kernel = minimal_ideal(M)
        assert is_ideal(M, kernel)
        for I in principals:
            assert set(kernel) <= set(I)


def test_regular_elements_generate_idempotent_ideals(fx):
    for M, _ in fx.values():
        for a in range(M.order):
            if is_regular(M, a)[0]:
                assert is_idempotent_ideal(M, ideal_generated(M, [a]))
