import random
from itertools import combinations

import pytest

from arrinv.errors import ResourceError
from arrinv.lyndon import (
    lyndon_basis,
    lyndon_product,
    lyndon_words,
    standard_bracketing,
    standard_factorization,
    witt_count,
)

from oracles import (
    brute_lyndon_words,
    is_lyndon,
    tensor_combination,
    tensor_commutator,
    tensor_of_bracket,
)


def test_lyndon_words_match_rotation_filter():
    for n in range(1, 5):
        for k in range(1, 7):
            assert lyndon_words(n, k) == brute_lyndon_words(n, k)


def test_lyndon_words_sorted_and_lyndon():
    words = lyndon_words(3, 5)
    assert words == sorted(words)
    assert all(is_lyndon(w) for w in words)


def test_witt_count_matches_enumeration():
    for n in range(1, 5):
        for k in range(1, 7):
            assert witt_count(n, k) == len(lyndon_words(n, k))


def test_standard_factorization_is_least_proper_suffix():
    for w in lyndon_words(3, 6):
        if len(w) == 1:
            continue
        u, v = standard_factorization(w)
        assert u + v == w
        assert is_lyndon(u) and is_lyndon(v)
        assert v == min(w[i:] for i in range(1, len(w)))


def test_standard_bracketing_expands_to_its_word():
    # the bracketing of a Lyndon word w equals w plus lower words only
    for w in lyndon_words(2, 5) + lyndon_words(3, 4):
        tensor = tensor_of_bracket(standard_bracketing(w))
        assert tensor.get(w) == 1
        assert all(u >= w or c == 0 for u, c in tensor.items())


def test_lyndon_product_against_tensor_algebra():
    # [b(u), b(v)] must expand to the same tensor as the rewritten output
    rng = random.Random(5)
    pool = [w for k in range(1, 5) for w in lyndon_words(3, k)]
    pairs = list(combinations(pool, 2)) + [(w, w) for w in pool]
    rng.shuffle(pairs)
    for u, v in pairs[:250]:
        prod = lyndon_product(u, v)
        direct = tensor_commutator(
            tensor_of_bracket(standard_bracketing(u)),
            tensor_of_bracket(standard_bracketing(v)),
        )
        rewritten = tensor_combination(
            (standard_bracketing(w), c) for w, c in prod.items()
        )
        assert direct == rewritten
        for w in prod:
            assert is_lyndon(w) and len(w) == len(u) + len(v)


def test_lyndon_product_antisymmetry_and_self():
    a, b = (0,), (0, 1)
    ab = lyndon_product(a, b)
    ba = lyndon_product(b, a)
    assert {w: -c for w, c in ab.items()} == ba
    assert lyndon_product(b, b) == {}


def test_lyndon_basis_index_and_bracketing():
    basis = lyndon_basis(3, 3)
    assert len(basis) == witt_count(3, 3) == 8
    for i, w in enumerate(basis.words):
        assert basis.index[w] == i
    assert standard_bracketing((0, 1, 2)) == (0, (1, 2))
    assert (1, 0, 2) not in basis.index


def test_lyndon_basis_ceiling():
    with pytest.raises(ResourceError):
        lyndon_basis(9, 8, ceiling=1000)


def test_necklace_identity_small():
    for n in range(1, 7):
        for k in range(1, 7):
            total = sum(d * witt_count(n, d) for d in range(1, k + 1) if k % d == 0)
            assert total == n**k
