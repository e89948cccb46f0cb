import math

import pytest

from dendrifliess.trees import (
    DLEAF,
    LEAF,
    DecoratedTree,
    EnumerationCapError,
    PlanarTree,
    TreeError,
    catalan,
    decorate,
    enumerate_decorated_trees,
    enumerate_trees,
    foliation,
    graft,
    left_comb,
    left_comb_skeleton,
    parse_word,
    right_comb,
    right_comb_skeleton,
    skeleton,
    skeleton_string,
    tree_factorial,
    tree_from_json,
    tree_to_json,
)

# standard Catalan values
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_catalan_values():
    for n, c in enumerate(CATALAN):
        assert catalan(n) == c


def test_enumeration_counts_match_catalan():
    for n in range(9):
        assert len(enumerate_trees(n)) == catalan(n)


def test_enumeration_is_deterministic_and_distinct():
    a = enumerate_trees(6)
    b = enumerate_trees(6)
    assert a == b
    assert len(set(a)) == len(a)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_trees(15)


def test_decorated_enumeration_count():
    # catalan(n) skeletons times (m+1)^n words
    for n in range(4):
        assert len(list(enumerate_decorated_trees(n, 2))) == catalan(n) * 3 ** n


def test_graft_orders():
    t = PlanarTree(LEAF, LEAF)
    assert t.order == 1
    assert PlanarTree(t, t).order == 3


def test_decorate_foliation_roundtrip():
    for n in range(5):
        word = tuple(range(1, n + 1))
        for skel in enumerate_trees(n):
            t = decorate(word, skel)
            assert skeleton(t) == skel
            assert foliation(t) == word


def test_decorate_length_mismatch():
    with pytest.raises(TreeError):
        decorate((1, 2), LEAF)


def test_combs():
    # left comb nests to the right in the grafting sense:
    # first letter at the root, the rest hanging off the right branch
    t = left_comb((1, 2, 3))
    assert t.letter == 1
    assert t.left is DLEAF or t.left.is_leaf
    assert foliation(t) == (1, 2, 3)
    r = right_comb((1, 2, 3))
    assert r.letter == 3
    assert r.right.is_leaf
    assert foliation(r) == (1, 2, 3)


def test_tree_factorial_combs_are_factorial():
    for n in range(9):
        assert tree_factorial(left_comb_skeleton(n)) == math.factorial(n)
        assert tree_factorial(right_comb_skeleton(n)) == math.factorial(n)


def test_tree_factorial_balanced():
    # by hand: root with two single-vertex children has
    # gamma = (1 + 1 + 1) * 1 * 1 = 3
    v = PlanarTree(LEAF, LEAF)
    assert tree_factorial(PlanarTree(v, v)) == 3
    assert tree_factorial(LEAF) == 1


def test_tree_factorial_sum_identity():
    # each permutation of {1..n} inserts into a unique binary search
    # tree shape, and a shape tau receives exactly n!/gamma(tau) of them, so
    # sum over skeletons of n!/gamma(tau) = n!
    from fractions import Fraction

    for n in range(1, 9):
        total = sum(Fraction(math.factorial(n), tree_factorial(s))
                    for s in enumerate_trees(n))
        assert total == math.factorial(n)


def test_skeleton_string_roundtrip():
    # the encoding is injective: the catalan(n) trees of order n have distinct strings
    for n in range(9):
        assert len({skeleton_string(s) for s in enumerate_trees(n)}) == catalan(n)
    assert skeleton_string(PlanarTree(LEAF, LEAF)) == "()"


def test_tree_json_roundtrip():
    for n in range(4):
        for s in enumerate_trees(n):
            t = decorate(tuple([1] * n), s)
            assert tree_from_json(tree_to_json(t)) == t


def test_parse_word():
    assert parse_word("x1x2x10") == (1, 2, 10)
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("x1y2")
    with pytest.raises(ValueError):
        parse_word("x")


def test_tree_identity_semantics():
    a = DecoratedTree(DLEAF, 1, DLEAF, 1)
    b = graft(DLEAF, 1, DLEAF)
    assert a == b and hash(a) == hash(b)
    assert a != graft(DLEAF, 2, DLEAF)


def test_planar_tree_equality_ignores_order_field():
    assert PlanarTree(None, None, 0) == LEAF
