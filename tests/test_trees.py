import copy
import gc
import math
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from dendrifliess.trees import (
    DLEAF,
    DecoratedTree,
    EnumerationCapError,
    TreeError,
    catalan,
    decorate,
    enumerate_decorated_trees,
    enumerate_trees,
    foliation,
    graft,
    left_comb,
    parse_word,
    right_comb,
    skeleton,
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
    t = graft(DLEAF, 1, DLEAF)
    assert t.order == 1
    assert graft(t, 2, t).order == 3


def test_decorate_foliation_roundtrip():
    for n in range(5):
        word = tuple(range(1, n + 1))
        for skel in enumerate_trees(n):
            t = decorate(word, skel)
            assert skeleton(t) == skel
            assert foliation(t) == word


def test_decorate_length_mismatch():
    with pytest.raises(TreeError):
        decorate((1, 2), "")
    # the order of a shape is its number of "(", so a leaf takes no letter
    with pytest.raises(TreeError, match="word length 3 != tree order 0"):
        decorate((1, 2, 3), "")


@pytest.mark.parametrize("shape", [")(", "((", "(x)", "())(", "(()"])
def test_decorate_refuses_unbalanced_shapes(shape):
    with pytest.raises(TreeError, match="not a balanced word"):
        decorate((1,) * shape.count("("), shape)


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
        assert tree_factorial(skeleton(left_comb((1,) * n))) == math.factorial(n)
        assert tree_factorial(skeleton(right_comb((1,) * n))) == math.factorial(n)


def test_tree_factorial_balanced():
    # by hand: root with two single-vertex children has
    # gamma = (1 + 1 + 1) * 1 * 1 = 3
    assert tree_factorial("()(())") == 3
    assert tree_factorial("") == 1


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
    # the encoding is injective: the catalan(n) trees of order n have distinct
    # shapes, and decorating a shape gives a tree of that shape
    for n in range(9):
        shapes = enumerate_trees(n)
        assert len(set(shapes)) == catalan(n)
        assert all(skeleton(decorate((1,) * n, s)) == s for s in shapes)
    assert skeleton(graft(DLEAF, 1, DLEAF)) == "()"


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
    a = DecoratedTree(DLEAF, 1, DLEAF)
    b = graft(DLEAF, 1, DLEAF)
    assert a == b and hash(a) == hash(b)
    assert a != graft(DLEAF, 2, DLEAF)


def test_equal_trees_are_one_object():
    t = DecoratedTree(DLEAF, 1, DLEAF)
    assert t is graft(DLEAF, 1, DLEAF)
    assert decorate((1, 2), skeleton(left_comb((1, 1)))) is left_comb((1, 2))
    assert pickle.loads(pickle.dumps(t)) is t and copy.deepcopy(t) is t
    u = graft(DLEAF, np.int64(1), DLEAF)
    assert u is t and type(u.letter) is int
    with pytest.raises(TypeError):
        graft(DLEAF, 1.0, DLEAF)
    with pytest.raises(AttributeError):
        t.letter = 2


def test_deep_comb_hashes_and_compares_without_recursion():
    def comb(n):
        t = DLEAF
        for _ in range(n):
            t = DecoratedTree(t, 1, DLEAF)
        return t

    a, b = comb(100_000), comb(100_000)
    assert hash(a) == hash(b) and a == b and {a: "deep"}[b] == "deep"
    assert a is b and a.order == 100_000


def test_long_combs_build_in_a_loop():
    n = 100_000
    word = tuple(1 + k % 3 for k in range(n))
    left = right = DLEAF
    for a, b in zip(reversed(word), word):
        left = graft(DLEAF, a, left)
        right = graft(right, b, DLEAF)
    lc, rc = left_comb(word), right_comb(word)
    assert lc is left and lc.order == n
    assert rc is right and rc.order == n


def test_unreferenced_trees_are_freed():
    t = graft(graft(DLEAF, 123_457, DLEAF), 123_456, DLEAF)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    again = graft(graft(DLEAF, 123_457, DLEAF), 123_456, DLEAF)
    assert again.order == 2 and foliation(again) == (123_457, 123_456)


def test_threads_building_one_tree_get_one_object():
    words = [(10_000 + k, 1) for k in range(2000)]  # letters no other test uses
    results: list = [None] * 4

    def build(slot):
        results[slot] = [left_comb(w) for w in words]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and None not in results
    assert all(a is b for r in results[1:] for a, b in zip(results[0], r))


def test_tree_hooks_stay_in_the_class_body():
    # bench/tracer.py wraps these by name to count construction, hashing and equality
    assert {"__init__", "__hash__", "__eq__"} <= vars(DecoratedTree).keys()
