import itertools
import random
import sys
from fractions import Fraction

import pytest

from dendrifliess import trees
from dendrifliess.algebra import (
    DendriformError,
    ParseError,
    TreePolynomial,
    char_trees,
    delta_to_tree,
    parse_dendriform_expr,
    pre_lie,
    prec,
    render_polynomial,
    render_tree_expr,
    shuffle,
    succ,
)
from dendrifliess.algebra import _prec_trees, _shuffle_trees, _succ_trees
from dendrifliess.operators import terms_from_json
from dendrifliess.trees import (
    DLEAF,
    catalan,
    decorate,
    enumerate_trees,
    graft,
    left_comb,
    right_comb,
)


def x(i: int) -> TreePolynomial:
    return TreePolynomial.single(graft(DLEAF, i, DLEAF))


def random_poly(rng: random.Random, max_order: int = 3,
                terms: int = 2) -> TreePolynomial:
    out = TreePolynomial()
    for _ in range(terms):
        n = rng.randint(1, max_order)
        skel = rng.choice(enumerate_trees(n))
        word = tuple(rng.randint(1, 3) for _ in range(n))
        out = out + TreePolynomial.single(
            decorate(word, skel), Fraction(rng.randint(-4, 4)))
    return out


# ---------------------------------------------------------------------------
# products

def test_shuffle_three_term_example():
    # worked by hand from the two-branch grafting recursion
    got = shuffle(prec(x(1), x(2)), x(3))
    assert render_polynomial(got) == \
        "(x1<(x2<x3)) + (x1<(x2>x3)) + ((x1<x2)>x3)"


def test_half_products_sum_to_shuffle():
    rng = random.Random(11)
    for _ in range(25):
        a, b = random_poly(rng), random_poly(rng)
        assert prec(a, b) + succ(a, b) == shuffle(a, b)


def test_half_products_have_disjoint_supports():
    # the shuffle concatenates its two branches: no tree is reached twice
    ts = [TreePolynomial.single(decorate(word, skel))
          for n in range(1, 4) for skel in enumerate_trees(n)
          for word in itertools.product((0, 1), repeat=n)]
    assert len(ts) == 2 + 8 + 40
    for a in ts:
        for b in ts:
            left, right = prec(a, b), succ(a, b)
            assert not {t for t, _ in left.items()} & {t for t, _ in right.items()}
            assert all(c == 1 for _, c in shuffle(a, b).items())


def test_sliced_kernels_match_graft_definitions():
    # t1 < t2 = t1^l v (t1^r sh t2) and t1 > t2 = (t1 sh t2^l) v t2^r, grafted
    # here tree by tree, against the two slices of the cached shuffle
    def graft_prec(t1, t2):
        return tuple(graft(t1.left, t1.letter, s) for s in _shuffle_trees(t1.right, t2))

    def graft_succ(t1, t2):
        return tuple(graft(s, t2.letter, t2.right) for s in _shuffle_trees(t1, t2.left))

    small = [decorate(word, shape) for n in range(4) for shape in enumerate_trees(n)
             for word in itertools.product((1, 2), repeat=n)]
    assert len(small) == 1 + 2 + 8 + 40
    left, right = left_comb((1, 2) * 25), right_comb((2, 1) * 25)
    # each comb pair shuffles one vertex of one spine into the other: 51 trees
    pairs = list(itertools.product(small, repeat=2)) + [
        (left, left), (right, right), (right, left), (left, small[11]), (small[-1], right)]

    def kernels(t1, t2):
        return (None if t1.is_leaf else _prec_trees(t1, t2),
                None if t2.is_leaf else _succ_trees(t1, t2))

    first = []
    for t1, t2 in pairs:
        lo, hi = kernels(t1, t2)
        if lo is not None:
            assert lo == graft_prec(t1, t2)
        if hi is not None:
            assert hi == graft_succ(t1, t2)
        if lo is not None and hi is not None:
            assert lo + hi == _shuffle_trees(t1, t2)
        first.append((lo, hi))
    known = set(trees._INTERNED.keys())
    builds = 0

    def count_builds(frame, event, arg):  # a profiler sees every DecoratedTree(...) call
        nonlocal builds
        builds += event == "call" and frame.f_code is trees.DecoratedTree.__new__.__code__

    sys.setprofile(count_builds)
    try:
        again = [kernels(t1, t2) for t1, t2 in pairs]
    finally:
        sys.setprofile(None)
    assert again == first
    assert builds == 0 and set(trees._INTERNED.keys()) <= known


def test_dendriform_axioms_exact():
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert prec(prec(a, b), c) == prec(a, shuffle(b, c))
        assert prec(succ(a, b), c) == succ(a, prec(b, c))
        assert succ(a, succ(b, c)) == succ(shuffle(a, b), c)


def test_shuffle_associative_noncommutative():
    a, b = prec(x(1), x(2)), x(3)
    assert shuffle(shuffle(a, b), x(2)) == shuffle(a, shuffle(b, x(2)))
    assert shuffle(x(1), x(2)) != shuffle(x(2), x(1))


def test_unit_behaviour():
    one = TreePolynomial.single(DLEAF)
    assert shuffle(one, x(1)) == x(1)
    assert shuffle(x(1), one) == x(1)


def test_half_products_reject_leaf_terms():
    one = TreePolynomial.single(DLEAF)
    with pytest.raises(DendriformError):
        prec(one, x(1))
    with pytest.raises(DendriformError):
        succ(x(1), one)
    # the other slot is fine
    assert prec(x(1), one) == x(1)
    assert succ(one, x(1)) == x(1)


def test_pre_lie_is_prec_minus_succ():
    a, b = x(1), x(2)
    assert pre_lie(a, b) == prec(a, b) - succ(a, b)


def test_char_recursion_and_support():
    # char(n) = char(n-1) shuffle x1, with full skeleton support
    acc = TreePolynomial.single(DLEAF)
    for n in range(1, 6):
        acc = shuffle(acc, x(1))
        cn = char_trees(n)
        assert cn == acc
        assert len(cn) == catalan(n)
        assert all(coeff > 0 for _, coeff in cn.items())


# ---------------------------------------------------------------------------
# polynomial container

def test_polynomial_zero_coefficients_dropped():
    p = x(1) - x(1)
    assert p.is_zero() and len(p) == 0


def test_polynomial_coefficients_are_exact_rationals():
    t = graft(DLEAF, 1, DLEAF)
    p = TreePolynomial({t: 0.1})
    assert p.coefficient(t) == Fraction(0.1)
    assert p.to_json()[0]["coeff"] == str(Fraction(0.1))
    for got in (p, shuffle(p, x(2)), prec(p, x(2)), succ(p, x(2)), p + p, p - x(1),
                -p, p.scale(0.5), 2.5 * p, TreePolynomial.single(t, 3)):
        assert all(type(c) is Fraction for _, c in got.items())
    assert p.scale(0.0).is_zero()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_polynomial_refuses_non_finite_coefficients(bad):
    t = graft(DLEAF, 1, DLEAF)
    with pytest.raises(ValueError, match="not a finite rational"):
        TreePolynomial({t: bad})
    with pytest.raises(ValueError, match="not a finite rational"):
        TreePolynomial.single(t, bad)
    with pytest.raises(ValueError, match="not a finite rational"):
        x(1).scale(bad)


def test_polynomial_scale_and_truncate():
    p = x(1) + prec(x(1), x(2))
    assert p.truncate(1) == x(1)
    assert p.scale(Fraction(0)).is_zero()
    assert 2 * p == p + p


def test_polynomial_json_roundtrip():
    p = x(1).scale(Fraction(3, 7)) - prec(x(2), x(1))
    assert TreePolynomial(terms_from_json(p.to_json())) == p


# ---------------------------------------------------------------------------
# parenthesis words and the delta map

def test_parenthesis_word_accepts_valid_forms():
    for text in ("x1", "x1[x2]", "[x1]x2", "[x1]x2[x3]", "x1[[x2]x3]"):
        delta_to_tree(text)


@pytest.mark.parametrize("text,cond", [
    ("x1]x2", "i"),
    ("[x1", "i"),
    ("x1x2", "ii"),
    ("x1[]x2", "iii"),
    ("[x1]", "iv"),
    ("[x1[x2]]", "iv"),
    ("x1[[x2]]", "v"),
    ("x1[x2]x3", "v"),
])
def test_parenthesis_word_rejections(text, cond):
    with pytest.raises(ParseError) as err:
        delta_to_tree(text)
    assert err.value.condition == cond


def test_delta_examples():
    # delta(x1[x2]) = x1 < x2, delta([x1]x2) = x1 > x2,
    #         delta(x1[[x2]x3]) = x1 < (x2 > x3)
    assert delta_to_tree("x1[x2]") == \
        graft(DLEAF, 1, graft(DLEAF, 2, DLEAF))
    assert delta_to_tree("[x1]x2") == \
        graft(graft(DLEAF, 1, DLEAF), 2, DLEAF)
    t = delta_to_tree("x1[[x2]x3]")
    assert render_tree_expr(t) == "(x1<(x2>x3))"


def test_delta_matches_expression_semantics():
    # tree from the word grammar == tree from the product expression
    pairs = [("x1[x2]", "(x1<x2)"), ("[x1]x2", "(x1>x2)"),
             ("[x1]x2[x3]", "((x1>x2)<x3)")]
    for word, expr in pairs:
        t = delta_to_tree(word)
        assert TreePolynomial.single(t) == parse_dendriform_expr(expr)


# ---------------------------------------------------------------------------
# expression surface syntax

def test_expr_parse_render_roundtrip():
    rng = random.Random(23)
    for _ in range(20):
        p = random_poly(rng, max_order=3, terms=3)
        assert parse_dendriform_expr(render_polynomial(p)) == p


def test_expr_rational_coefficients():
    p = parse_dendriform_expr("1/2 * x1 - 3 * (x1>x2)")
    assert p.coefficient(graft(DLEAF, 1, DLEAF)) == Fraction(1, 2)
    assert p.coefficient(graft(graft(DLEAF, 1, DLEAF), 2, DLEAF)) == -3


def test_expr_errors():
    for bad in ("", "x1 +", "(x1<", "x1 x2", "q3"):
        with pytest.raises(ParseError):
            parse_dendriform_expr(bad)
