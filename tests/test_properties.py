"""Property tests: the dendriform identities on random rational polynomials,
and the JSON round-trips of series records."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendrifliess.algebra import (
    TreePolynomial,
    _prec_trees,
    _shuffle_trees,
    _succ_trees,
    pre_lie,
    prec,
    shuffle,
    succ,
)
from dendrifliess.operators import terms_from_json
from dendrifliess.trees import (
    DLEAF,
    canonical_key,
    decorate,
    enumerate_trees,
    graft,
    tree_to_json,
)

# deterministic and bounded, so the suite stays reproducible and quick
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                             max_examples=40)


@st.composite
def decorated_trees(draw, min_order: int = 1, max_order: int = 3):
    """A tree of order ``min_order..max_order`` decorated over x0..x2."""
    n = draw(st.integers(min_order, max_order))
    skel = draw(st.sampled_from(enumerate_trees(n)))
    return decorate(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), skel)


def polynomials(min_order: int = 1):
    """Rational polynomials with up to three terms of order at most 3."""
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.dictionaries(decorated_trees(min_order), coeffs, max_size=3).map(TreePolynomial)


@PROPERTY_SETTINGS
@given(polynomials(), polynomials(), polynomials())
def test_dendriform_identities(a, b, c):
    assert prec(prec(a, b), c) == prec(a, shuffle(b, c))
    assert prec(succ(a, b), c) == succ(a, prec(b, c))
    assert succ(a, succ(b, c)) == succ(shuffle(a, b), c)
    assert prec(a, b) + succ(a, b) == shuffle(a, b)
    assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


#: the leaf and the trees of order 1-2 over x1, x2: few enough that terms collide
FEW_TREES = [decorate(word, shape) for n in range(3) for shape in enumerate_trees(n)
             for word in itertools.product((1, 2), repeat=n)]
small_integer_polynomials = st.dictionaries(
    st.sampled_from(FEW_TREES), st.integers(-2, 2), max_size=6).map(TreePolynomial)


def _filtered(terms) -> TreePolynomial:
    """Sum ``(tree, coeff)`` pairs with zeros kept, then filter them out
    through the public constructor."""
    out: dict = {}
    for t, c in terms:
        out[t] = out.get(t, 0) + c
    return TreePolynomial(out)


def _filtered_product(p, q, tree_product) -> TreePolynomial:
    return _filtered((t, c1 * c2) for t1, c1 in p.items() for t2, c2 in q.items()
                     for t in tree_product(t1, t2))


X1, X2 = graft(DLEAF, 1, DLEAF), graft(DLEAF, 2, DLEAF)
X1_X2 = graft(DLEAF, 1, X2)


@PROPERTY_SETTINGS
@given(small_integer_polynomials, small_integer_polynomials)
# the shuffle reaches (x1<x2) three times, in this order: leaf sh (x1<x2) (+1),
# x1 sh x2 (-1, so the term cancels) and (x1<x2) sh leaf (+1, so it comes back)
@example(TreePolynomial({DLEAF: 1, X1: -1, X1_X2: 1}),
         TreePolynomial({X1_X2: 1, X2: 1, DLEAF: 1}))
def test_results_store_no_zero_coefficient(p, q):
    p_, q_ = (TreePolynomial({t: c for t, c in r.items() if t is not DLEAF}) for r in (p, q))
    for got, want in (
            (shuffle(p, q), _filtered_product(p, q, _shuffle_trees)),
            (prec(p_, q), _filtered_product(p_, q, _prec_trees)),
            (succ(p, q_), _filtered_product(p, q_, _succ_trees)),
            (p + q, _filtered([*p.items(), *q.items()])),
            (p - q, _filtered([*p.items(), *((t, -c) for t, c in q.items())]))):
        assert all(type(c) is Fraction and c for _, c in got.items())
        assert _in_lowest_terms(got)
        assert got == want


def _in_lowest_terms(p: TreePolynomial) -> bool:
    """The stored form: nonzero integer numerators over a positive
    denominator that shares no factor with all of them."""
    return (p._den > 0 and all(type(c) is int and c for c in p._nums.values())
            and math.gcd(p._den, *p._nums.values()) == 1)


def _reference(terms) -> list:
    """Sum ``(tree, Fraction)`` pairs in a ``Fraction`` dict and list the
    nonzero ones in ``items()`` order."""
    out: dict = {}
    for t, c in terms:
        out[t] = out.get(t, Fraction(0)) + c
    return sorted(((t, c) for t, c in out.items() if c), key=lambda kv: canonical_key(kv[0]))


def _reference_product(p, q, tree_product) -> list:
    return _reference((t, c1 * c2) for t1, c1 in p.items() for t2, c2 in q.items()
                      for t in tree_product(t1, t2))


rational_polynomials = st.dictionaries(
    st.sampled_from(FEW_TREES),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)), max_size=6).map(TreePolynomial)


@PROPERTY_SETTINGS
@given(rational_polynomials, rational_polynomials, st.sampled_from(FEW_TREES),
       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)), st.integers(0, 2))
def test_integer_numerators_match_fraction_reference(p, q, tree, k, n):
    p_, q_ = (TreePolynomial({t: c for t, c in r.items() if t is not DLEAF}) for r in (p, q))
    cases = [
        (shuffle(p, q), _reference_product(p, q, _shuffle_trees)),
        (prec(p_, q), _reference_product(p_, q, _prec_trees)),
        (succ(p, q_), _reference_product(p, q_, _succ_trees)),
        (pre_lie(p_, q_), _reference([*_reference_product(p_, q_, _prec_trees),
                                      *((t, -c) for t, c in _reference_product(
                                          p_, q_, _succ_trees))])),
        (p + q, _reference([*p.items(), *q.items()])),
        (p - q, _reference([*p.items(), *((t, -c) for t, c in q.items())])),
        (p.scale(k), _reference((t, k * c) for t, c in p.items())),
        (p.truncate(n), _reference((t, c) for t, c in p.items() if t.order <= n)),
        (p + TreePolynomial.single(tree, k), _reference([*p.items(), (tree, k)])),
    ]
    for got, want in cases:
        assert list(got.items()) == want
        assert all(type(c) is Fraction for _, c in got.items())
        assert _in_lowest_terms(got)
    # == is equality of the coefficients, however a polynomial was built
    for (x, _), (y, _) in itertools.product(cases, repeat=2):
        assert (x == y) == (list(x.items()) == list(y.items()))
    assert p.scale(2).scale(Fraction(1, 2)) == p
    assert (p + q) - q == p
    assert p.scale(k) == TreePolynomial({t: k * c for t, c in p.items()})


@PROPERTY_SETTINGS
@given(polynomials(min_order=0))
def test_polynomial_json_roundtrip(p):
    assert TreePolynomial(terms_from_json(json.loads(json.dumps(p.to_json())))) == p


matrices = st.lists(st.floats(-10, 10), min_size=4, max_size=4).map(
    lambda v: np.array(v).reshape(2, 2)).filter(np.any)


@PROPERTY_SETTINGS
@given(st.dictionaries(decorated_trees(min_order=0), matrices, max_size=3))
def test_matrix_records_roundtrip(terms):
    records = [{"coeff": c.tolist(), "tree": tree_to_json(t)} for t, c in terms.items()]
    back = terms_from_json(json.loads(json.dumps(records)))
    assert back.keys() == terms.keys()
    assert all(np.array_equal(back[t], c) for t, c in terms.items())
