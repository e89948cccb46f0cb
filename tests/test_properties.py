"""Property tests: the dendriform identities on random rational polynomials,
and the JSON round-trips of series records."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifliess.algebra import TreePolynomial, prec, shuffle, succ
from dendrifliess.operators import terms_from_json
from dendrifliess.trees import decorate, enumerate_trees, tree_to_json

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
