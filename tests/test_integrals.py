import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from dendrifliess.algebra import TreePolynomial, pre_lie, prec, succ
from dendrifliess.integrals import (
    TreeEvaluator,
    bound_left_comb,
    bound_tree_factorial,
    check_factorial_identity,
    check_product_identity,
    check_ubar_domination,
    evaluate_polynomial,
    evaluate_tree,
)
from dendrifliess.operators import convergence_certificate, full_support_series
from dendrifliess.signals import (
    MatrixSignal,
    SignalError,
    constant_signal,
    random_smooth_signal,
    signal_norm,
    stack_norm1,
    trapezoid_prefix,
    ubar_totals,
)
from dendrifliess.trees import (
    DLEAF,
    decorate,
    enumerate_trees,
    graft,
    left_comb,
    skeleton,
    tree_factorial,
)


def x(i: int) -> TreePolynomial:
    return TreePolynomial.single(graft(DLEAF, i, DLEAF))


@pytest.fixture
def u22():
    return random_smooth_signal(np.random.default_rng(42), 2, 2, 1.0, 512,
                                amplitude=0.8)


def test_single_vertex_is_prefix_integral(u22):
    # E of the one-vertex tree is just the running integral of u_i
    got = evaluate_tree(graft(DLEAF, 1, DLEAF), u22).values
    want = trapezoid_prefix(u22.channel(1), u22.h)
    assert np.allclose(got, want, atol=0)


def test_drift_letter_gives_time(u22):
    got = evaluate_tree(graft(DLEAF, 0, DLEAF), u22).values
    assert np.allclose(got, u22.grid[:, None, None] * np.eye(2), atol=1e-12)


def test_constant_input_closed_form():
    u = constant_signal(np.array([[1.0]]), 1.0, 1000)
    for n in range(1, 5):
        for skel in enumerate_trees(n):
            t = decorate((1,) * n, skel)
            got = evaluate_tree(t, u).values[:, 0, 0]
            want = u.grid ** n / tree_factorial(skel)
            assert np.max(np.abs(got - want)) < 1e-6


def test_linearity(u22):
    p = x(1).scale(Fraction(2, 3)) - prec(x(1), x(2))
    whole = evaluate_polynomial(p, u22).values
    parts = (2.0 / 3.0) * evaluate_polynomial(x(1), u22).values \
        - evaluate_polynomial(prec(x(1), x(2)), u22).values
    assert np.allclose(whole, parts, atol=1e-14)


def test_zero_polynomial(u22):
    out = evaluate_polynomial(TreePolynomial(), u22)
    assert np.allclose(out.values, 0.0, atol=0)


def test_pre_lie_is_commutator_integral(u22):
    # the order-2 pre-Lie element integrates the commutator of the signal
    # with its own running integral
    got = evaluate_polynomial(pre_lie(x(1), x(1)), u22).values
    big_u = trapezoid_prefix(u22.channel(1), u22.h)
    comm = u22.channel(1) @ big_u - big_u @ u22.channel(1)
    want = trapezoid_prefix(comm, u22.h)
    # both sides use the same quadrature but nest it differently
    assert float(stack_norm1(got - want).max()) < 1e-4


def test_matrix_coefficients_act_on_left(u22):
    c = np.array([[1.0, 2.0], [0.0, -1.0]])
    got = TreeEvaluator(u22).weighted_sum([(graft(DLEAF, 1, DLEAF), c)])
    want = c @ evaluate_polynomial(x(1), u22).values
    assert np.allclose(got, want, atol=0)


def test_product_identity_small_residual(u22):
    t1 = graft(DLEAF, 1, DLEAF)
    t2 = graft(DLEAF, 2, graft(DLEAF, 1, DLEAF))
    assert check_product_identity(t1, t2, u22) < 1e-4


def test_alphabet_mismatch(u22):
    with pytest.raises(SignalError):
        evaluate_tree(graft(DLEAF, 3, DLEAF), u22)


def test_evaluator_cache_reuse(u22):
    ev = TreeEvaluator(u22)
    t = graft(DLEAF, 1, graft(DLEAF, 2, DLEAF))
    a = ev.values(t)
    assert ev.values(t) is a


def test_bounds_dominate(u22):
    for n in range(1, 4):
        for skel in enumerate_trees(n):
            t = decorate((1,) * n, skel)
            actual = float(stack_norm1(evaluate_tree(t, u22).values).max())
            assert actual <= bound_tree_factorial(t, u22) * (1 + 1e-9) + 1e-12
    word = (1, 2, 1)
    actual = float(stack_norm1(evaluate_tree(left_comb(word), u22).values).max())
    assert actual <= bound_left_comb(word, u22) * (1 + 1e-9) + 1e-12


def test_bound_tree_factorial_needs_single_letter(u22):
    with pytest.raises(ValueError):
        bound_tree_factorial(left_comb((1, 2)), u22)


@pytest.mark.parametrize("bound, arg, message", [
    (bound_tree_factorial, graft(DLEAF, 5, DLEAF), "tree letter x5"),
    (bound_tree_factorial, left_comb((2, 2)), "tree letter x2"),
    (bound_left_comb, (5,), "letter x5"),
    (bound_left_comb, (1, 0, 3, 1), "letter x3"),
    (bound_left_comb, (1, -1), "letter x-1"),  # not read as the last letter
])
def test_bounds_name_the_signal_alphabet(bound, arg, message):
    # the error that evaluating a tree outside the alphabet raises
    u = constant_signal(np.eye(2), 1.0, 4)
    with pytest.raises(SignalError, match=f"^{message} outside signal alphabet x0..x1$"):
        bound(arg, u)
    if bound is bound_tree_factorial:
        with pytest.raises(SignalError, match=f"^{message} outside signal alphabet x0..x1$"):
            TreeEvaluator(u).values(arg)


def _ubar_integrals(u):
    """The running trapezoid integral of each channel's pointwise norm; (m, N+1)."""
    return trapezoid_prefix(stack_norm1(u.samples).T, u.h).T


def _parent_totals(u):
    """The per-letter Ubar_j(T) as the bounds wrote it out before ubar_totals."""
    return [u.horizon if j == 0 else float(_ubar_integrals(u)[j - 1, -1])
            for j in range(u.m + 1)]


def _parent_signal_norm(u):
    return 0.0 if u.m == 0 else float(_ubar_integrals(u)[:, -1].max())


@pytest.mark.parametrize("m, horizon, amplitude", [
    (0, 0.7, 1.0), (1, 0.5, 3.0), (1, 2.0, 0.2), (2, 1.0, 0.8), (2, 0.3, 5.0)])
def test_ubar_totals_give_the_parent_bounds(m, horizon, amplitude):
    # the parent's formulas, with their drift branches, as the reference
    if m == 0:
        u = MatrixSignal(np.zeros((0, 33, 2, 2)), horizon)
    else:
        u = random_smooth_signal(np.random.default_rng(m), m, 2, horizon, 32,
                                 amplitude=amplitude)
    totals = _parent_totals(u)
    assert ubar_totals(u).tolist() == totals and totals[0] == horizon
    assert signal_norm(u) == _parent_signal_norm(u)
    cert = convergence_certificate(full_support_series(m), u, 3)
    assert cert.R == max(_parent_signal_norm(u), u.horizon)
    if m == 0:
        assert signal_norm(u) == 0.0 and cert.R == horizon
    for j in range(m + 1):
        for n in range(5):
            for skel in enumerate_trees(n):
                want = (totals[j] ** n if n else 1.0) / tree_factorial(skel)
                assert bound_tree_factorial(decorate((j,) * n, skel), u) == want
    for word in itertools.product(range(m + 1), repeat=3):
        want = 1.0
        for j in set(word):
            want *= totals[j] ** word.count(j) / math.factorial(word.count(j))
        assert bound_left_comb(word, u) == want


def test_ubar_domination(u22):
    for skel in enumerate_trees(3):
        lhs, rhs = check_ubar_domination(decorate((1, 2, 1), skel), u22)
        assert lhs <= rhs * (1 + 1e-6) + 1e-9


def test_factorial_identity_constant():
    u = constant_signal(np.array([[0.7]]), 1.0, 400)
    for n in range(1, 5):
        assert check_factorial_identity(n, u) < 1e-6
    with pytest.raises(ValueError):
        check_factorial_identity(8, u)
