"""Acceptance gate: one test per shipped claim, tolerances pinned in-line.

Each test prints a single "criterion <k> ... PASS" line on success; under
``pytest -v`` the per-test PASSED/FAILED line doubles as the machine-readable
verdict.
"""

import math
import random
from fractions import Fraction

import numpy as np

from dendrifliess.algebra import (
    TreePolynomial,
    char_trees,
    prec,
    render_polynomial,
    shuffle,
    succ,
)
from dendrifliess.integrals import (
    check_factorial_identity,
    check_product_identity,
    check_ubar_domination,
    evaluate_tree,
)
from dendrifliess.operators import (
    convergence_certificate,
    dyson_series,
    evaluate_fliess,
    expm_stack,
    finite_series,
    full_support_series,
    magnus_evaluate,
    magnus_generating_series,
    product_connection,
    resolve_pre_lie_orientation,
    rk4_reference,
)
from dendrifliess.signals import (
    MatrixSignal,
    constant_signal,
    signal_norm,
    spin_field,
    stack_norm1,
)
from dendrifliess.trees import (
    DLEAF,
    catalan,
    decorate,
    enumerate_trees,
    graft,
    left_comb,
    right_comb,
    skeleton,
    tree_factorial,
)


def x(i: int) -> TreePolynomial:
    return TreePolynomial.single(graft(DLEAF, i, DLEAF))


def smooth_signal_on_grid(seed: int, m: int, dim: int, horizon: float,
                          num_steps: int, amplitude: float,
                          modes: int = 2) -> MatrixSignal:
    """Deterministic trigonometric signal re-samplable on any grid.

    Unlike drawing fresh samples per grid, the underlying function is fixed
    by the seed, so refining the grid refines the same signal.
    """
    rng = np.random.default_rng(seed)
    coeffs = [(rng.standard_normal((m, dim, dim)),
               rng.standard_normal((m, dim, dim)))
              for _ in range(modes + 1)]
    t = np.linspace(0.0, horizon, num_steps + 1)
    samples = np.zeros((m, num_steps + 1, dim, dim))
    for k, (a, b) in enumerate(coeffs):
        w = 2.0 * math.pi * k * t / horizon
        samples += np.cos(w)[None, :, None, None] * a[:, None] \
            + np.sin(w)[None, :, None, None] * b[:, None]
    scale = amplitude / max(np.abs(samples).max(), 1e-12)
    return MatrixSignal(samples * scale, horizon)


# ---------------------------------------------------------------------------

def test_criterion_1_combinatorics():
    # exact: |trees(n)| = catalan(n) for n = 0..12; gamma(combs) = n!, n <= 8
    for n in range(13):
        assert len(enumerate_trees(n)) == catalan(n)
    assert catalan(12) == 208012
    for n in range(9):
        assert tree_factorial(skeleton(left_comb((1,) * n))) == math.factorial(n)
        assert tree_factorial(skeleton(right_comb((1,) * n))) == math.factorial(n)
    print("criterion 1 (combinatorics, exact): PASS")


def test_criterion_2_algebra_exact():
    # exact rational arithmetic on 500 seeded random triples of order <= 4
    rng = random.Random(2024)

    def rand_tree() -> TreePolynomial:
        n = rng.randint(1, 4)
        skel = rng.choice(enumerate_trees(n))
        word = tuple(rng.randint(0, 2) for _ in range(n))
        return TreePolynomial.single(decorate(word, skel),
                                     Fraction(rng.randint(1, 3)))

    for _ in range(500):
        a, b, c = rand_tree(), rand_tree(), rand_tree()
        assert prec(prec(a, b), c) == prec(a, shuffle(b, c))
        assert prec(succ(a, b), c) == succ(a, prec(b, c))
        assert succ(a, succ(b, c)) == succ(shuffle(a, b), c)
        assert prec(a, b) + succ(a, b) == shuffle(a, b)
        assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))

    # the worked three-term shuffle, exactly
    assert render_polynomial(shuffle(prec(x(1), x(2)), x(3))) == \
        "(x1<(x2<x3)) + (x1<(x2>x3)) + ((x1<x2)>x3)"

    # characteristic polynomial = n-fold shuffle power, n <= 7
    power = TreePolynomial.single(DLEAF)
    for n in range(1, 8):
        power = shuffle(power, x(1))
        assert char_trees(n) == power
    print("criterion 2 (dendriform axioms + shuffle identities, exact): PASS")


def test_criterion_3_product_theorem():
    # 100 seeded cases, combined order <= 5; Richardson ratio of the
    # discretization residual between N=2048 and N=4096 in [3.2, 4.8];
    # finest residual <= 1e-5 at N=4096, T=1
    rng = random.Random(37)
    grids = (2048, 4096)
    for case in range(100):
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 5 - n1)
        t1 = decorate(tuple(rng.randint(0, 2) for _ in range(n1)),
                      rng.choice(enumerate_trees(n1)))
        t2 = decorate(tuple(rng.randint(0, 2) for _ in range(n2)),
                      rng.choice(enumerate_trees(n2)))
        seed = 10_000 + case
        residuals = [check_product_identity(
            t1, t2, smooth_signal_on_grid(seed, 2, 2, 1.0, n, amplitude=0.9))
            for n in grids]
        assert residuals[1] <= 1e-5, f"case {case}: {residuals[1]:.3e}"
        ratio = residuals[0] / residuals[1]
        assert 3.2 <= ratio <= 4.8, f"case {case}: ratio {ratio:.3f}"
    print("criterion 3 (product theorem, ratio in [3.2,4.8], "
          "residual <= 1e-5): PASS")


def test_criterion_4_bounds():
    # constant-input closed form within 1e-6 at h = 1e-3 for n <= 4
    one = constant_signal(np.array([[1.0]]), 1.0, 1000)
    for n in range(1, 5):
        for skel in enumerate_trees(n):
            t = decorate((1,) * n, skel)
            got = evaluate_tree(t, one).values[:, 0, 0]
            want = one.grid ** n / tree_factorial(skel)
            assert np.max(np.abs(got - want)) <= 1e-6

    # domination by the scalar majorant on 200 seeded cases
    rng = random.Random(404)
    for case in range(200):
        n = rng.randint(1, 4)
        t = decorate(tuple(rng.randint(0, 2) for _ in range(n)),
                     rng.choice(enumerate_trees(n)))
        u = smooth_signal_on_grid(20_000 + case, 2, 2, 1.0, 256,
                                  amplitude=rng.uniform(0.2, 1.5))
        lhs, rhs = check_ubar_domination(t, u)
        assert lhs <= rhs * (1 + 1e-6) + 1e-9, f"case {case}"

    # n!-identity with constant scalar majorant, n <= 4
    const = constant_signal(np.array([[0.9]]), 1.0, 1000)
    for n in range(1, 5):
        assert check_factorial_identity(n, const) <= 1e-6
    print("criterion 4 (closed form 1e-6, domination, n!-identity 1e-6): PASS")


def test_criterion_5_convergence_certificate():
    # K = M = 1, m = 1: radius exactly 1/2; with R = 1/4 (ratio 1/2) every
    # order-n partial-sum increment obeys the geometric majorant K*(1/2)^n
    # at every grid node, n <= 8
    c = full_support_series(1, K=1.0, M=1.0)
    u = constant_signal(np.array([[0.8]]), 0.25, 16)
    cert = convergence_certificate(c, u, 8)
    assert cert.radius == 0.5
    assert cert.R == 0.25  # max(|u| L1 = 0.2, T = 0.25)
    ratio = 0.5
    assert cert.tail == (ratio ** 9) / (1 - ratio)

    out = evaluate_fliess(c, u, 8)
    for n, inc in enumerate(out.increments):
        observed = float(stack_norm1(inc).max())
        assert observed <= ratio ** n + 1e-12, \
            f"order {n}: {observed:.3e} > {ratio ** n:.3e}"
    print("criterion 5 (radius = 1/2 exact, increments under (1/2)^n): PASS")


def _half_norm_spin(num_steps: int) -> MatrixSignal:
    u = spin_field(1.0, "rot", 1.0, num_steps)
    return u.scaled(0.5 / signal_norm(u))


def test_criterion_6_dyson_vs_rk4():
    # truncation order 10 vs Runge-Kutta (refinement 8) on the rotating-axis
    # spin input with L1 norm 0.5: deviation <= 1e-4
    u = _half_norm_spin(1024)
    dyson = evaluate_fliess(dyson_series(10), u, 10)
    ref = rk4_reference(u, 8)
    dev = float(stack_norm1(dyson.values - ref).max())
    assert dev <= 1e-4, f"deviation {dev:.3e}"
    print(f"criterion 6 (Dyson order 10 vs RK4 <= 1e-4; got {dev:.2e}): PASS")


def test_criterion_7_magnus():
    # exact order-3 exponent: coefficients (1, -1/2, 1/4, 1/12) on the
    # nested standard brackets of the letter
    def bracket(a: TreePolynomial, b: TreePolynomial) -> TreePolynomial:
        return succ(a, b) - prec(b, a)

    b1 = bracket(x(1), x(1))
    expected = x(1) + b1.scale(Fraction(-1, 2)) \
        + bracket(b1, x(1)).scale(Fraction(1, 4)) \
        + bracket(x(1), b1).scale(Fraction(1, 12))
    assert magnus_generating_series(3).poly == expected

    # the empirical orientation resolution picks the standard bracket
    u = _half_norm_spin(512)
    assert resolve_pre_lie_orientation(u) == "standard"

    # exp(Omega_N) vs RK4: strictly decreasing over N = 1..4, <= 1e-4 at N=4
    ref = rk4_reference(u, 4)[-1]
    errors = []
    for order in (1, 2, 3, 4):
        _, z = magnus_evaluate(magnus_generating_series(order), u)
        errors.append(float(stack_norm1(z[-1] - ref)))
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] <= 1e-4, errors

    # skew-symmetric input: exp(Omega_4) orthogonal within 1e-6
    _, z = magnus_evaluate(magnus_generating_series(4), u)
    ortho = max(float(np.abs(w.T @ w - np.eye(3)).max()) for w in z)
    assert ortho <= 1e-6, ortho
    print("criterion 7 (exact order-3 exponent, decreasing errors <= 1e-4, "
          "orthogonality 1e-6): PASS")


def test_criterion_8_product_connection():
    # F_c F_d - F_{c sh d} residual decays at second order in h on finite
    # series with support order <= 2: halving ratios in [3.2, 4.8]
    c = finite_series(x(1) + prec(x(1), x(2)))
    d = finite_series(x(2) - succ(x(2), x(1)).scale(Fraction(1, 2)))
    e = product_connection(c, d)
    residuals = []
    for num_steps in (512, 1024, 2048):
        u = smooth_signal_on_grid(99, 2, 2, 1.0, num_steps, amplitude=0.9)
        fc = evaluate_fliess(c, u, 2).values
        fd = evaluate_fliess(d, u, 2).values
        fe = evaluate_fliess(e, u, 4).values
        residuals.append(float(stack_norm1(fc @ fd - fe).max()))
    for coarse, fine in zip(residuals, residuals[1:]):
        ratio = coarse / fine
        assert 3.2 <= ratio <= 4.8, (residuals, ratio)
    print("criterion 8 (product connection O(h^2), ratios in [3.2,4.8]): PASS")
