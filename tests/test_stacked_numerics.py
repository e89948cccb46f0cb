"""Stacked numeric kernels: the batched matrix exponential and the RK4
oracle built from step propagators equal their one-matrix, one-step loop
definitions, the oracle's blocked scan equals the running product taken one
step at a time, the kernels keep their input contract, do not overflow near
the float maximum, and the oracle never calls the exponential.  An RK4
oracle for every tree checks the trapezoid's iterated integrals."""

import functools
import itertools
import math

import numpy as np
import pytest

from dendrifliess import operators
from dendrifliess.integrals import TreeEvaluator
from dendrifliess.operators import (evaluate_fliess, expm_stack, finite_series, matrix_exp,
                                    rk4_reference)
from dendrifliess.signals import constant_signal, random_smooth_signal, spin_field
from dendrifliess.trees import (DLEAF, decorate, enumerate_trees, foliation, skeleton,
                                tree_factorial)


# ---------------------------------------------------------------------------
# reference oracles: one matrix and one fine step at a time

def ref_matrix_exp(a):
    """Scaling-and-squaring with a truncated Taylor series, one matrix."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    b = a / (2 ** squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 40):
        term = term @ b / k
        out = out + term
        if float(np.abs(term).max()) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def ref_rk4(u, refinement):
    """Classical RK4 on Zdot = U(t) Z, Z(0) = I, one fine step at a time."""
    big_u = u.channel(1)
    fine = u.num_steps * refinement
    hf = u.horizon / fine
    tt = np.linspace(0.0, u.horizon, 2 * fine + 1)
    pos = tt / u.h
    idx = np.minimum(pos.astype(int), u.num_steps - 1)
    frac = (pos - idx)[:, None, None]
    u_half = (1.0 - frac) * big_u[idx] + frac * big_u[idx + 1]
    z = np.eye(u.dim)
    out = np.empty((u.num_steps + 1, u.dim, u.dim))
    out[0] = z
    for j in range(fine):
        a1, a2, a4 = u_half[2 * j], u_half[2 * j + 1], u_half[2 * j + 2]
        k1 = a1 @ z
        k2 = a2 @ (z + 0.5 * hf * k1)
        k3 = a2 @ (z + 0.5 * hf * k2)
        k4 = a4 @ (z + hf * k3)
        z = z + hf / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (j + 1) % refinement == 0:
            out[(j + 1) // refinement] = z
    return out


def ref_rk4_running_product(u, refinement):
    """RK4 as stacked step propagators, taken as a running product over the
    coarse steps one at a time, on half-step values gathered by index."""
    big_u = u.channel(1)
    fine = u.num_steps * refinement
    hf = u.horizon / fine
    tt = np.linspace(0.0, u.horizon, 2 * fine + 1)
    pos = tt / u.h
    idx = np.minimum(pos.astype(int), u.num_steps - 1)
    frac = (pos - idx)[:, None, None]
    u_half = (1.0 - frac) * big_u[idx] + frac * big_u[idx + 1]
    eye = np.eye(u.dim)
    a1, a2, a4 = u_half[:-1:2], u_half[1::2], u_half[2::2]
    k2 = a2 @ (eye + 0.5 * hf * a1)
    k3 = a2 @ (eye + 0.5 * hf * k2)
    k4 = a4 @ (eye + hf * k3)
    steps = (hf / 6.0 * (a1 + 2.0 * k2 + 2.0 * k3 + k4)).reshape(
        u.num_steps, refinement, u.dim, u.dim)
    coarse = steps[:, 0]
    for r in range(1, refinement):
        coarse = coarse + steps[:, r] + steps[:, r] @ coarse
    z = eye
    out = [z]
    for step in coarse:
        z = z + step @ z
        out.append(z)
    return np.stack(out)


def ref_tree_rk4(trees, u):
    """E_t on the grid for each of ``trees``, by classical RK4 on the system
    dE_v/dt = E_l u_x(t) E_r over the distinct vertices v = (l, x, r) of their
    support, with E_leaf = I and E_v(0) = 0.  As in :func:`rk4_reference`, u is
    linear within each step, so its midpoint value is the mean of the ends.
    Every stage is one stacked product over the vertices, slot 0 holding I."""
    seen, todo = set(), list(trees)
    while todo:
        v = todo.pop()
        if not v.is_leaf and v not in seen:
            seen.add(v)
            todo += (v.left, v.right)
    vertices = sorted(seen, key=lambda v: v.order)  # children before parents
    slot = {v: k + 1 for k, v in enumerate(vertices)}
    left = [slot.get(v.left, 0) for v in vertices]
    right = [slot.get(v.right, 0) for v in vertices]
    letter = [v.letter for v in vertices]
    chan = np.stack([u.channel(i) for i in range(u.m + 1)], axis=1)  # (N+1, m+1, n, n)
    h = u.h

    def rate(e, uc):
        k = np.zeros_like(e)
        k[1:] = e[left] @ uc[letter] @ e[right]
        return k

    e = np.zeros((len(vertices) + 1, u.dim, u.dim))
    e[0] = np.eye(u.dim)
    out = [e]
    for ua, ub in zip(chan[:-1], chan[1:]):
        um = 0.5 * (ua + ub)
        k1 = rate(e, ua)
        k2 = rate(e + 0.5 * h * k1, um)
        k3 = rate(e + 0.5 * h * k2, um)
        k4 = rate(e + h * k3, ub)
        e = e + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(e)
    out = np.stack(out)
    return {t: out[:, slot.get(t, 0)] for t in trees}


def _max_rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


# ---------------------------------------------------------------------------
# matrix exponential

def _mixed_norm_stack():
    """3x3 matrices with 1-norms from 1e-3 to 400: squaring counts 0 to 10."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((24, 3, 3))
    norms = np.abs(a).sum(axis=1).max(axis=1)
    return a * (np.geomspace(1e-3, 400.0, len(a)) / norms)[:, None, None]


def test_expm_stack_matches_reference_on_mixed_norms():
    from scipy.linalg import expm  # cross-check only; not a runtime dependency

    stack = _mixed_norm_stack()
    got = expm_stack(stack)
    for g, a in zip(got, stack):
        assert _max_rel(g, ref_matrix_exp(a)) <= 1e-12
        assert _max_rel(g, expm(a)) <= 1e-10
    # every matrix is as it would be alone in the stack
    for g, a in zip(got, stack):
        assert _max_rel(matrix_exp(a), g) <= 1e-12


@pytest.mark.parametrize("x", [-1e308, -5e307, -700.0, 0.6])
def test_matrix_exp_near_float_max_matches_exp(x):
    assert np.allclose(matrix_exp(np.array([[x]])), np.exp(x), rtol=1e-12, atol=0.0)


def test_matrix_exp_overflows_to_inf():
    with np.errstate(over="ignore"):
        assert matrix_exp(np.array([[1e308]]))[0, 0] == np.inf


def test_matrix_exp_of_a_norm_above_float_max():
    # A = [[a, 0], [a, 0]] has A^2 = a A, so exp(A) = I + (e^a - 1)/a A; its
    # 1-norm 2|a| is not a float, and exp(A) = [[0, 0], [-1, 1]] for a = -1e308
    a = np.array([[-1e308, 0.0], [-1e308, 0.0]])
    assert np.allclose(matrix_exp(a), [[0.0, 0.0], [-1.0, 1.0]], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# input contract

@pytest.mark.parametrize("shape", [(3, 3), (2, 2, 3), (1, 2, 2, 2), (4,)])
def test_expm_stack_needs_a_stack_of_square_matrices(shape):
    with pytest.raises(ValueError, match="stack of square matrices"):
        expm_stack(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_stack_refuses_one_non_finite_matrix(bad):
    stack = _mixed_norm_stack()[:5].copy()
    stack[3, 1, 2] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        expm_stack(stack)


def test_expm_stack_of_no_matrices_is_empty():
    out = expm_stack(np.zeros((0, 3, 3)))
    assert out.shape == (0, 3, 3)


def test_matrix_exp_needs_a_square_matrix():
    for shape in ((2, 3), (2, 2, 2)):
        with pytest.raises(ValueError, match="matrix_exp needs a square matrix"):
            matrix_exp(np.zeros(shape))


# ---------------------------------------------------------------------------
# the RK4 oracle

_SIGNALS = {
    "spin": lambda: spin_field(1.0, "rot", 1.0, 64),
    "smooth-2x2": lambda: random_smooth_signal(np.random.default_rng(21), 1, 2, 1.0, 48),
    "smooth-3x3": lambda: random_smooth_signal(np.random.default_rng(22), 1, 3, 0.8, 40),
    "one-step": lambda: random_smooth_signal(np.random.default_rng(23), 1, 3, 0.5, 1),
}


@pytest.mark.parametrize("refinement", [1, 2, 4, 8])
@pytest.mark.parametrize("name", list(_SIGNALS))
def test_rk4_matches_reference_loop(name, refinement):
    u = _SIGNALS[name]()
    got = rk4_reference(u, refinement)
    want = ref_rk4(u, refinement)
    assert got.shape == want.shape == (u.num_steps + 1, u.dim, u.dim)
    assert np.array_equal(got[0], np.eye(u.dim))
    assert _max_rel(got, want) <= 1e-12


@pytest.mark.parametrize("refinement", [1, 4])
@pytest.mark.parametrize("steps", [1, 2, 3, 37, 48, 4096])
@pytest.mark.parametrize("kind", ["spin", "smooth-3x3"])
def test_rk4_scan_matches_running_product_loop(kind, steps, refinement):
    # 37 and 48 are not squares, so the scan pads its last block
    if kind == "spin":
        u = spin_field(0.7, "rot", 1.0, steps)
    else:
        u = random_smooth_signal(np.random.default_rng(steps), 1, 3, 1.0, steps)
    got = rk4_reference(u, refinement)
    want = ref_rk4_running_product(u, refinement)
    assert got.shape == want.shape == (steps + 1, 3, 3)
    assert np.array_equal(got[0], np.eye(3))
    assert _max_rel(got, want) <= 1e-14


def test_rk4_never_calls_the_exponential(monkeypatch):
    u = spin_field(0.7, "rot", 1.0, 32)
    want = rk4_reference(u, 4)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the RK4 oracle took a matrix exponential")

    monkeypatch.setattr(operators, "expm_stack", refuse)
    monkeypatch.setattr(operators, "matrix_exp", refuse)
    assert np.array_equal(rk4_reference(u, 4), want)
    with pytest.raises(ValueError):
        rk4_reference(u, 0)


# ---------------------------------------------------------------------------
# the RK4 oracle for every tree

def _smooth_trees():
    """Every shape of order 2 to 4 with two words over x0..x2: 42 trees."""
    return [decorate(word, shape) for n in range(2, 5)
            for k, shape in enumerate(enumerate_trees(n))
            for word in (tuple((k + j) % 3 for j in range(n)),
                         tuple((k + 2 * j + 1) % 3 for j in range(n)))]


@pytest.mark.parametrize("steps", [4, 16])
def test_tree_oracle_meets_the_closed_form_on_constant_signals(steps):
    # constant channels give E_eta(t) = U_{w1} ... U_{wn} t^n / eta!, w the foliation
    mats = 0.5 * np.random.default_rng(5).standard_normal((2, 2, 2))
    u = constant_signal(mats, 0.8, steps)
    channels = [np.eye(2), *mats]
    ts = [decorate(word, shape) for n in range(5) for shape in enumerate_trees(n)
          for word in itertools.product(range(3), repeat=n)]
    assert len(ts) == 1 + 3 + 18 + 135 + 1134
    got = ref_tree_rk4(ts, u)
    for t in ts:
        word = functools.reduce(np.matmul, (channels[x] for x in foliation(t)), np.eye(2))
        want = u.grid[:, None, None] ** t.order / tree_factorial(skeleton(t)) * word
        assert np.abs(got[t] - want).max() <= 1e-15


def _trapezoid_gap_ratios(gap):
    """The gap of the trapezoid to the tree oracle at N = 64, 128 and 256
    steps, on one seeded smooth signal, and its ratios per halving of h."""
    gaps = np.array([gap(random_smooth_signal(np.random.default_rng(7), 2, 2, 1.0, n))
                     for n in (64, 128, 256)])
    return gaps[:-1] / gaps[1:]


def test_trapezoid_gap_to_the_tree_oracle_falls_fourfold_per_halving():
    ts = _smooth_trees()

    def gap(u):
        ref, ev = ref_tree_rk4(ts, u), TreeEvaluator(u)
        return [np.abs(ev.values(t) - ref[t]).max() for t in ts]

    ratios = _trapezoid_gap_ratios(gap)
    assert ratios.shape == (2, len(ts))
    assert ((3.6 <= ratios) & (ratios <= 4.4)).all(), ratios


def test_finite_series_gap_to_the_tree_oracle_falls_fourfold_per_halving():
    rng = np.random.default_rng(9)
    terms = {DLEAF: np.eye(2), **{t: rng.standard_normal((2, 2)) for t in _smooth_trees()[::3]}}
    series = finite_series(terms)

    def gap(u):
        ref = ref_tree_rk4(list(terms), u)
        want = sum(c @ ref[t] for t, c in terms.items())
        return np.abs(evaluate_fliess(series, u, 4).values - want).max()

    ratios = _trapezoid_gap_ratios(gap)
    assert ((3.6 <= ratios) & (ratios <= 4.4)).all(), ratios
