"""Numerical evaluation of non-commutative iterated integrals over trees.

The defining recursion is followed literally on the shared uniform grid: for
a tree ``l v_x r`` the integrand at each node is ``E_l . u_x . E_r`` and the
running integral is a composite trapezoid (second-order scheme).  Subtree
values are memoized per evaluator, so a polynomial costs one vectorized pass
per distinct subtree.  Every coefficient-weighted sum of tree values (a
polynomial, or one order of a finite or Dyson series) is formed by
:meth:`TreeEvaluator.weighted_sum`; the sum over all trees of one order is
:meth:`TreeEvaluator.all_trees_sum`, which splits each tree at its root and
evaluates no tree by itself.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .algebra import TreePolynomial, char_trees, shuffle
from .signals import (
    MatrixSignal,
    SignalError,
    stack_norm1,
    trapezoid_prefix,
    ubar,
    ubar_totals,
)
from .trees import (
    DLEAF,
    DecoratedTree,
    Word,
    _tour,
    foliation,
    left_comb,
    skeleton,
    tree_factorial,
)

__all__ = [
    "EvaluationResult",
    "coefficient_matrix",
    "TreeEvaluator",
    "evaluate_tree",
    "evaluate_polynomial",
    "check_product_identity",
    "bound_tree_factorial",
    "bound_left_comb",
    "check_ubar_domination",
    "check_factorial_identity",
]

#: a weighted-sum coefficient: a rational, or a square matrix acting on the left
Coefficient = Fraction | np.ndarray


@dataclass(frozen=True, eq=False)
class EvaluationResult:
    """Values on the grid of an iterated integral, a polynomial of them or a
    truncated operator series; ``increments`` holds a series' per-order
    terms (orders 0..N, summing to ``values``) and is empty otherwise."""

    grid: np.ndarray
    values: np.ndarray  # (N+1, n, n)
    increments: Sequence[np.ndarray] = ()

    @property
    def at_horizon(self) -> np.ndarray:
        return self.values[-1]


def coefficient_matrix(tree: DecoratedTree, c: Coefficient) -> np.ndarray:
    """``c`` as a float matrix, a scalar as its 1x1 matrix; a coefficient that is
    not a finite float raises ``ValueError``, naming it and its tree."""
    with contextlib.suppress(OverflowError):
        a = np.atleast_2d(np.asarray(c, dtype=float))
        if np.isfinite(a).all():
            return a
    raise ValueError(f"coefficient {np.asarray(c).tolist()} of {tree!r} "
                     "is not a finite float")


def _check_letter(letter: int, u: MatrixSignal, what: str) -> None:
    if not 0 <= letter <= u.m:
        raise SignalError(f"{what} x{letter} outside signal alphabet x0..x{u.m}")


class TreeEvaluator:
    """Evaluates trees against one signal, sharing a subtree cache."""

    def __init__(self, u: MatrixSignal):
        self.u = u
        self._eye = np.broadcast_to(
            np.eye(u.dim), (u.num_steps + 1, u.dim, u.dim))
        self._cache: dict[DecoratedTree, np.ndarray] = {DLEAF: self._eye}
        self._sums: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}

    def values(self, t: DecoratedTree) -> np.ndarray:
        cache, u = self._cache, self.u
        out: list[np.ndarray] = []  # values of the finished subtrees, innermost last
        for v, stage in _tour(t, cache):
            if stage == 0:
                known = cache.get(v)
                if known is not None:
                    out.append(known)
                else:
                    _check_letter(v.letter, u, "tree letter")
            elif stage == 2:
                right = out.pop()
                integrand = u.channel(v.letter)
                if not v.left.is_leaf:
                    integrand = out[-1] @ integrand
                if not v.right.is_leaf:
                    integrand = integrand @ right
                out[-1] = cache[v] = trapezoid_prefix(integrand, u.h)
        return out[0]

    def weighted_sum(self, pairs: Iterable[tuple[DecoratedTree, Coefficient]]) -> np.ndarray:
        """Sum of ``coeff * E_tree`` over the pairs, read by :func:`coefficient_matrix`:
        a matrix acts by left multiplication, a scalar as its float; no pairs give zeros."""
        acc: np.ndarray | None = None
        for tree, coeff in pairs:
            e = self.values(tree)
            a = coefficient_matrix(tree, coeff)
            term = a @ e if isinstance(coeff, np.ndarray) else a[0, 0] * e
            acc = term if acc is None else acc + term
        if acc is None:
            return np.zeros((self.u.num_steps + 1, self.u.dim, self.u.dim))
        return acc

    def all_trees_sum(self, m: int, n: int) -> np.ndarray:
        """S_n, the sum of E_eta over all trees of order ``n`` with letters x0..xm, by
        the root split: S_0 = I, S_k = trapezoid(P_0 S_{k-1} + ... + P_{k-2} S_1 + P_{k-1}),
        P_j = S_j U, P_0 = U = u_0 + ... + u_m.  The trapezoid is linear, so this is the
        tree-by-tree sum; S_j and P_j are kept per ``m`` (n(n-1)/2 + n-1 products).
        A negative order has no trees, so its sum is zero."""
        if m not in self._sums:
            _check_letter(m, self.u, "series letter")
            self._sums[m] = [self._eye], [sum(map(self.u.channel, range(1, m + 1)), self._eye)]
        sums, prods = self._sums[m]
        while len(sums) <= n:
            if len(prods) < len(sums):  # P_{k-1}, first read by order k
                prods.append(sums[-1] @ prods[0])
            integrand = sum(p @ s for p, s in zip(prods, sums[:0:-1])) + prods[-1]
            sums.append(trapezoid_prefix(integrand, self.u.h))
        return sums[n] if n >= 0 else np.zeros(self._eye.shape)


def evaluate_tree(t: DecoratedTree, u: MatrixSignal) -> EvaluationResult:
    return EvaluationResult(u.grid, TreeEvaluator(u).values(t))


def evaluate_polynomial(p: TreePolynomial, u: MatrixSignal) -> EvaluationResult:
    return EvaluationResult(u.grid, TreeEvaluator(u).weighted_sum(p.items()))


def check_product_identity(t1: DecoratedTree, t2: DecoratedTree,
                           u: MatrixSignal) -> float:
    """Max-over-grid residual of E_t1 . E_t2 = E_{t1 shuffle t2}."""
    ev = TreeEvaluator(u)
    lhs = ev.values(t1) @ ev.values(t2)
    rhs = ev.weighted_sum(shuffle(
        TreePolynomial.single(t1), TreePolynomial.single(t2)).items())
    return float(stack_norm1(lhs - rhs).max())


def bound_tree_factorial(t: DecoratedTree, u: MatrixSignal) -> float:
    """Single-letter bound: Ubar_i(T)^order / tree-factorial."""
    word = foliation(t)
    if len(set(word)) > 1:
        raise ValueError("the tree-factorial bound needs a single-letter decoration")
    if not word:
        return 1.0
    _check_letter(word[0], u, "tree letter")
    return ubar_totals(u).tolist()[word[0]] ** t.order / tree_factorial(skeleton(t))


def bound_left_comb(word: Word, u: MatrixSignal) -> float:
    """Left-comb bound: product over letters of Ubar_j(T)^{n_j} / n_j!."""
    for j in set(word):
        _check_letter(j, u, "letter")
    totals = ubar_totals(u).tolist()
    return math.prod(totals[j] ** word.count(j) / math.factorial(word.count(j))
                     for j in set(word))


def check_ubar_domination(t: DecoratedTree, u: MatrixSignal) -> tuple[float, float]:
    """(max-over-grid norm of E[u], matching scalar evaluation with ubar)."""
    lhs = stack_norm1(TreeEvaluator(u).values(t))
    bar = ubar(u)
    rhs = TreeEvaluator(bar).values(t)[:, 0, 0]
    k = int(np.argmax(lhs))
    return float(lhs[k]), float(rhs[k])


def check_factorial_identity(n: int, u: MatrixSignal) -> float:
    """Residual at T of: E over the n-fold shuffle power (with ubar input)
    minus n! times E over the left comb (with ubar input)."""
    if n > 7:
        raise ValueError("factorial identity capped at n = 7")
    bar = ubar(u)
    letter = 1
    lhs = evaluate_polynomial(char_trees(n, letter), bar).at_horizon[0, 0]
    rhs = math.factorial(n) * evaluate_tree(left_comb((letter,) * n), bar).at_horizon[0, 0]
    return abs(float(lhs - rhs))
