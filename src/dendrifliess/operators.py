"""Dendriform Fliess operators: truncated evaluation, convergence
certificates, the Dyson series, the product connection, and the
Bernoulli/pre-Lie recursion for the true-exponential representation.

A Fliess operator is F_c[u] = sum_n sum_{|eta| = n} c(eta) E_eta[u], a sum
over decorated planar binary trees taken one order at a time.  A
:class:`GeneratingSeries` therefore gives each order's increment through its
``order_sum``, the only thing :func:`evaluate_fliess` calls: a finite or
Dyson series forms one weighted sum of iterated integrals
(:meth:`TreeEvaluator.weighted_sum`); the full-support series sums all
trees of an order at once by their root split
(:meth:`TreeEvaluator.all_trees_sum`), with no tree enumeration.

Coefficients are exact rationals, or square matrices acting on the left;
matrices live only in series, never in the (rational) dendriform algebra.

The pre-Lie bracket used in the exponent recursion comes in several
orientations; see :func:`resolve_pre_lie_orientation`.  The default,
``"standard"``, is the dendriform pre-Lie product a |> b = a > b - b < a,
the orientation validated against the ODE oracle (and, exactly, against the
shuffle-exponential of the recursion's fixed point).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .algebra import TreePolynomial, pre_lie, prec, shuffle, succ
from .integrals import (Coefficient, EvaluationResult, TreeEvaluator, coefficient_matrix,
                        evaluate_polynomial)
from .signals import MatrixSignal, SignalError, stack_norm1, ubar_totals
from .trees import DLEAF, DecoratedTree, _tour, canonical_key, graft, tree_from_json

__all__ = [
    "GeneratingSeries",
    "Certificate",
    "MagnusSeries",
    "evaluate_fliess",
    "convergence_certificate",
    "dyson_series",
    "full_support_series",
    "finite_series",
    "terms_from_json",
    "product_connection",
    "bernoulli",
    "magnus_generating_series",
    "magnus_exponent",
    "magnus_evaluate",
    "resolve_pre_lie_orientation",
    "matrix_exp",
    "expm_stack",
    "rk4_reference",
    "BRACKET_ORIENTATIONS",
]


@dataclass(frozen=True, eq=False)
class GeneratingSeries:
    """Coefficients of a Fliess operator, summed order by order.

    ``order_sum(ev, n)`` returns the order-``n`` increment
    sum_{|eta| = n} c(eta) E_eta on the grid of the evaluator ``ev``.
    ``terms`` maps the trees of a finite series to their coefficients and is
    ``None`` otherwise.  ``growth_regime`` declares which convergence theorem
    applies: ``geometric`` (|c(eta)| <= K M^n) or ``factorial_left_comb``
    (|c(eta)| <= K M^n n!).
    """

    m: int
    K: float
    M: float
    growth_regime: str
    order_sum: Callable[[TreeEvaluator, int], np.ndarray]
    terms: Mapping[DecoratedTree, Coefficient] | None = None


def evaluate_fliess(c: GeneratingSeries, u: MatrixSignal, order: int) -> EvaluationResult:
    """Sum coefficient-weighted iterated integrals over orders 0..order; the
    result's ``increments`` are the order-by-order sums."""
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    bad = {np.shape(v) for v in (c.terms or {}).values() if isinstance(v, np.ndarray)}
    bad.discard((u.dim, u.dim))
    if bad:
        rows, cols = min(bad)
        raise SignalError(f"a {rows}x{cols} coefficient cannot act on the "
                          f"{u.dim}x{u.dim} values of the signal")
    ev = TreeEvaluator(u)
    increments = [c.order_sum(ev, n) for n in range(order + 1)]
    values = sum(increments[1:], increments[0].copy())
    return EvaluationResult(u.grid, values, increments)


@dataclass(frozen=True)
class Certificate:
    K: float
    M: float
    m: int
    R: float
    radius: float
    tail: float | None
    truncation_order: int
    diagnostic: str | None = None

    def to_dict(self) -> dict:
        return {"K": self.K, "M": self.M, "m": self.m, "R": self.R,
                "radius": self.radius, "tail": self.tail,
                "N": self.truncation_order, "diagnostic": self.diagnostic}


def convergence_certificate(c: GeneratingSeries, u: MatrixSignal,
                            order: int) -> Certificate:
    """Geometric tail bound for series in the geometric growth regime."""
    if c.growth_regime != "geometric":
        raise ValueError(
            f"certificate requires the geometric regime, got {c.growth_regime!r}")
    radius = 1.0 / (c.M * (c.m + 1))
    R = float(ubar_totals(u).max())  # the largest Ubar_i(T), Ubar_0(T) = T
    ratio = c.M * R * (c.m + 1)
    if ratio < 1.0:
        tail = c.K * ratio ** (order + 1) / (1.0 - ratio)
        diagnostic = None
    else:
        tail = None
        diagnostic = (f"R = {R:.6g} is not below the radius {radius:.6g}; "
                      "the geometric majorant diverges")
    return Certificate(c.K, c.M, c.m, R, radius, tail, order, diagnostic)


#: highest Dyson order; an evaluation keeps the value of every comb up to the
#: order, one (grid, n, n) stack per order, so the order bounds that memory
DYSON_ORDER_CAP = 256


def dyson_series(order: int) -> GeneratingSeries:
    """The finite series of the x1 left combs of orders 0..``order``, coefficient 1."""
    if not 0 <= order <= DYSON_ORDER_CAP:
        raise ValueError(f"Dyson order {order} outside 0..{DYSON_ORDER_CAP}")
    combs = [DLEAF]
    for _ in range(order):  # comb n is x1 over comb n-1, the tree left_comb((1,) * n) builds
        combs.append(DecoratedTree(DLEAF, 1, combs[-1]))
    return replace(finite_series(dict.fromkeys(combs, 1)), growth_regime="factorial_left_comb")


def full_support_series(m: int, K: float = 1.0, M: float = 1.0) -> GeneratingSeries:
    """All trees, all words over x0..xm, coefficient K * M^order (geometric
    regime).  Each order is summed through the root split of its trees
    (:meth:`TreeEvaluator.all_trees_sum`), so no tree is enumerated and every
    order evaluates.  K and M must be finite and positive."""
    for name, v in (("K", K), ("M", M)):
        if not 0 < v <= sys.float_info.max:  # refuses NaN and infinities too
            raise ValueError(f"{name} must be finite and positive, got {v!r}")
    (a, b), (c, d) = Fraction(K).as_integer_ratio(), Fraction(M).as_integer_ratio()
    return GeneratingSeries(  # K M^n as a quotient of ints, which rounds correctly
        m=m, K=K, M=M, growth_regime="geometric",
        order_sum=lambda ev, n: a * c ** n / (b * d ** n) * ev.all_trees_sum(m, n))


def _read_only(c: Coefficient) -> Coefficient:
    if isinstance(c, np.ndarray):
        c = c.copy()
        c.setflags(write=False)
    return c


def finite_series(terms: Mapping[DecoratedTree, Coefficient]) -> GeneratingSeries:
    """Explicit coefficients: a :class:`TreePolynomial`, or a mapping from trees to
    rationals or to square matrices of one shape.  m is the largest letter and K the
    largest norm of a nonzero coefficient, each at least 1; M = 1.  Matrices are kept
    as read-only copies, so K stays sound, and each order's terms in canonical order,
    so their sum does not depend on the order of ``terms``."""
    by_order: dict[int, list[tuple[DecoratedTree, Coefficient]]] = {}
    vertices: set[DecoratedTree] = set()  # a subtree that terms share is walked once
    for tree, c in ((t, _read_only(c)) for t, c in terms.items() if np.any(c)):
        by_order.setdefault(tree.order, []).append((tree, c))
        vertices.update(v for v, stage in _tour(tree, vertices) if stage == 1)
    for group in by_order.values():  # canonical_key starts with the order
        if len(group) > 1:
            group.sort(key=lambda kv: canonical_key(kv[0]))
    items = [kv for n in sorted(by_order) for kv in by_order[n]]
    return GeneratingSeries(
        m=max([1, *(v.letter for v in vertices)]),
        K=max([1.0, *(float(stack_norm1(coefficient_matrix(t, c))) for t, c in items)]),
        M=1.0, growth_regime="geometric", terms=dict(items),
        order_sum=lambda ev, n: ev.weighted_sum(by_order.get(n, ())))


def _matrix_from_json(raw: list) -> np.ndarray:
    """A matrix coeff: rows of JSON numbers (no bool or string entry)."""
    for row in raw:
        for v in row if isinstance(row, list) else (row,):
            if type(v) not in (int, float):
                raise TypeError(f"a matrix entry is a number, got {v!r}")
    return np.array(raw, dtype=float)


def terms_from_json(data: list[dict]) -> dict[DecoratedTree, Coefficient]:
    """Coefficients of ``{coeff, tree}`` records (as :meth:`TreePolynomial.to_json`
    writes them): a list ``coeff`` is a square matrix, any other a rational.
    Records on one tree add up and zeros are dropped; a malformed record, or
    nonzero coefficients of different shapes, raise ``ValueError``."""
    if not isinstance(data, list):
        raise ValueError("a series is a JSON list of {coeff, tree} records")
    terms: dict[DecoratedTree, Coefficient] = {}
    for k, rec in enumerate(data):
        try:
            raw = rec["coeff"]
            if isinstance(raw, bool):
                raise TypeError(f"a coeff is a number, a string or a matrix, got {raw!r}")
            coeff = _matrix_from_json(raw) if isinstance(raw, list) else Fraction(raw)
            tree = tree_from_json(rec["tree"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"bad series record {k}: {exc!r}") from exc
        if isinstance(raw, list) and (coeff.ndim != 2 or coeff.shape[0] != coeff.shape[1]):
            raise ValueError(f"bad series record {k}: a matrix coeff must be square")
        if not np.any(coeff):
            continue
        if terms and np.shape(coeff) != np.shape(next(iter(terms.values()))):
            raise ValueError("mixed coefficient shapes in one series")
        terms[tree] = terms[tree] + coeff if tree in terms else coeff
    return {tree: c for tree, c in terms.items() if np.any(c)}


def product_connection(c: GeneratingSeries, d: GeneratingSeries) -> GeneratingSeries:
    """Finite series whose operator equals the product of the two operators.

    Both inputs must be finite with rational coefficients; the result's
    coefficients come from shuffling the supports.
    """
    if c.terms is None or d.terms is None:
        raise ValueError("product connection requires finite-support series")
    if any(isinstance(coeff, np.ndarray) for s in (c, d) for coeff in s.terms.values()):
        raise ValueError("product connection requires scalar coefficients")
    product = shuffle(TreePolynomial(c.terms), TreePolynomial(d.terms))
    return finite_series(product)


# ---------------------------------------------------------------------------
# Bernoulli numbers and the exponent recursion

BERNOULLI_CAP = 20


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number (B1 = -1/2), exact."""
    if n < 0 or n > BERNOULLI_CAP:
        raise ValueError(f"Bernoulli index must be in 0..{BERNOULLI_CAP}")
    return _BERNOULLI[n]


def _bernoulli_table(n: int) -> list[Fraction]:
    table = [Fraction(1)]
    for k in range(1, n + 1):
        table.append(-sum(math.comb(k + 1, j) * table[j] for j in range(k)) / (k + 1))
    return table


_BERNOULLI = _bernoulli_table(BERNOULLI_CAP)


#: bracket orientations selectable in the exponent recursion.  "standard"
#: is the dendriform pre-Lie product a |> b = a>b - b<a; the two
#: same-operand differences are kept for the empirical resolution.
BRACKET_ORIENTATIONS = ("standard", "literal", "reversed")


def _bracket(orientation: str):
    if orientation == "standard":
        return lambda a, b: succ(a, b) - prec(b, a)
    if orientation == "literal":
        return pre_lie
    if orientation == "reversed":
        return lambda a, b: succ(a, b) - prec(a, b)
    raise ValueError(f"unknown pre-Lie orientation {orientation!r}")


@dataclass(frozen=True, eq=False)
class MagnusSeries:
    """Generating series of the true exponent, exact rationals."""

    truncation_order: int
    iterations: int
    poly: TreePolynomial
    orientation: str


MAGNUS_ORDER_CAP = 8
#: B_j / j!, the weight of the j-fold bracket in the exponent recursion
_MAGNUS_WEIGHTS = [b / math.factorial(j) for j, b in enumerate(_BERNOULLI[:MAGNUS_ORDER_CAP])]


def magnus_generating_series(order: int,
                             orientation: str = "standard") -> MagnusSeries:
    """Exponent d = sum_j (B_j / j!) L^(j), L^(j) = bracket(d, L^(j-1)), L^(0) = x1,
    truncated to ``order``.

    One graded pass: the degree-n components are d_1 = x1 and
    d_n = sum_{j=1}^{n-1} (B_j / j!) L_n^(j), with
    L_n^(j) = sum_m bracket(d_m, L_{n-m}^(j-1)).  Every bracket is
    homogeneous and d_n needs only lower degrees, so each degree is built
    once, in increasing order, and the result is the unique truncated fixed
    point.  ``iterations`` counts these degree passes; it equals ``order``.
    """
    if order < 1 or order > MAGNUS_ORDER_CAP:
        raise ValueError(f"truncation order must be in 1..{MAGNUS_ORDER_CAP}")
    bracket = _bracket(orientation)
    x1 = TreePolynomial.single(graft(DLEAF, 1, DLEAF))
    d = {1: x1}
    # levels[j][n] is L_n^(j), the degree-n component of the j-fold bracket
    levels: list[dict[int, TreePolynomial]] = [{1: x1}] + [{} for _ in range(1, order)]
    for n in range(2, order + 1):
        d[n] = TreePolynomial()
        for j in range(1, n):
            prev = levels[j - 1]
            levels[j][n] = sum((bracket(d[m], prev[n - m])
                                for m in range(1, n - j + 1) if n - m in prev),
                               TreePolynomial())
            d[n] = d[n] + levels[j][n].scale(_MAGNUS_WEIGHTS[j])
    return MagnusSeries(order, order, sum(d.values(), TreePolynomial()), orientation)


def magnus_exponent(series: MagnusSeries, u: MatrixSignal) -> EvaluationResult:
    """The exponent evaluated on the grid of a single-channel signal."""
    if u.m != 1:
        raise SignalError("the exponent recursion is single-channel")
    return evaluate_polynomial(series.poly, u)


def magnus_evaluate(series: MagnusSeries,
                    u: MatrixSignal) -> tuple[EvaluationResult, np.ndarray]:
    """Evaluate the exponent on the grid and exponentiate every node in one
    batched pass."""
    omega = magnus_exponent(series, u)
    return omega, expm_stack(omega.values)


def resolve_pre_lie_orientation(u: MatrixSignal) -> str:
    """Pick the bracket orientation that actually converges to the ODE flow.

    For each orientation, exponentiate the exponent truncated at order 3 at
    the horizon and compare it against the Runge-Kutta reference at
    refinement 4; the orientation with the smallest error wins.
    """
    reference = rk4_reference(u, 4)[-1]

    def error(orientation: str) -> float:
        omega = magnus_exponent(magnus_generating_series(3, orientation), u)
        return float(stack_norm1(matrix_exp(omega.at_horizon) - reference))

    return min(BRACKET_ORIENTATIONS, key=error)


# ---------------------------------------------------------------------------
# matrix exponential and the ODE oracle

def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Exponential of one square matrix: a stack of one for :func:`expm_stack`."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    return expm_stack(a[None])[0]


def expm_stack(values: np.ndarray) -> np.ndarray:
    """Exponential of every matrix of a (k, d, d) stack, by one
    scaling-and-squaring pass over the whole stack (Moler & Van Loan, SIAM
    Review 45, 2003).

    Matrix i is scaled by 2^-s_i, with s_i the least count that brings its
    1-norm to at most 1/2.  One truncated Taylor loop runs on the scaled
    stack until no entry of a term reaches 1e-18, and squaring pass p squares
    the matrices with s_i > p.  The count is read off the binary exponent of
    the norm and the scaling is ``ldexp``, so neither overflows, even for
    entries near the float maximum.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expm_stack needs a (k, d, d) stack of square matrices")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    # 1-norms of |a| scaled by 2^-pre <= 1/d, so no column sum overflows:
    # norm = mant * 2^(exp2 + pre), and the least s with norm * 2^-s <= 1/2 is
    # exp2 + pre, plus one unless mant is exactly 1/2 (and 0 for a zero norm)
    pre = (a.shape[1] - 1).bit_length()
    mant, exp2 = np.frexp(np.ldexp(np.abs(a), -pre).sum(axis=1).max(axis=1, initial=0.0))
    squarings = np.maximum(exp2 + pre + (mant > 0.5), 0) * (mant > 0)
    b = np.ldexp(a, -squarings[:, None, None])
    out = np.broadcast_to(np.eye(a.shape[1]), a.shape).copy()
    term = out
    for k in range(1, 40):
        term = term @ b / k
        out += term
        if np.abs(term).max(initial=0.0) < 1e-18:
            break
    for p in range(squarings.max(initial=0)):
        sq = squarings > p
        out[sq] = out[sq] @ out[sq]
    return out


def rk4_reference(u: MatrixSignal, refinement: int = 1) -> np.ndarray:
    """Classical Runge-Kutta flow of Zdot = U(t) Z, Z(0) = I, on the coarse grid.

    The system matrix is channel 1, linearly interpolated onto a grid
    ``refinement`` times denser from each coarse step's two end values.  The
    ODE is linear, so fine step j is Z <- P_j Z with
    P_j = I + h/6 (K1 + 2 K2 + 2 K3 + K4), where K1 = A1, K2 = A2 (I + h/2 K1),
    K3 = A2 (I + h/2 K2), K4 = A4 (I + h K3) and A1, A2, A4 are U at the
    step's start, middle and end.  All P_j are built in one stacked pass, each
    block of ``refinement`` of them is multiplied into one coarse propagator,
    and the flow is the running product of those, taken as a two-level scan
    (Blelloch, "Prefix sums and their applications", 1990): products within
    blocks of floor(sqrt(N)) steps, stacked over the blocks, then over the
    block totals, then one stacked combine.  Each propagator is held as its
    difference from I.  No matrix exponential is taken, so the oracle stays
    independent of :func:`expm_stack`.
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    big_u = u.channel(1)
    n, d = u.num_steps, u.dim
    hf = u.horizon / (n * refinement)
    # (n, 2 * refinement + 1, d, d): the weights (1 - w, w) on each step's ends
    w = np.arange(2 * refinement + 1) / (2 * refinement)
    ends = np.stack([big_u[:-1], big_u[1:]], axis=1).reshape(n, 2, d * d)
    u_half = (np.stack([1.0 - w, w], axis=1) @ ends).reshape(n, -1, d, d)

    eye = np.eye(d)
    a1, a2, a4 = u_half[:, :-1:2], u_half[:, 1::2], u_half[:, 2::2]
    # each propagator is kept as its difference from I, so the small steps are
    # not rounded against 1: (I + D)(I + C) = I + (C + D + D C).  The fine
    # steps' differences h/6 (K1 + 2 K2 + 2 K3 + K4) add up as each K is formed
    k = a2 @ (eye + 0.5 * hf * a1)
    steps = a1 + 2.0 * k
    k = a2 @ (eye + 0.5 * hf * k)
    steps += 2.0 * k
    k = a4 @ (eye + hf * k)
    steps += k
    steps *= hf / 6.0
    coarse = steps[:, 0]
    for r in range(1, refinement):
        coarse = coarse + steps[:, r] + steps[:, r] @ coarse

    size = math.isqrt(n)
    blocks = -(-n // size)
    scan = np.zeros((blocks * size, d, d))  # the last block padded with identities
    scan[:n] = coarse
    scan = scan.reshape(blocks, size, d, d)
    # scan[b, i] becomes the product of steps 0..i of block b, less I
    for i in range(1, size):
        scan[:, i] += scan[:, i - 1] + scan[:, i] @ scan[:, i - 1]
    # before[b] is the product of the blocks ahead of block b, less I
    before = np.zeros((blocks, d, d))
    for b in range(1, blocks):
        total = scan[b - 1, -1]
        before[b] = before[b - 1] + total + total @ before[b - 1]
    flow = np.empty((n + 1, d, d))
    flow[0] = eye
    flow[1:] = (eye + before[:, None] + scan + scan @ before[:, None]).reshape(-1, d, d)[:n]
    return flow
