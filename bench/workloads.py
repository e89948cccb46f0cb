"""The four benchmark workloads: seeded inputs, one op, and its oracle.

Every workload exposes the same four callables:

``make_inputs(seed)``
    the sequence of op inputs, built from the seed alone (cycled by the loop);
``warmup_input(inputs)``
    the input of the untimed warm-up op, chosen so that its cost does not
    depend on the seed;
``op(inp)``
    one timed call into the package; returns what the call returned;
``verify(inp, out)``
    an untimed check against an oracle independent of the code path under
    test; returns ``(ok, error_ratio, message)`` where ``error_ratio`` is the
    largest observed residual divided by its tolerance (0 on exact checks);
``corruptions(inp, out)``
    ``(label, bad_out)`` pairs, each a good output with one defect injected,
    which ``verify`` must reject.

This module imports the package lazily (inside the functions), so the
worker can time the import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# independent dendriform oracle on nested tuples: None is the leaf and
# (left, letter, right) an interior vertex.  It follows the Loday-Ronco
# recursion directly and shares no code with the package.


@lru_cache(maxsize=1 << 16)
def _sh(t1, t2) -> dict:
    if t1 is None:
        return {t2: 1}
    if t2 is None:
        return {t1: 1}
    out: dict = {}
    for s, k in _sh(t1[2], t2).items():
        key = (t1[0], t1[1], s)
        out[key] = out.get(key, 0) + k
    for s, k in _sh(t1, t2[0]).items():
        key = (s, t2[1], t2[2])
        out[key] = out.get(key, 0) + k
    return out


def _bilinear(p: dict, q: dict, tree_product) -> dict:
    out: dict = {}
    for t1, c1 in p.items():
        for t2, c2 in q.items():
            for s, k in tree_product(t1, t2).items():
                out[s] = out.get(s, 0) + k * c1 * c2
    return {t: c for t, c in out.items() if c != 0}


def _prec(p: dict, q: dict) -> dict:
    return _bilinear(p, q, lambda a, b: {(a[0], a[1], s): k for s, k in _sh(a[2], b).items()})


def _succ(p: dict, q: dict) -> dict:
    return _bilinear(p, q, lambda a, b: {(s, b[1], b[2]): k for s, k in _sh(a, b[0]).items()})


def _lin(*pairs) -> dict:
    out: dict = {}
    for scale, p in pairs:
        for t, c in p.items():
            out[t] = out.get(t, 0) + scale * c
    return {t: c for t, c in out.items() if c != 0}


def _exact_order3_exponent() -> dict:
    """Criterion 7's order-3 exponent x - 1/2 b1 + 1/4 [b1, x] + 1/12 [x, b1]."""
    def bracket(a, b):
        return _lin((1, _succ(a, b)), (-1, _prec(b, a)))

    x = {(None, 1, None): Fraction(1)}
    b1 = bracket(x, x)
    return _lin((1, x), (Fraction(-1, 2), b1), (Fraction(1, 4), bracket(b1, x)),
                (Fraction(1, 12), bracket(x, b1)))


def _plain_tree(t):
    return None if t.is_leaf else (_plain_tree(t.left), t.letter, _plain_tree(t.right))


def plain(poly) -> dict:
    """A package polynomial as ``{nested tuple: coefficient}``."""
    return {_plain_tree(t): c for t, c in poly.items()}


def _flip_one(poly):
    """``poly`` with the sign of one coefficient flipped."""
    from dendrifliess.algebra import TreePolynomial

    tree, coeff = next(poly.items())
    return poly + TreePolynomial.single(tree, -2 * coeff)


# ---------------------------------------------------------------------------
# exponent: magnus_generating_series(4, orientation)

EXPONENT_ORDER = 4

#: sha256 of the canonical JSON of ``poly.to_json()`` at order 4, pinned
#: from the commit that added this benchmark.
EXPONENT_DIGESTS = {
    "standard": "63558cd30bd119759e48022b7e83dcc5f14640f3b07a474af82d2f9814dec687",
    "literal": "6a54d10b6ea60a73d5189a210046cf87da0fcf72daa56f7e9faf566d0a2a44f6",
    "reversed": "5cc8c4ac31cdc5b7c199311347ac9057585e06e5ffa3ed12cf20b2ca7bcd75b5",
}


def poly_digest(poly) -> str:
    text = json.dumps(poly.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Exponent:
    name = "exponent"

    def __init__(self):
        self._order3 = _exact_order3_exponent()

    def make_inputs(self, seed: int) -> list[str]:
        from dendrifliess.operators import BRACKET_ORIENTATIONS

        orientations = list(BRACKET_ORIENTATIONS)
        random.Random(seed).shuffle(orientations)
        return orientations

    def warmup_input(self, inputs: list[str]) -> str:
        return "standard"

    def op(self, orientation: str):
        from dendrifliess.operators import magnus_generating_series

        return magnus_generating_series(EXPONENT_ORDER, orientation)

    def verify(self, orientation: str, out):
        if out.orientation != orientation or out.truncation_order != EXPONENT_ORDER:
            return False, 0.0, "wrong orientation or order in the result"
        if poly_digest(out.poly) != EXPONENT_DIGESTS[orientation]:
            return False, 0.0, f"{orientation}: digest differs from the pinned one"
        if orientation == "standard" and plain(out.poly.truncate(3)) != self._order3:
            return False, 0.0, "order-3 part differs from the exact exponent"
        return True, 0.0, ""

    def corruptions(self, orientation: str, out):
        yield "wrong digest", replace(out, poly=_flip_one(out.poly))


# ---------------------------------------------------------------------------
# products: the five dendriform identities of criterion 2 on a pool of
# seeded triples; one op is one pass over the pool

PRODUCT_ORDERS = [(a, b, c) for a in range(1, 5) for b in range(1, 5) for c in range(1, 5)]
#: 8 x 64 triples: each order combination 8 times and each tree shape of an
#: order about equally often, so the cost of a pass hardly depends on the seed
PRODUCT_POOL = 8 * len(PRODUCT_ORDERS)


def _triples(rng: random.Random, count: int) -> list:
    """``count`` triples of single decorated trees: orders 1-4 cycling
    through every combination, shapes dealt evenly per order, letters x0-x2,
    coefficients 1-3."""
    from dendrifliess.algebra import TreePolynomial
    from dendrifliess.trees import decorate, enumerate_trees

    orders = [PRODUCT_ORDERS[k % len(PRODUCT_ORDERS)] for k in range(count)]
    rng.shuffle(orders)
    slots = [n for triple in orders for n in triple]
    shapes = {}
    for n in set(slots):
        deck = list(enumerate_trees(n)) * (slots.count(n) // len(enumerate_trees(n)) + 1)
        rng.shuffle(deck)
        shapes[n] = deck

    def single(n: int):
        word = tuple(rng.randint(0, 2) for _ in range(n))
        return TreePolynomial.single(decorate(word, shapes[n].pop()),
                                     Fraction(rng.randint(1, 3)))

    return [tuple(single(n) for n in triple) for triple in orders]


def _identities(a, b, c) -> dict:
    from dendrifliess.algebra import prec, shuffle, succ

    return {
        "(a<b)<c = a<(b sh c)": (prec(prec(a, b), c), prec(a, shuffle(b, c))),
        "(a>b)<c = a>(b<c)": (prec(succ(a, b), c), succ(a, prec(b, c))),
        "a>(b>c) = (a sh b)>c": (succ(a, succ(b, c)), succ(shuffle(a, b), c)),
        "a<b + a>b = a sh b": (prec(a, b) + succ(a, b), shuffle(a, b)),
        "sh associative": (shuffle(shuffle(a, b), c), shuffle(a, shuffle(b, c))),
    }


class Products:
    """One op checks the identities on every triple of the pool.

    Single-triple costs span two orders of magnitude, so on a shared machine
    the median and tail of single-triple ops moved by more than their bounds
    from seed to seed.  The first pass fills the _shuffle_trees cache (about
    15k entries); later passes find it full, so the resident set does not
    depend on how many ops a run completes.
    """

    name = "products"

    def make_inputs(self, seed: int) -> list[list]:
        return [_triples(random.Random(seed), PRODUCT_POOL)]

    def warmup_input(self, inputs: list[list]) -> list:
        return _triples(random.Random(0), len(PRODUCT_ORDERS))

    def op(self, pool: list) -> list:
        return [_identities(*triple) for triple in pool]

    def verify(self, pool: list, out: list):
        if len(out) != len(pool):
            return False, 0.0, f"{len(out)} results for {len(pool)} triples"
        for k, (triple, identities) in enumerate(zip(pool, out)):
            for name, (lhs, rhs) in identities.items():
                if plain(lhs) != plain(rhs):
                    return False, 0.0, f"triple {k}: identity {name} fails"
            a, b, _ = (plain(x) for x in triple)
            if plain(identities["a<b + a>b = a sh b"][1]) != _bilinear(a, b, _sh):
                return False, 0.0, f"triple {k}: a sh b differs from the independent shuffle"
        return True, 0.0, ""

    def corruptions(self, pool: list, out: list):
        bad = dict(out[-1])
        lhs, rhs = bad["sh associative"]
        bad["sh associative"] = (_flip_one(lhs), rhs)
        yield "flipped coefficient", out[:-1] + [bad]


# ---------------------------------------------------------------------------
# series: evaluate_fliess(full_support_series(m), u, n) on a short grid

SERIES_CASES = ((1, 6), (2, 5))  # (m, n): about 10.1k and 11.5k trees
SERIES_STEPS = 64
SERIES_HORIZON = 0.25
SERIES_DIM = 2
SERIES_POOL = 8


def l1_norm(samples: np.ndarray, horizon: float) -> float:
    """max over channels of the trapezoid integral of the max column sum."""
    per = np.abs(samples).sum(axis=-2).max(axis=-1)  # (m, N+1)
    h = horizon / (samples.shape[1] - 1)
    return float((h * (per.sum(axis=1) - 0.5 * (per[:, 0] + per[:, -1]))).max())


def smooth_samples(rng: np.random.Generator, m: int, dim: int, horizon: float,
                   steps: int, modes: int = 2) -> np.ndarray:
    t = np.linspace(0.0, horizon, steps + 1)
    out = np.zeros((m, steps + 1, dim, dim))
    for k in range(modes + 1):
        w = 2.0 * math.pi * k * t / horizon
        a = rng.standard_normal((m, dim, dim))
        b = rng.standard_normal((m, dim, dim))
        out += np.cos(w)[None, :, None, None] * a[:, None] \
            + np.sin(w)[None, :, None, None] * b[:, None]
    return out


class Series:
    name = "series"

    def make_inputs(self, seed: int) -> list:
        """Smooth signals scaled to an L1 norm in [0.15, 0.2], below T = 1/4,
        so R = 1/4 and the certificate ratio M R (m+1) is 1/2 or 3/4."""
        from dendrifliess.signals import MatrixSignal

        rng = np.random.default_rng(seed)
        inputs = []
        for k in range(SERIES_POOL):
            m, n = SERIES_CASES[k % len(SERIES_CASES)]
            samples = smooth_samples(rng, m, SERIES_DIM, SERIES_HORIZON, SERIES_STEPS)
            samples *= rng.uniform(0.15, 0.2) / l1_norm(samples, SERIES_HORIZON)
            inputs.append((m, n, MatrixSignal(samples, SERIES_HORIZON)))
        return inputs

    def warmup_input(self, inputs: list):
        return inputs[-1]  # the cost depends on (m, n) only, not on the samples

    def op(self, inp):
        from dendrifliess.operators import evaluate_fliess, full_support_series

        m, n, u = inp
        return evaluate_fliess(full_support_series(m), u, n)

    def verify(self, inp, out):
        from dendrifliess.operators import convergence_certificate, full_support_series

        m, n, u = inp
        K = M = 1.0
        R = max(l1_norm(np.asarray(u.samples), SERIES_HORIZON), SERIES_HORIZON)
        ratio = M * R * (m + 1)
        cert = convergence_certificate(full_support_series(m), u, n)
        if cert.radius != 1.0 / (M * (m + 1)) or cert.R != R or not math.isclose(
                cert.tail, K * ratio ** (n + 1) / (1.0 - ratio), rel_tol=1e-12):
            return False, 0.0, f"certificate {cert} disagrees with R={R}"
        incs = out.increments
        if len(incs) != n + 1 or not np.array_equal(incs[0], np.broadcast_to(
                np.eye(SERIES_DIM), incs[0].shape)):
            return False, 0.0, "order-0 increment is not the identity"
        if not np.allclose(sum(incs[1:], incs[0]), out.values, rtol=1e-12, atol=1e-15):
            return False, 0.0, "values are not the sum of the increments"
        worst = 0.0
        for order, inc in enumerate(incs[1:], start=1):
            bound = K * ratio ** order + 1e-12
            observed = float(np.abs(inc).sum(axis=-2).max())
            if not observed <= bound:
                return False, observed / bound, \
                    f"order {order}: increment {observed:.3e} above {bound:.3e}"
            worst = max(worst, observed / bound)
        return True, worst, ""

    def corruptions(self, inp, out):
        m, n, u = inp
        ratio = max(l1_norm(np.asarray(u.samples), SERIES_HORIZON),
                    SERIES_HORIZON) * (m + 1)
        incs = list(out.increments)
        top = incs[-1]
        incs[-1] = top * (2.0 * ratio ** n / float(np.abs(top).sum(axis=-2).max()))
        yield "increment above the bound", replace(out, increments=incs,
                                                   values=sum(incs[1:], incs[0]))


# ---------------------------------------------------------------------------
# flow: two in-process CLI calls on a long grid

FLOW_GRID = 4096
FLOW_POOL = 64
DYSON_TOL = 1e-4   # criterion 6
ORTHO_TOL = 1e-6   # criterion 7
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _cli(argv: list[str]):
    from dendrifliess.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class Flow:
    name = "flow"
    #: one (grid + 1, 3, 3) float64 stack, as held by the evaluator and expm_stack
    stacked_array_bytes = 8 * 3 * 3 * (FLOW_GRID + 1)

    def make_inputs(self, seed: int) -> list[float]:
        """Field magnitudes B in [0.25, 1], a golden-ratio sequence from a
        seeded start, so every run sees an evenly spread mix of B."""
        start = random.Random(seed).random()
        return [0.25 + 0.75 * ((start + k * GOLDEN) % 1.0) for k in range(FLOW_POOL)]

    def warmup_input(self, inputs: list[float]) -> float:
        return 0.625  # the op's cost grows with B, so warm up at a fixed B

    def op(self, b: float):
        spin = f"spin:{b!r},rot"
        return (
            _cli(["--json", "fliess", "eval", "--series", "dyson:10", "--signal", spin,
                  "--order", "10", "--grid", str(FLOW_GRID)]),
            _cli(["--json", "magnus", "--signal", spin, "--order", "3",
                  "--grid", str(FLOW_GRID), "--compare-rk4", "--refine", "4"]),
        )

    def verify(self, b: float, out):
        docs = []
        for code, text, err in out:
            if code != 0:
                return False, 0.0, f"CLI exit code {code}: {err.strip()}"
            try:
                docs.append(json.loads(text))
            except ValueError as exc:
                return False, 0.0, f"CLI output is not JSON: {exc}"
        fliess, magnus = docs
        values = np.asarray(fliess["values"])
        if values.shape != (FLOW_GRID + 1, 3, 3):
            return False, 0.0, f"Dyson values have shape {values.shape}"
        dev = float(np.abs(values[-1] - np.asarray(magnus["rk4_T"])).sum(axis=0).max())
        z = np.asarray(magnus["z_T"])
        ortho = float(np.abs(z.T @ z - np.eye(3)).max())
        ratio = max(dev / DYSON_TOL, ortho / ORTHO_TOL)
        if not (dev <= DYSON_TOL and ortho <= ORTHO_TOL):
            return False, ratio, f"Dyson vs RK4 {dev:.2e}, orthogonality {ortho:.2e}"
        return True, ratio, ""

    def output_bytes(self, out) -> int:
        """Bytes the two CLI calls wrote to their output sinks."""
        return sum(len(text.encode()) + len(err.encode()) for _, text, err in out)

    def corruptions(self, b: float, out):
        (fl, magnus) = out
        doc = json.loads(fl[1])
        doc["values"][-1][0][0] += 1e-3
        yield "Dyson values + 1e-3", ((fl[0], json.dumps(doc), fl[2]), magnus)
        doc = json.loads(magnus[1])
        doc["z_T"][0][0] += 1e-3
        yield "z_T + 1e-3", (fl, (magnus[0], json.dumps(doc), magnus[2]))


WORKLOADS = {w.name: w for w in (Exponent, Products, Series, Flow)}
