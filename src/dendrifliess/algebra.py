"""The free dendriform algebra on decorated planar binary trees.

Dendriform words are stored canonically as decorated trees (the tree
isomorphism is applied eagerly), so equality of words is plain tree
equality.  This is an algebra over the rationals: a polynomial stores its
coefficients as integer numerators over one common denominator and reads
them out as exact ``Fraction``s.  Matrix coefficients belong to generating
series (:mod:`.operators`), which apply them when an operator is evaluated.

Products provided: the two dendriform half-products ``prec`` / ``succ``,
their associative sum ``shuffle`` and the pre-Lie combination ``pre_lie``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Iterator, Mapping

from .trees import (
    DLEAF,
    DecoratedTree,
    _tour,
    canonical_key,
    decorate,
    enumerate_trees,
    graft,
    tree_to_json,
)

__all__ = [
    "DendriformError",
    "ParseError",
    "delta_to_tree",
    "TreePolynomial",
    "shuffle",
    "prec",
    "succ",
    "pre_lie",
    "char_trees",
    "parse_dendriform_expr",
    "render_tree_expr",
    "render_polynomial",
]

class DendriformError(ValueError):
    """Domain error in a dendriform product: a disallowed empty-word slot."""


class ParseError(ValueError):
    """Invalid surface syntax; carries the violated condition when known."""

    def __init__(self, message: str, condition: str | None = None):
        super().__init__(message)
        self.condition = condition


# ---------------------------------------------------------------------------
# tree polynomials

class TreePolynomial:
    """Finite linear combination of decorated trees with rational coefficients.

    Immutable.  Stored as integer numerators ``_nums`` over one denominator
    ``_den`` in lowest terms: ``_den > 0``, no zero numerator and
    ``gcd(_den, *_nums.values()) == 1``, so equal polynomials hold equal data.
    Coefficients are read as ``Fraction``s.  The constructor makes each
    coefficient a ``Fraction`` and refuses NaN and infinities with
    ``ValueError``; the results of the arithmetic are built by ``_of``.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[DecoratedTree, Fraction] | None = None):
        coeffs = {t: _rational(c) for t, c in (terms or {}).items()}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        # lowest terms already: each prime power in ``den`` exactly divides
        # the denominator of a coefficient whose numerator it does not divide
        self._nums = {t: c.numerator * (den // c.denominator)
                      for t, c in coeffs.items() if c}
        self._den = den

    @classmethod
    def _of(cls, nums: dict[DecoratedTree, int], den: int) -> "TreePolynomial":
        """``nums / den`` in lowest terms.  ``nums`` must hold nonzero ints only
        and belong to nobody else; ``den`` must be positive."""
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {t: n // g for t, n in nums.items()}
        p = object.__new__(cls)
        p._nums, p._den = nums, den
        return p

    # construction helpers -------------------------------------------------
    @classmethod
    def single(cls, tree: DecoratedTree, coeff: Fraction = Fraction(1)) -> "TreePolynomial":
        return cls({tree: coeff})

    # inspection -----------------------------------------------------------
    def coefficient(self, tree: DecoratedTree) -> Fraction:
        return Fraction(self._nums.get(tree, 0), self._den)

    def items(self) -> Iterator[tuple[DecoratedTree, Fraction]]:
        den = self._den
        return iter([(t, Fraction(self._nums[t], den))
                     for t in sorted(self._nums, key=canonical_key)])

    def is_zero(self) -> bool:
        return not self._nums

    def has_leaf_term(self) -> bool:
        return DLEAF in self._nums

    def truncate(self, n: int) -> "TreePolynomial":
        return TreePolynomial._of(
            {t: c for t, c in self._nums.items() if t.order <= n}, self._den)

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreePolynomial):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __repr__(self) -> str:
        return f"TreePolynomial({render_polynomial(self)})"

    # arithmetic -----------------------------------------------------------
    def __add__(self, other: "TreePolynomial") -> "TreePolynomial":
        return _sum(self, other, 1)

    def __sub__(self, other: "TreePolynomial") -> "TreePolynomial":
        return _sum(self, other, -1)

    def __neg__(self) -> "TreePolynomial":
        return TreePolynomial._of({t: -c for t, c in self._nums.items()}, self._den)

    def scale(self, k: Fraction) -> "TreePolynomial":
        k = _rational(k)
        if not k:
            return TreePolynomial()
        return TreePolynomial._of({t: k.numerator * c for t, c in self._nums.items()},
                                  k.denominator * self._den)

    def __rmul__(self, k) -> "TreePolynomial":
        return self.scale(k)

    # serialization --------------------------------------------------------
    def to_json(self) -> list[dict]:
        return [{"coeff": str(c), "tree": tree_to_json(t)} for t, c in self.items()]


def _rational(c) -> Fraction:
    """``c`` as an exact ``Fraction``; NaN and infinities raise ``ValueError``."""
    try:
        return Fraction(c)
    except (OverflowError, ValueError):
        raise ValueError(f"coefficient {c!r} is not a finite rational") from None


def _accumulate(out: dict[DecoratedTree, int], terms) -> dict[DecoratedTree, int]:
    """Add the nonzero ``(tree, numerator)`` pairs of ``terms`` into ``out`` in
    place, deleting a tree whose numerator sums to zero; returns ``out``."""
    for t, c in terms:
        cur = out.get(t)
        if cur is None:
            out[t] = c
        elif cur := cur + c:
            out[t] = cur
        else:
            del out[t]
    return out


def _sum(p: TreePolynomial, q: TreePolynomial, sign: int) -> TreePolynomial:
    """p + sign * q, with both numerators brought to the lcm of the denominators."""
    den = math.lcm(p._den, q._den)
    a, b = den // p._den, sign * (den // q._den)
    out = {t: a * c for t, c in p._nums.items()} if a != 1 else dict(p._nums)
    return TreePolynomial._of(_accumulate(out, ((t, b * c) for t, c in q._nums.items())), den)


# ---------------------------------------------------------------------------
# tree-level products
#
# ``_shuffle_trees`` is the one memoized kernel.  It lists t1 sh t2 split at
# the root, prec branch first, so the half-products are its two slices and
# once a pair's shuffle is cached no product of that pair builds a tree.
# Each tree product is a tuple of distinct trees, so the bilinear extension
# needs no multiplicities: within one branch the graft is injective in the
# shuffled subtree, and the two branches of the shuffle give roots whose left
# subtrees differ in order.

@lru_cache(maxsize=200_000)
def _shuffle_trees(t1: DecoratedTree, t2: DecoratedTree) -> tuple[DecoratedTree, ...]:
    """t1 sh t2 over the right spine a_0 = t1, a_{i+1} = a_i^r of t1 and the
    left spine b_0 = t2, b_{j+1} = b_j^l of t2: a_i sh b_j is the prec branch
    a_i^l v (a_{i+1} sh b_j), then the succ branch (a_i sh b_{j+1}) v b_j^r.
    ``row[j]`` holds a_i sh b_j; rows are filled from the leaves up."""
    a_spine, b_spine = [], []
    while not t1.is_leaf:
        a_spine.append(t1)
        t1 = t1.right
    while not t2.is_leaf:
        b_spine.append(t2)
        t2 = t2.left
    row = [[b] for b in b_spine] + [[DLEAF]]
    for a in reversed(a_spine):
        row[-1] = [a]
        for j in range(len(b_spine) - 1, -1, -1):
            b = b_spine[j]
            row[j] = [DecoratedTree(a.left, a.letter, s) for s in row[j]] \
                + [DecoratedTree(s, b.letter, b.right) for s in row[j + 1]]
    return tuple(row[0])


def _prec_trees(t1: DecoratedTree, t2: DecoratedTree) -> tuple[DecoratedTree, ...]:
    """t1^l v_x (t1^r sh t2), the prec branch of the root split of t1 sh t2:
    its leading ``len(t1^r sh t2)`` trees.  ``t1`` is not the leaf."""
    return _shuffle_trees(t1, t2)[:len(_shuffle_trees(t1.right, t2))]


def _succ_trees(t1: DecoratedTree, t2: DecoratedTree) -> tuple[DecoratedTree, ...]:
    """(t1 sh t2^l) v_y t2^r, the succ branch of the root split of t1 sh t2:
    the trees after the prec branch, and ``t2`` alone when ``t1`` is the leaf.
    ``t2`` is not the leaf."""
    if t1.is_leaf:
        return (t2,)
    return _shuffle_trees(t1, t2)[len(_shuffle_trees(t1.right, t2)):]


def _bilinear(p: TreePolynomial, q: TreePolynomial, tree_product) -> TreePolynomial:
    """The bilinear extension of ``tree_product``: integer numerators over
    ``p._den * q._den``, reduced once at the end."""
    out: dict[DecoratedTree, int] = {}
    for t1, c1 in p._nums.items():
        for t2, c2 in q._nums.items():
            _accumulate(out, zip(tree_product(t1, t2), repeat(c1 * c2)))
    return TreePolynomial._of(out, p._den * q._den)


def shuffle(p: TreePolynomial, q: TreePolynomial) -> TreePolynomial:
    """Associative tree shuffle; the empty word is its two-sided unit."""
    return _bilinear(p, q, _shuffle_trees)


def prec(p: TreePolynomial, q: TreePolynomial) -> TreePolynomial:
    """Left half-product; the left operand must have no empty-word term."""
    if p.has_leaf_term():
        raise DendriformError("empty word is not allowed as the left operand of prec")
    return _bilinear(p, q, _prec_trees)


def succ(p: TreePolynomial, q: TreePolynomial) -> TreePolynomial:
    """Right half-product; the right operand must have no empty-word term."""
    if q.has_leaf_term():
        raise DendriformError("empty word is not allowed as the right operand of succ")
    return _bilinear(p, q, _succ_trees)


def pre_lie(p: TreePolynomial, q: TreePolynomial) -> TreePolynomial:
    """The combination prec - succ (non-associative)."""
    return prec(p, q) - succ(p, q)


def char_trees(n: int, letter: int = 1) -> TreePolynomial:
    """Sum of all order-``n`` trees decorated with ``letter``^n, coefficients 1."""
    return TreePolynomial({
        decorate((letter,) * n, shape): Fraction(1) for shape in enumerate_trees(n)
    })


# ---------------------------------------------------------------------------
# parenthesis words

_TOKEN_RE = re.compile(r"x\d+|\[|\]|\s+")


def _tokenize(text: str, token_re: re.Pattern) -> list[str]:
    """Split ``text`` into the non-space tokens of ``token_re``."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            raise ParseError(f"unknown token at position {pos} in {text!r}")
        tok = m.group(0)
        pos = m.end()
        if not tok.isspace():
            tokens.append(tok)
    return tokens


def delta_to_tree(text: str) -> DecoratedTree:
    """The decorated tree of the parenthesis word ``text`` (delta, then the tree map).

    Every nonempty parenthesis word has the shape ``[left]? letter [right]?``
    with groups again parenthesis words, and maps to the tree that grafts the
    trees of its groups under the letter.  One pass checks conditions i-v and
    writes the tree's shape (Dyck word): a letter writes ``(``, closed at the
    ``]`` of its right group, or at once when no ``[`` follows it.  A
    violation raises ``ParseError`` naming the first failed condition in the
    order i, ii/iii (leftmost pair), iv, v (groups in closing order).
    """
    tokens = _tokenize(text, _TOKEN_RE)
    letters: list[int] = []
    shape: list[str] = []
    opened: list[int] = []  # positions of the open '['
    pair = double = None  # the first ii/iii and v violations
    inner = -1  # position of the '[' of the group closed last
    for k, tok in enumerate(tokens):
        nxt = tokens[k + 1] if k + 1 < len(tokens) else ""
        if tok == "[":
            opened.append(k)
        elif tok == "]":
            if not opened:
                raise ParseError("unbalanced ']' (condition i)", condition="i")
            i = opened.pop()
            right = i > 0 and tokens[i - 1][0] == "x"  # the group follows its letter
            if double is None and inner == i + 1 and tokens[k - 1] == "]":
                double = "redundant double wrapping (condition v)"
            elif double is None and right and nxt[:1] == "x":
                double = "bracket group flanked by letters on both sides (condition v)"
            if right:
                shape.append(")")
            inner = i
        else:
            letters.append(int(tok[1:]))
            shape.append("(" if nxt == "[" else "()")
        if pair is None and tok[0] == nxt[:1] == "x":
            pair = ParseError("adjacent bare letters (condition ii)", condition="ii")
        elif pair is None and tok + nxt in ("[]", "]["):
            pair = ParseError(f"forbidden pair '{tok}{nxt}' (condition iii)", condition="iii")
    if opened:
        raise ParseError("unbalanced '[' (condition i)", condition="i")
    if pair is not None:
        raise pair
    if inner == 0 and tokens[-1] == "]":
        raise ParseError("globally wrapped word (condition iv)", condition="iv")
    if double is not None:
        raise ParseError(double, condition="v")
    return decorate(letters, "".join(shape))


# ---------------------------------------------------------------------------
# dendriform expressions (ASCII surface syntax)

_EXPR_TOKEN_RE = re.compile(r"x\d+|\d+/\d+|\d+|[()<>+\-*]|\s+")


def parse_dendriform_expr(text: str) -> TreePolynomial:
    """Parse an ASCII '<' / '>' expression into a polynomial:
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := [rational '*'] factor
    factor := letter | '(' expr ('<'|'>') expr ')'
    Products must be fully parenthesized (they are non-associative).
    ``total`` is the sum so far of the innermost open expression (``None``
    before its first term) and ``sign`` that of its next term; each open
    product holds the enclosing ``total``, ``sign`` and scale, then its left
    operand and '<' / '>'."""
    tokens = _tokenize(text, _EXPR_TOKEN_RE)[::-1]  # the next token is last

    def take(expected: str | None = None) -> str:
        if not tokens:
            raise ParseError(f"unexpected end of expression {text!r}")
        if expected is not None and tokens[-1] != expected:
            raise ParseError(f"expected {expected!r}, got {tokens[-1]!r} in {text!r}")
        return tokens.pop()

    products: list[list] = []
    total, sign = None, "+"
    while True:
        if total is None and tokens and tokens[-1] in ("+", "-"):
            sign = take()
        scale = Fraction(1)
        if tokens and re.fullmatch(r"\d+(/\d+)?", tokens[-1]):
            tok = take()
            try:
                scale = Fraction(tok)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {tok!r} in {text!r}") from None
            take("*")
        tok = take()
        if tok == "(":
            products.append([total, sign, scale, None, None])
            total, sign = None, "+"
            continue
        if not tok.startswith("x"):
            raise ParseError(f"unexpected token {tok!r} in {text!r}")
        value = TreePolynomial.single(graft(DLEAF, int(tok[1:]), DLEAF))
        while True:  # close the term, then every product that ends here
            value = value.scale(scale)
            if total is None:
                total = -value if sign == "-" else value
            else:
                total = total + value if sign == "+" else total - value
            if tokens and tokens[-1] in ("+", "-"):
                sign = take()
                break
            if not products:
                if tokens:
                    raise ParseError(f"trailing tokens from {tokens[-1]!r} in {text!r}")
                return total
            product = products[-1]
            if product[3] is None:
                op = take()
                if op not in ("<", ">"):
                    raise ParseError(
                        f"products must be parenthesized pairs; got {op!r} in {text!r}")
                product[3:] = total, op
                total, sign = None, "+"
                break
            take(")")
            lhs, op = product[3:]
            value = prec(lhs, total) if op == "<" else succ(lhs, total)
            total, sign, scale = products.pop()[:3]


def render_tree_expr(t: DecoratedTree) -> str:
    """Fully parenthesized '<' / '>' rendering of one tree; '1' for the leaf.
    A vertex reads ``((l>x)<r)`` (the left-associated reading of l > x < r),
    less a leaf child's side and parenthesis: ``(x<r)``, ``(l>x)`` or ``x``."""
    if t.is_leaf:
        return "1"
    parts: list[str] = []
    for v, stage in _tour(t):
        if v.is_leaf:
            continue
        inner_left, inner_right = not v.left.is_leaf, not v.right.is_leaf
        if stage == 0:
            parts.append("(" * (inner_left + inner_right))
        elif stage == 1:
            parts.append(f">x{v.letter})" if inner_left else f"x{v.letter}")
            parts.append("<" * inner_right)
        else:
            parts.append(")" * inner_right)
    return "".join(parts)


def render_polynomial(p: TreePolynomial) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for t, c in p.items():
        expr = render_tree_expr(t)
        if c == 1:
            parts.append(f"+ {expr}")
        elif c == -1:
            parts.append(f"- {expr}")
        else:
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {abs(c)}*{expr}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text
