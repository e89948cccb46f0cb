"""Planar binary trees as a free magma, with decorations.

A decorated tree is a hash-consed :class:`DecoratedTree` (one object per
tree); the trivial tree (leaf) is the shared constant ``DLEAF``.  Order counts
interior vertices.  A tree carries one alphabet letter (a non-negative int, 0
reserved for the drift channel) per interior vertex; the foliation reads them
in in-order.  A tree's shape is its Dyck word (balanced parentheses): the leaf
is ``""`` and a vertex is ``shape(left) + "(" + shape(right) + ")"``, so a
shape of order n has n pairs.
"""

from __future__ import annotations

import math
import operator
import re
import threading
import weakref
from typing import Iterator, Sequence

__all__ = [
    "AlphabetError",
    "TreeError",
    "EnumerationCapError",
    "DecoratedTree",
    "DLEAF",
    "Word",
    "parse_word",
    "graft",
    "skeleton",
    "foliation",
    "decorate",
    "catalan",
    "enumerate_trees",
    "enumerate_decorated_trees",
    "left_comb",
    "right_comb",
    "tree_factorial",
    "canonical_key",
    "tree_to_json",
    "tree_from_json",
    "DEFAULT_ENUMERATION_CAP",
]

Word = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 14


class TreeError(ValueError):
    """Structural misuse of tree operations (arity/shape mismatches)."""


class AlphabetError(ValueError):
    """A letter index outside the configured alphabet."""


class EnumerationCapError(ValueError):
    """Requested enumeration order above the configured cap."""


#: every live ``DecoratedTree`` under the ids of its children and its letter;
#: it holds the trees weakly, so a tree nobody else holds is freed as usual
_INTERNED: "weakref.WeakValueDictionary[tuple, DecoratedTree]" = weakref.WeakValueDictionary()
#: taken only to add a tree, so two threads cannot both build one triple
_INTERN_LOCK = threading.RLock()


class DecoratedTree:
    """Planar binary tree with one letter per interior vertex.

    Trees are hash-consed: ``DecoratedTree(left, letter, right)`` returns the
    live tree with those children and letter when there is one, so equal trees
    are one object.  Hence ``==`` is ``is`` and the hash is the identity hash,
    both ``object``'s own C slots: O(1) however deep the tree, and no Python
    call when a tree keys a dict.  ``order`` is counted from the children.
    """

    __slots__ = ("left", "letter", "right", "order", "__weakref__")

    def __new__(cls, left: "DecoratedTree | None" = None, letter: int | None = None,
                right: "DecoratedTree | None" = None):
        if letter is not None and type(letter) is not int:
            letter = operator.index(letter)  # one key per letter; floats are refused
        # a live tree keeps its children alive, so their ids name them
        key = (id(left), letter, id(right))
        node = _INTERNED.get(key)
        if node is not None:
            return node
        filled = (left is not None, letter is not None, right is not None)
        if any(filled) and not all(filled):
            raise TreeError("a decorated node needs left child, letter and right child")
        if letter is not None:
            if letter < 0:
                raise AlphabetError(f"letter index must be >= 0, got {letter}")
            assert left is not None and right is not None
        with _INTERN_LOCK:
            node = _INTERNED.get(key)
            if node is None:
                node = object.__new__(cls)
                setattr_ = object.__setattr__
                setattr_(node, "left", left)
                setattr_(node, "letter", letter)
                setattr_(node, "right", right)
                setattr_(node, "order", 0 if letter is None else left.order + right.order + 1)
                _INTERNED[key] = node
        return node

    def __init__(self, left=None, letter=None, right=None) -> None:
        """Nothing to do: ``__new__`` builds or finds the node.  Defined in the
        class body so that profilers can wrap construction by name."""

    # named in the class body so that profilers can wrap them by name
    __hash__ = object.__hash__
    __eq__ = object.__eq__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"DecoratedTree is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"DecoratedTree is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return DecoratedTree, (self.left, self.letter, self.right)

    @property
    def is_leaf(self) -> bool:
        return self.letter is None

    def __repr__(self) -> str:
        from .algebra import render_tree_expr  # local to avoid a cycle

        return f"DecoratedTree({render_tree_expr(self)!r})"


DLEAF = DecoratedTree()


def graft(left: DecoratedTree, letter: int, right: DecoratedTree) -> DecoratedTree:
    """Decorated binary grafting: join two trees under a new ``letter`` root."""
    return DecoratedTree(left, letter, right)


def _tour(t, known=()):
    """Depth-first tour of ``t`` on an explicit stack (no frame per level):
    ``(v, 0)`` on the way down, ``(v, 1)`` at v's in-order place and ``(v, 2)``
    on the way up.  A leaf, or a subtree in ``known`` when the tour reaches it,
    comes once as ``(v, 0)`` and is not entered.  Only a non-empty ``known``
    hashes vertices."""
    stack = [(t, 0)]
    while stack:
        step = stack.pop()
        yield step
        v, stage = step
        if stage == 0:
            if v.left is None or (known and v in known):
                continue
            stack += ((v, 1), (v.left, 0))
        elif stage == 1:
            stack += ((v, 2), (v.right, 0))


def skeleton(t: DecoratedTree) -> str:
    """The shape of ``t``: its Dyck word, decorations erased."""
    return "".join("(" if stage == 1 else ")" for _, stage in _tour(t) if stage)


def foliation(t: DecoratedTree) -> Word:
    """In-order read of the interior-vertex letters."""
    return tuple(v.letter for v, stage in _tour(t) if stage == 1)


def decorate(word: Sequence[int], shape: str) -> DecoratedTree:
    """Attach ``word`` to the interior vertices of ``shape`` in in-order.

    Each ``(`` opens a vertex, whose left subtree is complete, and takes the
    next letter; each ``)`` closes the open vertex and grafts its left
    subtree, letter and right subtree.
    Vertex ``v_j`` is where the paths from leaves ``j`` and ``j+1`` join,
    which is exactly the in-order position of the vertex.
    """
    word = tuple(word)
    order = shape.count("(")
    if len(word) != order:
        raise TreeError(f"word length {len(word)} != tree order {order}")
    letters = iter(word)
    out: list = [DLEAF]  # left subtree, then letter and right subtree of each open vertex
    for ch in shape:
        if ch == "(":
            out += (next(letters), DLEAF)
        elif ch == ")" and len(out) > 1:
            right, letter = out.pop(), out.pop()
            out[-1] = DecoratedTree(out[-1], letter, right)
        else:
            break
    else:
        if len(out) == 1:
            return out[0]
    raise TreeError(f"shape {shape!r} is not a balanced word over '()'")


def catalan(n: int) -> int:
    """n-th Catalan number, exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def enumerate_trees(n: int) -> tuple[str, ...]:
    """The shapes (Dyck words) of all planar binary trees of order ``n`` in
    canonical order; orders above ``DEFAULT_ENUMERATION_CAP`` are refused.

    Canonical order is (left-subtree key, right-subtree key) lexicographic,
    which the Segner-style generation produces directly.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"order {n} above enumeration cap {DEFAULT_ENUMERATION_CAP} (C_{n} trees)")
    by_order = [("",)]
    for k in range(1, n + 1):
        by_order.append(tuple(left + "(" + right + ")" for i in range(k)
                              for left in by_order[i] for right in by_order[k - 1 - i]))
    return by_order[n]


def enumerate_decorated_trees(n: int, alphabet_size: int) -> Iterator[DecoratedTree]:
    """All trees of order ``n`` decorated with all words over x0..x<alphabet_size>."""
    import itertools

    letters = range(alphabet_size + 1)
    for shape in enumerate_trees(n):
        for word in itertools.product(letters, repeat=n):
            yield decorate(word, shape)


def left_comb(word: Sequence[int]) -> DecoratedTree:
    """Left-comb tree on ``word``; the first letter sits at the root.

    This orientation makes the iterated integral over a left comb coincide
    with the classical recursion E_{x_i eta'} = int u_i E_{eta'}.
    """
    return decorate(word, "(" * len(word) + ")" * len(word))


def right_comb(word: Sequence[int]) -> DecoratedTree:
    """Right-comb tree on ``word``; the last letter sits at the root."""
    return decorate(word, "()" * len(word))


def tree_factorial(shape: str) -> int:
    """Tree factorial of a shape: the product over interior vertices of the
    order of the subtree rooted there; 1 on the leaf, and n! on combs of
    order n."""
    orders, factors = [0], []  # orders: left subtree, then right subtree of each open vertex
    for ch in shape:
        if ch == "(":
            orders.append(0)
        else:
            right = orders.pop()
            orders[-1] += right + 1
            factors.append(orders[-1])
    while len(factors) > 1:  # pairwise, so a comb's n! is not built one small factor at a time
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return math.prod(factors)


def canonical_key(t: DecoratedTree) -> tuple[int, ...]:
    """Sort key of the canonical order: (order, key(left), letter, key(right))
    read flat in pre-order, (0,) for the leaf.  A key of order n has 3n + 1
    entries, so flat keys sort as nested ones would, without recursing."""
    return tuple(v.letter if stage == 1 else v.order for v, stage in _tour(t) if stage < 2)


def tree_to_json(t: DecoratedTree) -> dict | None:
    """JSON form {"l": ..., "x": i, "r": ...}; leaf -> null."""
    out: list = []
    for v, stage in _tour(t):
        if v.left is None:
            out.append(None)
        elif stage == 2:
            right = out.pop()
            out[-1] = {"l": out[-1], "x": v.letter, "r": right}
    return out[0]


def tree_from_json(obj: dict | None) -> DecoratedTree:
    """The tree of a :func:`tree_to_json` form, read on an explicit stack."""
    out: list = []  # left subtree, letter, right subtree of each open node
    todo = [(obj, 0)]
    while todo:
        o, stage = todo.pop()
        if o is None:
            out.append(DLEAF)
        elif stage == 0:
            todo += ((o, 1), (o["l"], 0))
        elif stage == 1:
            letter = o["x"]
            if type(letter) is not int:  # no bool, float or string letter
                raise TypeError(f"a letter is a JSON integer, got {letter!r}")
            out.append(letter)
            todo += ((o, 2), (o["r"], 0))
        else:
            right, letter = out.pop(), out.pop()
            out[-1] = DecoratedTree(out[-1], letter, right)
    return out[0]


def parse_word(text: str) -> Word:
    """Parse a catenated word like 'x1x2x0' into letter indices."""
    i = re.match(r"(?:x\d+)*", text).end()
    if i < len(text):
        if text[i] != "x":
            raise AlphabetError(f"expected 'x<digits>' at position {i} in {text!r}")
        raise AlphabetError(f"missing letter index at position {i} in {text!r}")
    return tuple(int(d) for d in text[1:].split("x")) if text else ()
