"""Planar binary trees as a free magma, with decorations.

Trees are immutable and hashable, and decorated trees are hash-consed (one
object per tree); the trivial tree (leaf) is the shared constants ``LEAF`` /
``DLEAF``.  Order counts interior vertices.  Decorated trees carry one
alphabet letter (a non-negative int, 0 reserved for the drift channel) per
interior vertex; the foliation reads them in in-order.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

__all__ = [
    "AlphabetError",
    "TreeError",
    "EnumerationCapError",
    "PlanarTree",
    "DecoratedTree",
    "LEAF",
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
    "left_comb_skeleton",
    "right_comb_skeleton",
    "tree_factorial",
    "canonical_key",
    "skeleton_string",
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


@dataclass(frozen=True)
class PlanarTree:
    """Undecorated planar binary tree; a leaf has both children ``None``."""

    left: "PlanarTree | None" = None
    right: "PlanarTree | None" = None
    order: int = field(default=0, compare=False, hash=False)

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise TreeError("a node needs both children; a leaf has neither")
        if self.left is not None:
            assert self.right is not None
            object.__setattr__(self, "order", self.left.order + self.right.order + 1)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        return f"PlanarTree({skeleton_string(self)!r})"


#: every live ``DecoratedTree`` under the ids of its children and its letter;
#: it holds the trees weakly, so a tree nobody else holds is freed as usual
_INTERNED: "weakref.WeakValueDictionary[tuple, DecoratedTree]" = weakref.WeakValueDictionary()
#: taken only to add a tree, so two threads cannot both build one triple
_INTERN_LOCK = threading.RLock()


class DecoratedTree:
    """Planar binary tree with one letter per interior vertex.

    Trees are hash-consed: ``DecoratedTree(left, letter, right)`` returns the
    live tree with those children and letter when there is one, so equal trees
    are one object, ``==`` is ``is`` and the hash, computed once from the
    children's, costs O(1) however deep the tree.  ``order`` is always counted
    from the children; the argument is accepted for the positional form
    ``DecoratedTree(left, letter, right, order)`` and otherwise ignored.
    """

    __slots__ = ("left", "letter", "right", "order", "_hash", "__weakref__")

    def __new__(cls, left: "DecoratedTree | None" = None, letter: int | None = None,
                right: "DecoratedTree | None" = None, order: int | None = None):
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
                setattr_(node, "_hash", hash((left, letter, right)))
                _INTERNED[key] = node
        return node

    def __init__(self, left=None, letter=None, right=None, order=None) -> None:
        """Nothing to do: ``__new__`` builds or finds the node.  Defined in the
        class body so that profilers can wrap construction by name."""

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other

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


LEAF = PlanarTree()
DLEAF = DecoratedTree()


def graft(left: DecoratedTree, letter: int, right: DecoratedTree) -> DecoratedTree:
    """Decorated binary grafting: join two trees under a new ``letter`` root."""
    return DecoratedTree(left, letter, right)


def skeleton(t: DecoratedTree) -> PlanarTree:
    """Erase decorations."""
    if t.is_leaf:
        return LEAF
    assert t.left is not None and t.right is not None
    return PlanarTree(skeleton(t.left), skeleton(t.right))


def foliation(t: DecoratedTree) -> Word:
    """In-order read of the interior-vertex letters."""
    if t.is_leaf:
        return ()
    assert t.left is not None and t.right is not None and t.letter is not None
    return foliation(t.left) + (t.letter,) + foliation(t.right)


def decorate(word: Sequence[int], skel: PlanarTree) -> DecoratedTree:
    """Attach ``word`` to the interior vertices of ``skel`` in in-order.

    Vertex ``v_j`` is where the paths from leaves ``j`` and ``j+1`` join,
    which is exactly the in-order position of the vertex.
    """
    word = tuple(word)
    if len(word) != skel.order:
        raise TreeError(
            f"word length {len(word)} != tree order {skel.order}")

    def rec(s: PlanarTree, lo: int) -> DecoratedTree:
        if s.is_leaf:
            return DLEAF
        assert s.left is not None and s.right is not None
        left = rec(s.left, lo)
        root = lo + s.left.order
        right = rec(s.right, root + 1)
        return DecoratedTree(left, word[root], right)

    return rec(skel, 0)


def catalan(n: int) -> int:
    """n-th Catalan number, exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _enumerate(n: int) -> tuple[PlanarTree, ...]:
    if n == 0:
        return (LEAF,)
    out: list[PlanarTree] = []
    for k in range(n):
        for l in _enumerate(k):
            for r in _enumerate(n - 1 - k):
                out.append(PlanarTree(l, r))
    return tuple(out)


def enumerate_trees(n: int) -> tuple[PlanarTree, ...]:
    """All planar binary trees of order ``n`` in canonical order; orders
    above ``DEFAULT_ENUMERATION_CAP`` are refused.

    Canonical order is (left-subtree key, right-subtree key) lexicographic,
    which the Segner-style generation produces directly.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"order {n} above enumeration cap {DEFAULT_ENUMERATION_CAP} (C_{n} trees)")
    return _enumerate(n)


def enumerate_decorated_trees(n: int, alphabet_size: int) -> Iterator[DecoratedTree]:
    """All trees of order ``n`` decorated with all words over x0..x<alphabet_size>."""
    import itertools

    letters = range(alphabet_size + 1)
    for skel in enumerate_trees(n):
        for word in itertools.product(letters, repeat=n):
            yield decorate(word, skel)


def left_comb(word: Sequence[int]) -> DecoratedTree:
    """Left-comb tree on ``word``; the first letter sits at the root.

    This orientation makes the iterated integral over a left comb coincide
    with the classical recursion E_{x_i eta'} = int u_i E_{eta'}.
    """
    t = DLEAF
    for letter in reversed(tuple(word)):
        t = DecoratedTree(DLEAF, letter, t)
    return t


def right_comb(word: Sequence[int]) -> DecoratedTree:
    """Right-comb tree on ``word``; the last letter sits at the root."""
    t = DLEAF
    for letter in word:
        t = DecoratedTree(t, letter, DLEAF)
    return t


def left_comb_skeleton(n: int) -> PlanarTree:
    t = LEAF
    for _ in range(n):
        t = PlanarTree(LEAF, t)
    return t


def right_comb_skeleton(n: int) -> PlanarTree:
    t = LEAF
    for _ in range(n):
        t = PlanarTree(t, LEAF)
    return t


def tree_factorial(t: PlanarTree | DecoratedTree) -> int:
    """Recursive tree factorial; equals n! on combs.

    The unit value on the leaf is 1 (the multiplicative unit), which is what
    makes gamma(comb of order n) = n! come out of the recursion.
    """
    if t.is_leaf:
        return 1
    assert t.left is not None and t.right is not None
    return (t.left.order + t.right.order + 1) * tree_factorial(t.left) * tree_factorial(t.right)


def canonical_key(t: DecoratedTree):
    """Sort key realizing the canonical order on decorated trees."""
    if t.is_leaf:
        return (0,)
    assert t.left is not None and t.right is not None and t.letter is not None
    return (t.order, canonical_key(t.left), t.letter, canonical_key(t.right))


def skeleton_string(t: PlanarTree) -> str:
    """Balanced-parenthesis encoding: leaf -> '', node -> skel(l) + '(' + skel(r) + ')'."""
    if t.is_leaf:
        return ""
    assert t.left is not None and t.right is not None
    return skeleton_string(t.left) + "(" + skeleton_string(t.right) + ")"


def tree_to_json(t: DecoratedTree) -> dict | None:
    """JSON form {"l": ..., "x": i, "r": ...}; leaf -> null."""
    if t.is_leaf:
        return None
    assert t.left is not None and t.right is not None
    return {"l": tree_to_json(t.left), "x": t.letter, "r": tree_to_json(t.right)}


def tree_from_json(obj: dict | None) -> DecoratedTree:
    if obj is None:
        return DLEAF
    return DecoratedTree(tree_from_json(obj["l"]), int(obj["x"]), tree_from_json(obj["r"]))


def parse_word(text: str) -> Word:
    """Parse a catenated word like 'x1x2x0' into letter indices."""
    out: list[int] = []
    i = 0
    while i < len(text):
        if text[i] != "x":
            raise AlphabetError(f"expected 'x<digits>' at position {i} in {text!r}")
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == i + 1:
            raise AlphabetError(f"missing letter index at position {i} in {text!r}")
        out.append(int(text[i + 1:j]))
        i = j
    return tuple(out)
