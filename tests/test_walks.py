"""Tree walks: every walk equals its recursive definition, handles deep trees,
and no function in the package calls itself by name, directly or through
others."""

import ast
import math
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifliess.algebra import (
    delta_to_tree,
    render_tree_expr,
)
from dendrifliess.integrals import TreeEvaluator
from dendrifliess.signals import random_smooth_signal, trapezoid_prefix
from dendrifliess.trees import (
    DLEAF,
    DecoratedTree,
    canonical_key,
    decorate,
    enumerate_trees,
    foliation,
    left_comb,
    right_comb,
    skeleton,
    tree_factorial,
    tree_from_json,
    tree_to_json,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dendrifliess"


# ---------------------------------------------------------------------------
# reference oracles: the recursive definitions, one frame per level

def ref_skeleton(t):
    return "" if t.is_leaf else ref_skeleton(t.left) + "(" + ref_skeleton(t.right) + ")"


def ref_foliation(t):
    return () if t.is_leaf else ref_foliation(t.left) + (t.letter,) + ref_foliation(t.right)


def ref_split(shape):
    """``(left, right)`` of a non-empty shape ``left + "(" + right + ")"``: the
    root's ``(`` is the one that matches the last ``)``."""
    depth = 0
    for i in range(len(shape) - 1, -1, -1):
        depth += 1 if shape[i] == ")" else -1
        if depth == 0:
            return shape[:i], shape[i + 1:-1]


def ref_decorate(word, shape):
    if not shape:
        return DLEAF
    left, right = ref_split(shape)
    root = left.count("(")
    return DecoratedTree(ref_decorate(word[:root], left), word[root],
                         ref_decorate(word[root + 1:], right))


def ref_tree_factorial(t):
    if t.is_leaf:
        return 1
    return t.order * ref_tree_factorial(t.left) * ref_tree_factorial(t.right)


def ref_nested_key(t):
    if t.is_leaf:
        return (0,)
    return (t.order, ref_nested_key(t.left), t.letter, ref_nested_key(t.right))


def ref_tree_to_json(t):
    if t.is_leaf:
        return None
    return {"l": ref_tree_to_json(t.left), "x": t.letter, "r": ref_tree_to_json(t.right)}


def ref_tree_from_json(obj):
    if obj is None:
        return DLEAF
    return DecoratedTree(ref_tree_from_json(obj["l"]), int(obj["x"]), ref_tree_from_json(obj["r"]))


def ref_render(t):
    if t.is_leaf:
        return "1"
    root = f"x{t.letter}"
    if t.left.is_leaf and t.right.is_leaf:
        return root
    if t.left.is_leaf:
        return f"({root}<{ref_render(t.right)})"
    if t.right.is_leaf:
        return f"({ref_render(t.left)}>{root})"
    return f"(({ref_render(t.left)}>{root})<{ref_render(t.right)})"


def ref_word_tokens(t):
    """A parenthesis word of ``t``: [left] letter [right], empty groups dropped."""
    if t.is_leaf:
        return []
    left = ["[", *ref_word_tokens(t.left), "]"] if not t.left.is_leaf else []
    right = ["[", *ref_word_tokens(t.right), "]"] if not t.right.is_leaf else []
    return left + [f"x{t.letter}"] + right


def ref_values(t, u):
    eye = np.broadcast_to(np.eye(u.dim), (u.num_steps + 1, u.dim, u.dim))

    def rec(s):
        if s.is_leaf:
            return eye
        left, right, ch = rec(s.left), rec(s.right), u.channel(s.letter)
        if s.left.is_leaf and s.right.is_leaf:
            integrand = ch
        elif s.left.is_leaf:
            integrand = ch @ right
        elif s.right.is_leaf:
            integrand = left @ ch
        else:
            integrand = left @ ch @ right
        return trapezoid_prefix(integrand, u.h)

    return rec(t)


# ---------------------------------------------------------------------------
# every walk equals its reference on random trees

WALK_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)
U = random_smooth_signal(np.random.default_rng(9), 3, 2, 0.5, 16)


@st.composite
def trees_up_to_8(draw):
    n = draw(st.integers(0, 8))
    skel = draw(st.sampled_from(enumerate_trees(n)))
    return decorate(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), skel)


@WALK_SETTINGS
@given(trees_up_to_8())
def test_walks_equal_their_recursive_definitions(t):
    shape = ref_skeleton(t)
    assert skeleton(t) == shape
    assert foliation(t) == ref_foliation(t)
    assert decorate(foliation(t), shape) is ref_decorate(foliation(t), shape) is t
    assert tree_factorial(shape) == ref_tree_factorial(t)
    assert tree_to_json(t) == ref_tree_to_json(t)
    assert tree_from_json(ref_tree_to_json(t)) is ref_tree_from_json(ref_tree_to_json(t)) is t
    assert render_tree_expr(t) == ref_render(t)
    assert repr(t) == f"DecoratedTree({ref_render(t)!r})"
    assert delta_to_tree("".join(ref_word_tokens(t))) is t
    assert np.array_equal(TreeEvaluator(U).values(t), ref_values(t, U))


@WALK_SETTINGS
@given(st.lists(trees_up_to_8(), max_size=12))
def test_flat_keys_sort_like_nested_keys(ts):
    assert sorted(ts, key=canonical_key) == sorted(ts, key=ref_nested_key)
    assert all(len(canonical_key(t)) == 3 * t.order + 1 for t in ts)


def test_shared_evaluator_matches_fresh_ones():
    # the tour stops at subtrees the evaluator has cached
    rng = np.random.default_rng(3)
    ts = [decorate(tuple(int(k) for k in rng.integers(0, 4, n)), skel)
          for n in range(6) for skel in enumerate_trees(n)]
    ev = TreeEvaluator(U)
    for t in ts:
        assert np.array_equal(ev.values(t), TreeEvaluator(U).values(t))


# ---------------------------------------------------------------------------
# deep trees

def test_every_walk_takes_100k_deep_combs():
    n = 100_000
    for t, key, shape, expr in (
        (left_comb((1,) * n), (*[v for k in range(n, 0, -1) for v in (k, 0, 1)], 0),
         "(" * n + ")" * n, "(x1<" * (n - 1) + "x1" + ")" * (n - 1)),
        (right_comb((1,) * n), (*range(n, -1, -1), *(1, 0) * n),
         "()" * n, "(" * (n - 1) + "x1" + ">x1)" * (n - 1)),
    ):
        assert skeleton(t) == shape
        assert foliation(t) == (1,) * n
        assert decorate(foliation(t), skeleton(t)) is t
        assert tree_factorial(shape) == math.factorial(n)
        assert canonical_key(t) == key
        assert tree_from_json(tree_to_json(t)) is t
        assert repr(t) == f"DecoratedTree({expr!r})"  # render_tree_expr


def test_deep_parenthesis_word():
    word = "x1[" * 2000 + "x1" + "]" * 2000
    assert delta_to_tree(word) is left_comb((1,) * 2001)


def test_values_of_5000_deep_combs():
    n, u = 5000, random_smooth_signal(np.random.default_rng(4), 1, 2, 0.5, 16)
    ch = u.channel(1)
    left = right = trapezoid_prefix(ch, u.h)
    for _ in range(n - 1):
        left = trapezoid_prefix(ch @ left, u.h)  # left comb: E = int u_1 E_right
        right = trapezoid_prefix(right @ ch, u.h)  # right comb: E = int E_left u_1
    assert np.array_equal(TreeEvaluator(u).values(left_comb((1,) * n)), left)
    assert np.array_equal(TreeEvaluator(u).values(right_comb((1,) * n)), right)


# ---------------------------------------------------------------------------
# guard: no function in the package calls itself, directly or through others

def call_graph(paths):
    """Edges f -> g between the functions defined in ``paths``: f calls g by
    bare name, or as ``self.g`` / ``cls.g`` in g's class.  A function is named
    ``module:qualname``.  A bare name resolves to a definition in an
    enclosing scope or the module, else to one imported by
    ``from .module import name``; attribute calls on modules draw no edge."""
    defs, imports = {}, {}  # defs: name -> (def node, enclosing class qualname)
    for path in paths:
        module = path.stem
        todo = [(ast.parse(path.read_text()), "", None)]
        while todo:
            node, prefix, cls = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{module}:{prefix}{child.name}"] = (child, cls)
                    todo.append((child, f"{prefix}{child.name}.", cls))
                elif isinstance(child, ast.ClassDef):
                    todo.append((child, f"{prefix}{child.name}.", f"{prefix}{child.name}"))
                else:
                    if isinstance(child, ast.ImportFrom) and child.level:
                        for alias in child.names:
                            imports[module, alias.asname or alias.name] = \
                                f"{child.module}:{alias.name}"
                    todo.append((child, prefix, cls))
    graph = {}
    for name, (fn, cls) in defs.items():
        module, qual = name.split(":")
        scopes = qual.split(".")
        edges = graph[name] = set()
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # a nested definition's calls are its own
            todo += ast.iter_child_nodes(node)
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                candidates = [f"{module}:{'.'.join(scopes[:k] + [f.id])}"
                              for k in range(len(scopes), -1, -1)]
                candidates.append(imports.get((module, f.id)))
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls") and cls is not None):
                candidates = [f"{module}:{cls}.{f.attr}"]
            else:
                continue
            target = next((c for c in candidates if c in defs), None)
            if target is not None:
                edges.add(target)
    return graph


def cycles(graph):
    """The groups of functions that call themselves, directly or through
    each other, each as a sorted tuple of names."""
    reach = {}
    for f in graph:
        seen, todo = set(), list(graph[f])
        while todo:
            g = todo.pop()
            if g not in seen:
                seen.add(g)
                todo += graph[g]
        reach[f] = seen
    return sorted({tuple(sorted(g for g in reach[f] if f in reach[g]))
                   for f in graph if f in reach[f]})


def test_no_function_calls_itself_by_name():
    assert cycles(call_graph(sorted(SRC.glob("*.py")))) == []


def test_call_graph_finds_recursion():
    # the recursive oracles of the tree shuffle, the --expr reader and the
    # tree enumeration: mutual recursion, through self, and a self-call
    found = cycles(call_graph([pathlib.Path(__file__).with_name("test_loops.py")]))
    assert found == [
        ("test_loops:RefExprParser.expr", "test_loops:RefExprParser.factor",
         "test_loops:RefExprParser.term"),
        ("test_loops:ref_enumerate",),
        ("test_loops:ref_prec_trees", "test_loops:ref_shuffle_trees",
         "test_loops:ref_succ_trees"),
    ]
