"""The tree shuffle, the ``--expr`` reader and the tree enumeration are loops:
each equals its recursive definition on random inputs and takes inputs
nested far deeper than an interpreter frame per level would allow.  The
parenthesis-word reader, the combs and the word reader write Dyck words or
match one pattern: each equals the reader or loop it replaced."""

import itertools
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifliess.algebra import (
    _EXPR_TOKEN_RE,
    ParseError,
    TreePolynomial,
    _prec_trees,
    _shuffle_trees,
    _succ_trees,
    _TOKEN_RE,
    _tokenize,
    delta_to_tree,
    parse_dendriform_expr,
    prec,
    render_polynomial,
    shuffle,
    succ,
)
from dendrifliess.trees import (
    DLEAF,
    AlphabetError,
    DecoratedTree,
    decorate,
    enumerate_trees,
    graft,
    left_comb,
    parse_word,
    right_comb,
)


# ---------------------------------------------------------------------------
# reference oracles: the recursive definitions, one frame per level

@lru_cache(maxsize=200_000)
def ref_shuffle_trees(t1, t2):
    if t1.is_leaf:
        return (t2,)
    if t2.is_leaf:
        return (t1,)
    return ref_prec_trees(t1, t2) + ref_succ_trees(t1, t2)


def ref_prec_trees(t1, t2):
    return tuple(DecoratedTree(t1.left, t1.letter, s) for s in ref_shuffle_trees(t1.right, t2))


def ref_succ_trees(t1, t2):
    return tuple(DecoratedTree(s, t2.letter, t2.right) for s in ref_shuffle_trees(t1, t2.left))


class RefExprParser:
    """Recursive descent for
    expr   := term (('+'|'-') term)*
    term   := [rational '*'] factor
    factor := letter | '(' expr ('<'|'>') expr ')'
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text, _EXPR_TOKEN_RE)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of expression {self.text!r}")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens from {self.peek()!r} in {self.text!r}")
        return out

    def expr(self):
        negate = False
        if self.peek() in ("+", "-"):
            negate = self.take() == "-"
        out = self.term()
        if negate:
            out = -out
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        coeff = Fraction(1)
        tok = self.peek()
        if tok is not None and re.fullmatch(r"\d+(/\d+)?", tok):
            self.take()
            coeff = Fraction(tok)
            self.take("*")
        return self.factor().scale(coeff)

    def factor(self):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of expression {self.text!r}")
        if tok.startswith("x"):
            self.take()
            return TreePolynomial.single(graft(DLEAF, int(tok[1:]), DLEAF))
        if tok == "(":
            self.take("(")
            lhs = self.expr()
            op = self.take()
            if op not in ("<", ">"):
                raise ParseError(
                    f"products must be parenthesized pairs; got {op!r} in {self.text!r}")
            rhs = self.expr()
            self.take(")")
            return prec(lhs, rhs) if op == "<" else succ(lhs, rhs)
        raise ParseError(f"unexpected token {tok!r} in {self.text!r}")


@lru_cache(maxsize=None)
def ref_enumerate(n):
    if n == 0:
        return ("",)
    out = []
    for k in range(n):
        for l in ref_enumerate(k):
            for r in ref_enumerate(n - 1 - k):
                out.append(l + "(" + r + ")")
    return tuple(out)


def ref_matching_brackets(tokens):
    stack = []
    match = {}
    for i, tok in enumerate(tokens):
        if tok == "[":
            stack.append(i)
        elif tok == "]":
            if not stack:
                raise ParseError("unbalanced ']' (condition i)", condition="i")
            match[stack.pop()] = i
    if stack:
        raise ParseError("unbalanced '[' (condition i)", condition="i")
    return match


def ref_parse_parenthesis_word(text):
    """The bracket table, then conditions ii-v in turn, then the delta map;
    returns the word's tokens."""
    tokens = tuple(_tokenize(text, _TOKEN_RE))
    if not tokens:
        return ()
    match = ref_matching_brackets(tokens)
    for i in range(len(tokens) - 1):
        a, b = tokens[i], tokens[i + 1]
        if a.startswith("x") and b.startswith("x"):
            raise ParseError("adjacent bare letters (condition ii)", condition="ii")
        if (a, b) == ("[", "]") or (a, b) == ("]", "["):
            raise ParseError(f"forbidden pair '{a}{b}' (condition iii)", condition="iii")
    if tokens[0] == "[" and match[0] == len(tokens) - 1:
        raise ParseError("globally wrapped word (condition iv)", condition="iv")
    for i, j in match.items():
        if i + 1 in match and match[i + 1] == j - 1:
            raise ParseError("redundant double wrapping (condition v)", condition="v")
        if 0 < i and j + 1 < len(tokens) \
                and tokens[i - 1].startswith("x") and tokens[j + 1].startswith("x"):
            raise ParseError(
                "bracket group flanked by letters on both sides (condition v)",
                condition="v")
    ref_delta_to_tree(tokens)
    return tokens


def ref_delta_to_tree(tokens):
    """The delta map on a stack of (stage, lo, hi) token ranges."""
    match = ref_matching_brackets(tokens)
    out = []
    todo = [(0, 0, len(tokens))]
    while todo:
        stage, lo, hi = todo.pop()
        if stage == 2:
            right, letter = out.pop(), out.pop()
            out[-1] = DecoratedTree(out[-1], letter, right)
        elif stage == 1:
            if lo >= hi or not tokens[lo].startswith("x"):
                raise ParseError(f"expected a letter in {''.join(tokens)!r}")
            out.append(int(tokens[lo][1:]))
            lo += 1
            if lo < hi and (tokens[lo] != "[" or match[lo] != hi - 1):
                raise ParseError(f"malformed parenthesis word {''.join(tokens)!r}")
            todo += ((2, lo, hi), (0, lo + 1, hi - 1) if lo < hi else (0, hi, hi))
        elif lo == hi:
            out.append(DLEAF)
        elif tokens[lo] == "[":
            todo += ((1, match[lo] + 1, hi), (0, lo + 1, match[lo]))
        else:
            todo += ((1, lo, hi), (0, lo, lo))
    return out[0]


def ref_left_comb(word):
    t = DLEAF
    for letter in reversed(tuple(word)):
        t = DecoratedTree(DLEAF, letter, t)
    return t


def ref_right_comb(word):
    t = DLEAF
    for letter in word:
        t = DecoratedTree(t, letter, DLEAF)
    return t


def ref_parse_word(text):
    out = []
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


def outcome(read, text):
    """What reading ``text`` gives: the polynomial, or the exception's type
    and message."""
    try:
        return read(text)
    except Exception as exc:  # the outcome under test, compared below
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# each loop equals its reference on random inputs

LOOP_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def trees_up_to_5(draw):
    n = draw(st.integers(0, 5))
    skel = draw(st.sampled_from(enumerate_trees(n)))
    return decorate(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), skel)


@LOOP_SETTINGS
@given(trees_up_to_5(), trees_up_to_5())
def test_shuffle_equals_its_recursive_definition(t1, t2):
    assert _shuffle_trees(t1, t2) == ref_shuffle_trees(t1, t2)
    if not t1.is_leaf:
        assert _prec_trees(t1, t2) == ref_prec_trees(t1, t2)
    if not t2.is_leaf:
        assert _succ_trees(t1, t2) == ref_succ_trees(t1, t2)


@LOOP_SETTINGS
@given(st.dictionaries(trees_up_to_5().filter(lambda t: not t.is_leaf),
                       st.fractions(-4, 4, max_denominator=6).filter(bool),
                       min_size=1, max_size=4))
def test_reader_reads_rendered_polynomials_like_its_reference(terms):
    text = render_polynomial(TreePolynomial(terms))
    assert parse_dendriform_expr(text) == RefExprParser(text).parse() == TreePolynomial(terms)


EXPR_TOKENS = ["x1", "x2", "x0", "(", ")", "<", ">", "+", "-", "*", "2", "1/3", "0", "1/0", "?"]


@LOOP_SETTINGS
@given(st.lists(st.sampled_from(EXPR_TOKENS), max_size=14), st.sampled_from(["", " "]))
def test_reader_reads_token_strings_like_its_reference(tokens, sep):
    text = sep.join(tokens)
    got = outcome(parse_dendriform_expr, text)
    want = outcome(lambda s: RefExprParser(s).parse(), text)
    if isinstance(want, tuple) and want[0] is ZeroDivisionError:  # Fraction's error
        assert got[0] is ParseError and got[1].startswith("zero denominator in '")
    else:
        assert got == want


def test_parenthesis_words_read_like_the_reference():
    # every token string of up to 8 tokens: the same tree, or the same
    # violated condition with the same message
    count = 0
    for n in range(9):
        for tokens in itertools.product(("x1", "x2", "[", "]"), repeat=n):
            text = "".join(tokens)
            got = outcome(delta_to_tree, text)
            want = outcome(lambda s: ref_delta_to_tree(ref_parse_parenthesis_word(s)), text)
            if isinstance(want, DecoratedTree):
                assert got is want, text
            else:
                assert got == want, text
                assert got[0] is ParseError
            count += 1
    assert count == 87_381


def test_combs_are_dyck_words():
    for n in range(9):
        for word in itertools.product((1, 2), repeat=n):
            assert left_comb(word) is decorate(word, "(" * n + ")" * n) is ref_left_comb(word)
            assert right_comb(word) is decorate(word, "()" * n) is ref_right_comb(word)


@LOOP_SETTINGS
@given(st.text("x0129y ", max_size=10))
def test_word_reader_reads_like_its_reference(text):
    assert outcome(parse_word, text) == outcome(ref_parse_word, text)


@pytest.mark.parametrize("text", ["1/0 * x1", "x1 + 0/0 * x2", "((x1<x2) > 3/0 * x1)"])
def test_zero_denominator_names_its_token(text):
    token = re.search(r"\d+/0", text).group(0)
    with pytest.raises(ParseError) as info:
        parse_dendriform_expr(text)
    assert str(info.value) == f"zero denominator in {token!r} in {text!r}"


def test_enumeration_equals_the_recursive_one():
    for n in range(11):
        assert enumerate_trees(n) == ref_enumerate(n)  # as Dyck words, in order


# ---------------------------------------------------------------------------
# deep operands

def x(i):
    return TreePolynomial.single(graft(DLEAF, i, DLEAF))


def test_shuffle_with_a_500_deep_comb():
    # one term per place of x2 on the left spine of the comb: the comb's top
    # i vertices, then x2 with the rest of the comb as its right subtree.
    # Every term has the foliation 2 1^500; the terms differ in shape.
    n = 500
    want = {}
    for i in range(n + 1):
        t = DecoratedTree(DLEAF, 2, right_comb((1,) * (n - i)))
        for _ in range(i):
            t = DecoratedTree(t, 1, DLEAF)
        want[t] = Fraction(1)
    assert shuffle(x(2), TreePolynomial.single(right_comb((1,) * n))) == TreePolynomial(want)
    assert len(want) == n + 1


def test_prec_with_a_500_deep_comb():
    # one term per place of x2 on the right spine of the comb, below its root
    n = 500
    want = {}
    for i in range(1, n + 1):
        t = DecoratedTree(left_comb((1,) * (n - i)), 2, DLEAF)
        for _ in range(i):
            t = DecoratedTree(DLEAF, 1, t)
        want[t] = Fraction(1)
    assert prec(TreePolynomial.single(left_comb((1,) * n)), x(2)) == TreePolynomial(want)
    assert len(want) == n


def test_reader_takes_3000_nested_products():
    n = 3000
    assert parse_dendriform_expr("(x1<" * n + "x1" + ")" * n) \
        == TreePolynomial.single(left_comb((1,) * (n + 1)))
    assert parse_dendriform_expr("(" * n + "x1" + ">x1)" * n) \
        == TreePolynomial.single(right_comb((1,) * (n + 1)))
