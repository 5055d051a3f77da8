"""Free bracket terms and right-normed normal forms.

A term is a binary tree over named generators; a `!` suffix on a generator
marks it as belonging to the distinguished ideal, which is purely syntactic
bookkeeping for length/weight tracking. Normalization writes a term in the
basis of right words (((s_m s_{m-1}) s_{m-2}) ... ) s_1 of the free right
Leibniz algebra (Loday-Pirashvili) by operator expansion: the identity
x*(y*z) = (x*y)*z - (x*z)*y turns right multiplication by any tree into a
signed sum of sequences of generators. Evaluating a tree node by node in a
concrete algebra provides an independent oracle for the normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebra import AlgebraDef, bracket
from .linalg import Subspace, Vector, contains


@dataclass(frozen=True)
class Leaf:
    name: str
    in_b: bool = False

    def label(self) -> str:
        return self.name + ("!" if self.in_b else "")


@dataclass(frozen=True)
class Node:
    left: "ProductTree"
    right: "ProductTree"


ProductTree = Leaf | Node


def leaves(t: ProductTree) -> list[Leaf]:
    """The leaves of t in order, walking each left spine and stacking right subtrees."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        while isinstance(t, Node):
            stack.append(t.right)
            t = t.left
        out.append(t)
    return out


def measures(t: ProductTree) -> tuple[int, int]:
    """(length, weight): leaf count and tagged-leaf count."""
    ls = leaves(t)
    return len(ls), sum(1 for leaf in ls if leaf.in_b)


def tree_text(t: ProductTree) -> str:
    if isinstance(t, Leaf):
        return t.label()
    return f"[{tree_text(t.left)},{tree_text(t.right)}]"


@dataclass(frozen=True)
class RightWord:
    """The right product (((f_0 f_1) f_2) ... ) f_{k-1}, factors outermost-last."""

    factors: tuple[Leaf, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a right word needs at least one factor")

    @property
    def length(self) -> int:
        return len(self.factors)

    @property
    def weight(self) -> int:
        return sum(1 for leaf in self.factors if leaf.in_b)

    def as_tree(self) -> ProductTree:
        t: ProductTree = self.factors[0]
        for leaf in self.factors[1:]:
            t = Node(t, leaf)
        return t

    def sort_key(self) -> tuple[tuple[str, bool], ...]:
        return tuple((leaf.name, leaf.in_b) for leaf in self.factors)

    def label(self) -> str:
        return "[" + ",".join(leaf.label() for leaf in self.factors) + "]"


@dataclass(frozen=True)
class LinComb:
    """Integer combination of right words; no zero coefficients, terms sorted."""

    terms: tuple[tuple[RightWord, int], ...]

    def as_dict(self) -> dict[RightWord, int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LinComb") -> "LinComb":
        acc = dict(self.terms)
        for word, coeff in other.terms:
            acc[word] = acc.get(word, 0) + coeff
        return lincomb(acc)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + other.scale(-1)

    def scale(self, c: int) -> "LinComb":
        if c == 0:
            return lincomb({})
        return LinComb(tuple((w, c * k) for w, k in self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " ".join(f"{coeff:+d}*{word.label()}" for word, coeff in self.terms)


def lincomb(mapping: Mapping[RightWord, int]) -> LinComb:
    items = [(w, c) for w, c in mapping.items() if c != 0]
    items.sort(key=lambda item: item[0].sort_key())
    return LinComb(tuple(items))


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_PUNCT = set("*[](),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(("punct", ch, i))
            i += 1
            continue
        if ch.isalpha():
            start = i
            i += 1
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            if i < len(text) and text[i] == "!":
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, text, at = self.peek()
        if kind != "punct" or text != value:
            raise ExprSyntaxError(f"expected {value!r}", at)
        self.advance()

    def expr(self) -> ProductTree:
        # '*' is left-associative: a*b*c is the right product ((a b) c)
        t = self.term()
        while self.peek()[:2] == ("punct", "*"):
            self.advance()
            t = Node(t, self.term())
        return t

    def term(self) -> ProductTree:
        kind, text, at = self.peek()
        if kind == "ident":
            self.advance()
            if text.endswith("!"):
                return Leaf(text[:-1], in_b=True)
            return Leaf(text)
        if kind == "punct" and text == "[":
            self.advance()
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            return Node(left, right)
        if kind == "punct" and text == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ExprSyntaxError("expected a generator, '[' or '('", at)


def parse(text: str) -> ProductTree:
    """Parse a bracket expression into a product tree.

    Grammar: expr := term ('*' term)*, term := IDENT | '[' expr ',' expr ']'
    | '(' expr ')'; IDENT is [A-Za-z][A-Za-z0-9_]* with an optional '!'
    suffix marking the distinguished-ideal tag.
    """
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text)
    try:
        tree = parser.expr()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", parser.peek()[2]) from None
    kind, tok, at = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tok!r}", at)
    return tree


def _leaf_count(t: ProductTree) -> int:
    if isinstance(t, Leaf):
        return 1
    return _leaf_count(t.left) + _leaf_count(t.right)


def potential(t: ProductTree) -> int:
    """Termination measure of the rewrite x*(y*z) -> (x*y)*z - (x*z)*y:
    the sum over internal nodes of C(#leaves(right), 2).

    Rewriting drops the measure by exactly #y * #z >= 1 in both replacement
    terms, and the measure is zero exactly on right words. The tests'
    one-redex-at-a-time reference rewriter asserts that drop at every step,
    and the benchmark's rewrite workload caps the shapes it draws by it.
    """
    if isinstance(t, Leaf):
        return 0
    r = _leaf_count(t.right)
    return potential(t.left) + potential(t.right) + r * (r - 1) // 2


def _operator(t: ProductTree) -> dict[tuple[Leaf, ...], int]:
    """Right multiplication by t as a signed sum of letter sequences.

    x*t is the sum of c * (...((x s_1) s_2) ... s_k) over the items (s, c).
    The identity x*(y*z) = (x*y)*z - (x*z)*y says R_[y,z] = R_y R_z - R_z R_y,
    read left to right, and R_a of a generator is the single letter a.
    """
    if isinstance(t, Leaf):
        return {(t,): 1}
    acc: dict[tuple[Leaf, ...], int] = {}
    right = _operator(t.right)
    for sy, cy in _operator(t.left).items():
        for sz, cz in right.items():
            c = cy * cz
            acc[sy + sz] = acc.get(sy + sz, 0) + c
            acc[sz + sy] = acc.get(sz + sy, 0) - c
    return {s: c for s, c in acc.items() if c}


def _left_spine(t: ProductTree) -> tuple[Leaf, list[ProductTree]]:
    """The leftmost leaf of t and the right subtrees along its left spine, innermost first."""
    rights = []
    while isinstance(t, Node):
        rights.append(t.right)
        t = t.left
    rights.reverse()
    return t, rights


def _words(t: ProductTree) -> dict[tuple[Leaf, ...], int]:
    """N(t): every word of N(left) extended by every sequence of R_right, folded
    along the left spine in a loop, so a long left-nested term does not recurse."""
    first, rights = _left_spine(t)
    words: dict[tuple[Leaf, ...], int] = {(first,): 1}
    for r in rights:
        acc: dict[tuple[Leaf, ...], int] = {}
        right = _operator(r)
        for w, cw in words.items():
            for s, cs in right.items():
                acc[w + s] = acc.get(w + s, 0) + cw * cs
        words = acc
    return words


def normalize(t: ProductTree) -> LinComb:
    """Right-normed normal form of a tree as an integer combination.

    Computed by operator expansion (`_operator`, `_words`). Right words are
    a basis of the free right Leibniz algebra (Loday-Pirashvili), so this is
    the unique expansion of t in that basis, the one any order of applying
    the identity reaches.

    Every output word has the same length, weight and leaf multiset as the
    input; equal words collect and may cancel. A term of length n >= 2 has
    at most 2^(n-2) words, as many as a right-nested term has, since R_t of
    m leaves has at most 2^(m-1) sequences; callers cap the length.
    """
    return lincomb({RightWord(w): c for w, c in _words(t).items()})


@dataclass(frozen=True)
class PsomTerm:
    """One summand of the right-word expansion of Q_0 * P_0.

    The expansion of a product Q_0 with a right word P_0 = a_m ... a_1 is
    sum over i of (Q_{i-1} P_i) a_i plus Q_{m-1} a_m, where Q_i = -Q_{i-1} a_i;
    the sign of Q_{i-1} is carried explicitly and the tree is unsigned.
    """

    sign: int
    q_tree: ProductTree
    p_word: RightWord | None
    a_leaf: Leaf
    label: str

    @property
    def tree(self) -> ProductTree:
        if self.p_word is None:
            return Node(self.q_tree, self.a_leaf)
        return Node(Node(self.q_tree, self.p_word.as_tree()), self.a_leaf)


def psom_expand(q0: ProductTree, p0: RightWord) -> list[PsomTerm]:
    """Expand Q_0 * P_0 into its m summands; their signed normal forms sum to
    normalize(Q_0 * P_0)."""
    m = p0.length
    terms: list[PsomTerm] = []
    q_tree: ProductTree = q0
    sign = 1
    for i in range(1, m):
        a_i = p0.factors[m - i]
        p_i = RightWord(p0.factors[: m - i])
        terms.append(PsomTerm(sign, q_tree, p_i, a_i, f"Q{i - 1}*P{i}*a{i}"))
        q_tree = Node(q_tree, a_i)
        sign = -sign
    terms.append(PsomTerm(sign, q_tree, None, p0.factors[0], f"Q{m - 1}*a{m}"))
    return terms


def _check_assignment(form: ProductTree | LinComb, assignment: Mapping[str, Vector],
                      ideal: Subspace | None) -> None:
    if isinstance(form, LinComb):
        all_leaves = [leaf for word, _ in form.terms for leaf in word.factors]
    else:
        all_leaves = leaves(form)
    for leaf in dict.fromkeys(all_leaves):
        if leaf.name not in assignment:
            raise ValueError(f"generator {leaf.name!r} has no assignment")
        if ideal is not None and leaf.in_b and not contains(ideal, assignment[leaf.name]):
            raise ValueError(
                f"generator {leaf.name!r} is tagged but its value is outside the ideal")


def _eval_tree(t: ProductTree, assignment: Mapping[str, Vector], alg: AlgebraDef) -> Vector:
    """Bracket t node by node, left before right, looping along each left spine."""
    first, rights = _left_spine(t)
    value = assignment[first.name]
    for r in rights:
        value = bracket(value, _eval_tree(r, assignment, alg), alg)
    return value


def evaluate(form: ProductTree | LinComb, assignment: Mapping[str, Vector],
             alg: AlgebraDef, ideal: Subspace | None = None) -> Vector:
    """Evaluate a tree or a combination of right words in a concrete algebra.

    A combination keeps the partial products of the previous word and
    brackets only the factors after the prefix the two words share, so
    sorted words cost one bracket per distinct prefix, and sums the scaled
    words into one coordinate list. A tree is evaluated node by node,
    independently of `normalize`, which makes it the oracle for the normal
    form. With `ideal` given, tagged generators must be assigned vectors
    inside it.
    """
    _check_assignment(form, assignment, ideal)
    if isinstance(form, LinComb):
        f = alg.field
        acc = [f.zero] * alg.dim
        prev: tuple[Leaf, ...] = ()
        partial: list[Vector] = []  # partial[i]: value of the first i + 1 factors
        for word, coeff in form.terms:
            factors = word.factors
            keep = 0
            while keep < len(prev) and keep < len(factors) and prev[keep] == factors[keep]:
                keep += 1
            del partial[keep:]
            if not partial:
                partial.append(assignment[factors[0].name])
            for leaf in factors[len(partial):]:
                partial.append(bracket(partial[-1], assignment[leaf.name], alg))
            prev = factors
            c = f.from_int(coeff)
            for i, a in enumerate(partial[-1].coords):
                if a:
                    acc[i] = f.add(acc[i], f.mul(c, a))
        return Vector(f, tuple(acc))
    return _eval_tree(form, assignment, alg)
