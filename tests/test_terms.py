from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from leibnil import terms
from leibnil.algebra import algebra_from_constants, full_ideal
from leibnil.fields import QQ
from leibnil.linalg import vector, zero_vector
from leibnil.terms import (
    ExprSyntaxError,
    Leaf,
    LinComb,
    Node,
    RightWord,
    evaluate,
    leaves,
    lincomb,
    measures,
    normalize,
    parse,
    potential,
    psom_expand,
    tree_text,
)

from .conftest import FIXTURE_NAMES
from .strategies import trees, vectors


def as_right_word(t):
    """The tree as a right word, or None if any right child is internal."""
    rev = []
    while isinstance(t, Node):
        if not isinstance(t.right, Leaf):
            return None
        rev.append(t.right)
        t = t.left
    rev.append(t)
    return RightWord(tuple(reversed(rev)))


def _rewrite_leftmost_innermost(t):
    """One rewrite x*(y*z) -> (x*y)*z, (x*z)*y at the leftmost-innermost redex."""
    if isinstance(t, Leaf):
        return None
    sub = _rewrite_leftmost_innermost(t.left)
    if sub is not None:
        return Node(sub[0], t.right), Node(sub[1], t.right)
    sub = _rewrite_leftmost_innermost(t.right)
    if sub is not None:
        return Node(t.left, sub[0]), Node(t.left, sub[1])
    if isinstance(t.right, Node):
        x, y, z = t.left, t.right.left, t.right.right
        return Node(Node(x, y), z), Node(Node(x, z), y)
    return None


def rewrite_normal_form(t):
    """Reference normal form: rewrite one redex at a time until only right
    words remain, checking that every step lowers the termination measure."""
    acc = {}
    stack = [(1, t)]
    while stack:
        coeff, tree = stack.pop()
        w = as_right_word(tree)
        if w is not None:
            acc[w] = acc.get(w, 0) + coeff
            continue
        phi = potential(tree)
        plus, minus = _rewrite_leftmost_innermost(tree)
        assert potential(plus) < phi and potential(minus) < phi
        stack.append((coeff, plus))
        stack.append((-coeff, minus))
    return lincomb(acc)


def nf6_sl2():
    """NF_6 plus an sl_2 summand (dim 9 over Q): deep products that do not all vanish."""
    constants = [(i, 1, i + 1, QQ.one) for i in range(1, 6)]
    h, e, f = 7, 8, 9
    constants += [(h, e, e, QQ.from_int(2)), (e, h, e, QQ.from_int(-2)),
                  (h, f, f, QQ.from_int(-2)), (f, h, f, QQ.from_int(2)),
                  (e, f, h, QQ.one), (f, e, h, QQ.from_int(-1))]
    return algebra_from_constants("NF6+sl2", 9, QQ, constants)


def word(*labels):
    return RightWord(tuple(
        Leaf(lbl[:-1], True) if lbl.endswith("!") else Leaf(lbl) for lbl in labels))


class TestParse:
    def test_single_generator(self):
        assert parse("a") == Leaf("a")

    def test_star_is_left_associative(self):
        assert parse("a*b*c") == Node(Node(Leaf("a"), Leaf("b")), Leaf("c"))

    def test_explicit_brackets(self):
        assert parse("[a,[b,c]]") == Node(Leaf("a"), Node(Leaf("b"), Leaf("c")))

    def test_parens_only_group(self):
        assert parse("(a*b)*c") == parse("a*b*c")
        assert parse("a*(b*c)") == Node(Leaf("a"), Node(Leaf("b"), Leaf("c")))

    def test_tag_suffix(self):
        assert parse("a!") == Leaf("a", in_b=True)
        assert parse("ab_1!*x") == Node(Leaf("ab_1", in_b=True), Leaf("x"))

    @pytest.mark.parametrize("bad", ["", "   ", "a**b", "[a,b", "a)", "*a",
                                     "[a;b]", "a*(b", "a b"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprSyntaxError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("a*;b")
        assert exc.value.position == 2


class TestMeasures:
    def test_plain_leaf(self):
        assert measures(Leaf("a")) == (1, 0)

    def test_tagged_counting(self):
        assert measures(parse("a!*x*b!")) == (3, 2)

    def test_split_bookkeeping(self):
        # length of Q0*(P) equals length(Q0) + length(P), leaves are disjoint
        q0, p = parse("q*r"), parse("a*b*c")
        combined = Node(q0, p)
        assert measures(combined)[0] == measures(q0)[0] + measures(p)[0]


class TestRightWords:
    def test_round_trip_through_tree(self):
        w = word("a", "b!", "c")
        assert as_right_word(w.as_tree()) == w

    def test_non_right_tree_is_rejected(self):
        assert as_right_word(parse("a*(b*c)")) is None

    def test_potential_zero_iff_right_word(self):
        assert potential(parse("a*b*c*d")) == 0
        assert potential(parse("a*(b*c)")) > 0

    @given(trees())
    def test_potential_zero_characterizes_right_words(self, t):
        assert (potential(t) == 0) == (as_right_word(t) is not None)


class TestNormalize:
    def test_right_word_is_a_fixed_point(self):
        assert normalize(parse("a*b*c")) == lincomb({word("a", "b", "c"): 1})

    def test_basic_rewrite(self):
        assert str(normalize(parse("a*(b*c)"))) == "+1*[a,b,c] -1*[a,c,b]"

    def test_length_four_expansion(self):
        # derived by applying the rewrite twice by hand; cross-checked below
        # against the evaluation oracle
        got = normalize(parse("x*(a3*a2*a1)")).as_dict()
        assert got == {
            word("x", "a3", "a2", "a1"): 1,
            word("x", "a2", "a3", "a1"): -1,
            word("x", "a1", "a3", "a2"): -1,
            word("x", "a1", "a2", "a3"): 1,
        }

    def test_repeated_generators_cancel(self):
        # a*(a*a) -> [a,a,a] - [a,a,a] = 0
        assert normalize(parse("a*(a*a)")).is_zero()

    @given(trees())
    def test_output_words_preserve_length_weight_multiset(self, t):
        length, weight = measures(t)
        multiset = Counter((leaf.name, leaf.in_b) for leaf in leaves(t))
        combo = normalize(t)
        for w, coeff in combo.terms:
            assert coeff != 0
            assert w.length == length and w.weight == weight
            assert Counter((leaf.name, leaf.in_b) for leaf in w.factors) == multiset

    @given(trees(max_leaves=7))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_rewriter(self, t):
        assert normalize(t) == rewrite_normal_form(t)

    def test_right_nested_length_seven_matches_the_rewriter(self):
        t = parse("a*(b*(c*(d*(e*(f*g)))))")
        combo = normalize(t)
        assert len(combo.terms) == 2 ** 5
        assert combo == rewrite_normal_form(t)

    @given(trees())
    def test_terms_are_sorted_and_unique(self, t):
        combo = normalize(t)
        keys = [w.sort_key() for w, _ in combo.terms]
        assert keys == sorted(keys) and len(keys) == len(set(keys))


class TestLinComb:
    def test_zero_prints_as_zero(self):
        assert str(lincomb({})) == "0"

    def test_sum_and_difference_cancel(self):
        a = normalize(parse("a*(b*c)"))
        assert (a - a).is_zero()
        assert (a + a).scale(0).is_zero()

    def test_scale_collects(self):
        a = lincomb({word("a", "b"): 2})
        assert a.scale(3).as_dict() == {word("a", "b"): 6}


class TestPsomExpand:
    def test_single_factor_base_case(self):
        terms = psom_expand(parse("q*r"), word("a"))
        assert len(terms) == 1
        assert terms[0].sign == 1 and terms[0].p_word is None
        assert terms[0].tree == Node(parse("q*r"), Leaf("a"))

    def test_two_factor_signs(self):
        q0 = Leaf("q")
        terms = psom_expand(q0, word("a2", "a1"))
        assert [t.sign for t in terms] == [1, -1]
        assert [t.label for t in terms] == ["Q0*P1*a1", "Q1*a2"]
        # Q0 P1 a1 = ((q a2) a1); Q1 a2 = -((q a1) a2)
        assert terms[0].tree == parse("q*a2*a1")
        assert terms[1].tree == parse("q*a1*a2")

    def test_three_factor_structure(self):
        terms = psom_expand(Leaf("q"), word("a3", "a2", "a1"))
        assert [t.sign for t in terms] == [1, -1, 1]
        assert terms[0].tree == Node(Node(Leaf("q"), parse("a3*a2")), Leaf("a1"))
        assert terms[1].tree == Node(Node(parse("q*a1"), Leaf("a3")), Leaf("a2"))
        assert terms[2].tree == parse("q*a1*a2*a3")

    def _signed_sum(self, terms):
        total = lincomb({})
        for t in terms:
            total = total + normalize(t.tree).scale(t.sign)
        return total

    @given(trees(max_leaves=4), st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_expansion_agrees_with_normalize(self, q0, m, data):
        names = data.draw(st.lists(st.sampled_from(list("abcde")),
                                   min_size=m, max_size=m))
        tags = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        p0 = RightWord(tuple(Leaf(n, b) for n, b in zip(names, tags)))
        whole = normalize(Node(q0, p0.as_tree()))
        assert self._signed_sum(psom_expand(q0, p0)) == whole

    @given(trees(max_leaves=3), st.data())
    @settings(max_examples=40)
    def test_split_equations_hold_structurally(self, q0, data):
        m = data.draw(st.integers(min_value=1, max_value=5))
        p0 = RightWord(tuple(
            Leaf(data.draw(st.sampled_from(list("abc"))), data.draw(st.booleans()))
            for _ in range(m)))
        whole_len, whole_wt = measures(Node(q0, p0.as_tree()))
        for term in psom_expand(q0, p0):
            q_len, q_wt = measures(term.q_tree)
            a_wt = 1 if term.a_leaf.in_b else 0
            if term.p_word is None:
                assert whole_len == q_len + 1
                assert whole_wt == q_wt + a_wt
            else:
                assert whole_len == q_len + term.p_word.length + 1
                assert whole_wt == q_wt + term.p_word.weight + a_wt


class TestEvaluate:
    def test_leaf_returns_assignment(self, l2):
        v = vector(QQ, [1, 2])
        assert evaluate(Leaf("a"), {"a": v}, l2.algebra) == v

    def test_l2_cube_vanishes_both_ways(self, l2):
        alg = l2.algebra
        e1 = vector(QQ, [1, 0])
        t = parse("a*(a*a)")
        assert evaluate(t, {"a": e1}, alg).is_zero()
        assert evaluate(normalize(t), {"a": e1}, alg).is_zero()

    def test_h3_example(self, h3):
        alg = h3.algebra
        env = {"x": vector(QQ, [1, 0, 0]), "y": vector(QQ, [0, 1, 0])}
        t = parse("x*(y*x)")
        assert evaluate(t, env, alg).is_zero()
        assert evaluate(normalize(t), env, alg).is_zero()

    def test_unassigned_generator_rejected(self, l2):
        with pytest.raises(ValueError):
            evaluate(parse("a*b"), {"a": vector(QQ, [1, 0])}, l2.algebra)

    def test_tagged_generator_checked_against_ideal(self, a2):
        alg = a2.algebra
        ideal = a2.ideals["span_e2"]
        inside = {"b": vector(QQ, [0, 1])}
        outside = {"b": vector(QQ, [1, 0])}
        evaluate(parse("b!"), inside, alg, ideal=ideal)
        with pytest.raises(ValueError):
            evaluate(parse("b!"), outside, alg, ideal=ideal)

    def test_repeated_leaves_raise_the_first_error(self, a2):
        alg, ideal = a2.algebra, a2.ideals["span_e2"]
        e1, e2 = vector(QQ, [1, 0]), vector(QQ, [0, 1])
        t = parse("a*b!*c*b!*c*a*b!*c")
        for form in (t, normalize(t)):
            with pytest.raises(ValueError, match="^generator 'c' has no assignment$"):
                evaluate(form, {"a": e1, "b": e2}, alg, ideal=ideal)
            with pytest.raises(ValueError, match="^generator 'b' is tagged but its value "
                                                 "is outside the ideal$"):
                evaluate(form, {"a": e1, "b": e1, "c": e1}, alg, ideal=ideal)

    def test_each_tagged_leaf_is_tested_once(self, a2, monkeypatch):
        alg, ideal = a2.algebra, a2.ideals["span_e2"]
        calls = []

        def counting_contains(space, v):
            calls.append(v)
            return True

        monkeypatch.setattr(terms, "contains", counting_contains)
        env = {"a": vector(QQ, [1, 0]), "b": vector(QQ, [0, 1]), "c": vector(QQ, [0, 2])}
        t = parse("[a!,[b!,c]]*[b!,[a,c!]]*b!")
        lc = normalize(t)
        assert len(lc.terms) > 1
        for form in (t, lc):
            calls.clear()
            evaluate(form, env, alg, ideal=ideal)
            # one test per distinct tagged leaf a!, b!, c!; untagged a and c need none
            assert len(calls) == 3 and all(v in calls for v in env.values())

    @pytest.fixture
    def bracket_calls(self, monkeypatch):
        calls = []
        real_bracket = terms.bracket

        def counting_bracket(x, y, alg):
            calls.append((x, y))
            return real_bracket(x, y, alg)

        monkeypatch.setattr(terms, "bracket", counting_bracket)
        return calls

    @pytest.mark.parametrize("form", [
        "a*(b*c)",
        "x*(a3*a2*a1)",
        "a*(b*(c*(d*(e*(f*g)))))",
        "[a!,[b!,c]]*[b!,[a,c!]]*b!",
    ])
    def test_one_bracket_per_distinct_prefix(self, h3, bracket_calls, form):
        combo = normalize(parse(form))
        prefixes = {w.factors[:k] for w, _ in combo.terms for k in range(2, w.length + 1)}
        env = {n: vector(QQ, [1, i, 2]) for i, n in enumerate("abcdefgx")}
        env.update({f"a{i}": vector(QQ, [i, 0, 1]) for i in (1, 2, 3)})
        evaluate(combo, env, h3.algebra)
        assert len(bracket_calls) == len(prefixes)

    def test_prefixes_shared_across_word_lengths(self, h3, bracket_calls):
        combo = lincomb({word("a"): 1, word("a", "b"): 2, word("a", "b", "c"): -1,
                         word("a", "c"): 1, word("b", "a"): 1})
        env = {"a": vector(QQ, [1, 0, 0]), "b": vector(QQ, [0, 1, 0]),
               "c": vector(QQ, [1, 1, 1])}
        expected = self._per_word_fold(combo, env, h3.algebra)
        bracket_calls.clear()
        assert evaluate(combo, env, h3.algebra) == expected
        # prefixes [a,b], [a,b,c], [a,c], [b,a]
        assert len(bracket_calls) == 4
        # unsorted terms share less but give the same value
        shuffled = LinComb(tuple(reversed(combo.terms)))
        assert evaluate(shuffled, env, h3.algebra) == expected

    @staticmethod
    def _per_word_fold(combo, env, alg):
        f = alg.field
        acc = zero_vector(f, alg.dim)
        for w, coeff in combo.terms:
            acc = acc + terms._eval_tree(w.as_tree(), env, alg).scale(f.from_int(coeff))
        return acc

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_prefix_sharing_matches_per_word_fold(self, algebras, data):
        alg = algebras[data.draw(st.sampled_from(["h3", "l2"]))].algebra
        combo = normalize(data.draw(trees(max_leaves=7)))
        names = {leaf.name for w, _ in combo.terms for leaf in w.factors}
        env = {n: data.draw(vectors(field=QQ, dim=alg.dim)) for n in names}
        assert evaluate(combo, env, alg) == self._per_word_fold(combo, env, alg)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_coordinate_sum_matches_vector_fold(self, algebras, data):
        # hand-built combinations: repeated and unsorted words, zero coefficients
        # and zero coordinates, which a normalized LinComb never holds all of
        name = data.draw(st.sampled_from(["h3", "l2", "NF6+sl2"]))
        alg = nf6_sl2() if name == "NF6+sl2" else algebras[name].algebra
        words = st.lists(st.sampled_from("abc"), min_size=1, max_size=6).map(
            lambda labels: word(*labels))
        terms_ = data.draw(st.lists(st.tuples(words, st.integers(-3, 3)),
                                    min_size=1, max_size=8))
        combo = LinComb(tuple(terms_ + terms_[:data.draw(st.integers(0, len(terms_)))]))
        zero = zero_vector(QQ, alg.dim)
        env = {n: data.draw(st.one_of(st.just(zero), vectors(field=QQ, dim=alg.dim)))
               for n in "abc"}
        assert evaluate(combo, env, alg) == self._per_word_fold(combo, env, alg)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_normalization_oracle(self, algebras, data):
        # evaluate(t) == evaluate(normalize(t)) in every bundled algebra
        name = data.draw(st.sampled_from(FIXTURE_NAMES))
        alg = algebras[name].algebra
        t = data.draw(trees())
        env = {n: data.draw(vectors(field=QQ, dim=alg.dim))
               for n in {leaf.name for leaf in leaves(t)}}
        assert evaluate(t, env, alg) == evaluate(normalize(t), env, alg)


def test_tree_text_round_trips_through_parse():
    t = parse("x*(a!*b)*[c,d]")
    assert parse(tree_text(t)) == t
