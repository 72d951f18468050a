import hashlib

import hypothesis
import hypothesis.strategies as st
import pytest

from banglab.reduction import FULL, NfClass, classify
from banglab.syntax import (Abs, App, Bang, Der, HOLE, Idx, Sub, Var,
                            children, close_var, enum_terms,
                            free_vars, gen_term, lam, esub, open_var,
                            parse_context, parse_term, plug, print_term,
                            replace_at, shift_free, subst_bound,
                            term_to_json, with_child,
                            ParseError, I, DELTA, OMEGA)

from _oracles import (loose_of, max_free_index, msubst, open_var_ref, shift_free_ref,
                      subst_bound_ref, subterms, term_from_json, term_size)

p = parse_term


def test_parse_delta():
    assert p("\\x. x !x") == lam("x", App(Var("x"), Bang(Var("x")))) == DELTA


def test_parse_atom():
    assert p("x") == Var("x")


def test_parse_distance_example():
    t = p("(\\x.x)[y<-w] !z")
    assert t == App(esub("y", lam("x", Var("x")), Var("w")), Bang(Var("z")))


def test_parse_errors_have_position():
    with pytest.raises(ParseError) as e:
        p("\\x.")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        p("x[<-u]")
    # open terms are fine
    assert p("y z") == App(Var("y"), Var("z"))


def test_print_examples():
    assert print_term(Bang(Var("y"))) == "!y"
    assert print_term(Der(Bang(Var("x")))) == "der !x"
    assert print_term(OMEGA) == "(\\x. x !x) !(\\x. x !x)"


def test_print_parse_roundtrip_corpus():
    for s in ["x", "\\x. x !x", "(\\x.x)[y<-w] !z", "der (x y)", "!x[y<-z]",
              "x der y", "(\\x.\\y.x y) (der !z)", "x[x<-y[y<-!z]]"]:
        t = p(s)
        assert p(print_term(t)) == t


def test_alpha_eq():
    assert p("\\x.x") == p("\\y.y")
    assert p("\\x.x y") == p("\\z.z y")
    assert p("\\x.x") != p("\\x.y")


def test_alpha_classes_hashable():
    assert len({p("\\x.x"), p("\\y.y"), p("\\x.y")}) == 2


def test_free_vars():
    assert free_vars(p("\\x.x !x")) == frozenset()
    assert free_vars(p("x[x<-!y]")) == {"y"}
    assert free_vars(p("x !x")) == {"x"}
    # fv(t[x<-u]) = fv(u) u (fv(t) minus x)
    assert free_vars(p("(x y)[x<-z]")) == {"y", "z"}


def test_msubst():
    assert msubst(p("x !x"), "x", I) == p("(\\z.z) !(\\z.z)")
    assert msubst(p("y[y<-x]"), "x", p("!z")) == p("y[y<-!z]")


def test_msubst_capture_avoided():
    # \y.x with x := y must not capture
    t = msubst(p("\\y.x"), "x", Var("y"))
    assert t == Abs("w", Var("y"))
    assert free_vars(t) == {"y"}


def test_msubst_identity_when_not_free():
    t = p("\\x.x !y")
    assert msubst(t, "z", OMEGA) == t


def _grid():
    """Every subterm of enum_terms(6): the subterms bring in dangling
    indices, which enum_terms never yields."""
    return {u for t in enum_terms(6) for _, u in subterms(t, FULL)}


def test_loose_is_one_past_the_largest_dangling_index():
    for t in _grid():
        assert t.loose == loose_of(t), t


def test_loose_is_not_part_of_a_term():
    t, u = p("\\x. x y"), p("\\x. x y")
    object.__setattr__(u, "loose", 7)
    assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
    assert "loose" not in repr(Sub("s", Idx(3), Bang(Der(App(Idx(1), Var("y"))))))
    for kind in (Var, Idx, Abs, App, Sub, Bang, Der):
        assert "loose" not in kind.__match_args__


def test_index_maps_agree_on_small_terms():
    # Each law ties two leaf callbacks together, or one to the separate
    # recursion of max_free_index, so an off-by-one in the depth or cutoff
    # handling of any of them breaks one.
    closed_args = (Var("y"), I, Bang(Var("x")))
    for t in _grid():
        top = max_free_index(t)
        assert max_free_index(shift_free(t, 1)) == (top + 1 if top >= 0 else top)
        for c in (0, 1):
            assert shift_free(shift_free(t, 2, c), -2, c) == t
            assert shift_free(t, 1, c) == subst_bound(t, Idx(1), 2, c)
        assert subst_bound(t, Var("z"), 1) == open_var(t, "z")
        if top < 0:
            assert open_var(close_var(t, "x"), "x") == t
            for u in closed_args:
                assert msubst(t, "x", u) == subst_bound(close_var(t, "x"), u, 1)


def test_skipping_index_maps_equal_the_full_walk():
    # The skip of map_leaves is exact: every index map gives what visiting
    # every leaf gives.
    args = (Var("z"), Idx(0), App(Idx(1), Var("y")), I)
    for t in _grid():
        for c in (0, 1):
            for delta in (1, 2):
                assert shift_free(t, delta, c) == shift_free_ref(t, delta, c)
            assert open_var(t, "z", c) == open_var_ref(t, "z", c)
            for u in args:
                for layers in (0, 1, 2):
                    assert subst_bound(t, u, layers, c) == subst_bound_ref(t, u, layers, c)


@hypothesis.given(st.integers(0, 10_000), st.integers(2, 14),
                  st.sampled_from(("raw", "bang", "cbn-image", "cbv-image")),
                  st.integers(0, 3), st.integers(1, 3), st.integers(0, 2))
def test_index_maps_equal_the_full_walk_on_generated_bodies(seed, size, profile, cutoff,
                                                            delta, layers):
    # The bodies of abstractions and closures hold dangling indices, which
    # the locally closed terms gen_term yields do not.
    t = gen_term(seed, size, profile)
    bodies = [u.body for _, u in subterms(t, FULL) if type(u) in (Abs, Sub)]
    for b in bodies:
        assert shift_free(b, delta, cutoff) == shift_free_ref(b, delta, cutoff)
        assert open_var(b, "z", cutoff) == open_var_ref(b, "z", cutoff)
        for u in (Var("z"), Idx(0), App(Idx(1), Var("y"))):
            assert subst_bound(b, u, layers, cutoff) == subst_bound_ref(b, u, layers, cutoff)


def test_index_maps_share_what_they_cannot_change():
    # A copy of an unchanged node passes every equality test, so sharing is
    # checked by identity.
    for t in _grid():
        for c in range(4):
            got = shift_free(t, 1, c)
            if t.loose <= c:
                assert got is t
            elif type(t) in (App, Sub):
                # a child that holds no index the map reaches is the input's
                depths = (c + 1 if type(t) is Sub else c, c)
                for old, new, d in zip(children(t), children(got), depths):
                    assert (new is old) == (old.loose <= d), (t, c)
        assert close_var(t, "q") is t
    t = App(Abs("a", Idx(1)), Abs("b", App(Idx(0), Var("y"))))
    got = shift_free(t, 2)
    assert got == App(Abs("a", Idx(3)), t.arg) and got.arg is t.arg


def test_with_child_rebuilds_only_a_changed_child():
    new = Var("z")
    for t in (Abs("a", Idx(0)), App(Var("x"), Var("y")), Sub("s", Idx(0), Var("y")),
              Bang(Var("x")), Der(Var("x"))):
        kids = children(t)
        for i, kid in enumerate(kids):
            assert with_child(t, i, kid) is t
            got = with_child(t, i, new)
            assert type(got) is type(t) and getattr(got, "hint", None) == getattr(t, "hint", None)
            assert children(got) == kids[:i] + (new,) + kids[i + 1:]
            assert all(a is b for j, (a, b) in enumerate(zip(children(got), kids)) if j != i)
    for leaf in (Var("x"), Idx(0), HOLE):
        with pytest.raises(TypeError):
            with_child(leaf, 0, new)


def test_subst_bound_splices_one_copy_per_depth():
    # two occurrences of the substituted binder under one binder, two under two
    body = Abs("a", App(App(Idx(1), Idx(1)), Abs("b", App(Idx(2), Idx(2)))))
    got = subst_bound(body, App(Idx(0), Var("y")), 1)
    (first, second), (third, fourth) = children(got.body.fun), children(got.body.arg.body)
    assert first is second and third is fourth and first is not third
    assert first == App(Idx(1), Var("y")) and third == App(Idx(2), Var("y"))


DEEP = 10_000


def _deep(leaf):
    """`leaf` under DEEP nodes: abstractions, closures, applications, bangs
    and derelictions in turn, with the leaf always in the first child."""
    wraps = (lambda t: Abs("a", t), lambda t: Sub("s", t, Var("y")),
             lambda t: App(t, Var("y")), Bang, Der)
    for i in range(DEEP):
        leaf = wraps[i % len(wraps)](leaf)
    return leaf


def _spine(t):
    """The node kinds and other children along the first-child path, and
    the leaf at its end.  Iterative: ==, hash and print_term recurse."""
    path = []
    while children(t):
        path.append((type(t), children(t)[1:]))
        t = children(t)[0]
    return path, t


def test_index_maps_survive_deep_terms():
    binders = 2 * DEEP // 5
    dangling, named = _deep(Idx(binders)), _deep(Var("x"))
    shape, _ = _spine(named)
    cases = [(shift_free(dangling, 1), Idx(binders + 1)),
             (close_var(named, "x"), Idx(binders)),
             (open_var(dangling, "x"), Var("x")),
             (msubst(named, "x", Var("z")), Var("z")),
             (subst_bound(dangling, Var("z"), 1), Var("z")),
             (replace_at(named, (0,) * DEEP, Var("z")), Var("z"))]
    for got, leaf in cases:
        assert _spine(got) == (shape, leaf)
        assert got.loose == loose_of(got)
    # one node per level, plus the other child of each closure and application
    assert term_size(named) == 1 + DEEP + 2 * DEEP // 5


def test_classify_survives_deep_terms():
    chain = Var("x")  # y (y (... x)): a neutral term DEEP applications deep
    for _ in range(DEEP):
        chain = App(Var("y"), chain)
    spine = Var("x")  # abstractions and closures on z in turn
    for i in range(DEEP):
        spine = Abs("a", spine) if i % 2 else Sub("s", spine, Var("z"))
    # the same spine around a bang applied to a variable
    clash = replace_at(spine, (0,) * DEEP, App(Bang(Var("x")), Var("y")))
    assert classify(chain) == NfClass.NE_S
    assert classify(spine) == NfClass.NB_S
    assert classify(clash) == NfClass.CLASH_NF


def test_free_vars_and_max_free_index_survive_deep_terms():
    binders = 2 * DEEP // 5
    named, dangling = _deep(Var("x")), _deep(Idx(binders + 3))
    assert free_vars(named) == {"x", "y"} and free_vars(dangling) == {"y"}
    assert max_free_index(named) == -1
    assert max_free_index(dangling) == 3 and max_free_index(dangling, 1) == 2
    assert (named.loose, dangling.loose) == (loose_of(named), loose_of(dangling)) == (0, 4)


def test_plug():
    assert plug(parse_context("[] !y"), I) == p("(\\z.z) !y")
    assert plug(parse_context("der []"), p("!t")) == p("der !t")


def test_plug_captures():
    c = parse_context("(\\x.[]) s", "testing")
    assert plug(c, Var("x")) == p("(\\x.x) s")


def test_plug_testing_hole_in_function_position():
    c = parse_context("(\\x.[] u) v", "full")
    # the hole's image sits in function position of an application
    assert plug(c, Var("q")) == p("(\\x.q u) v")


def test_testing_context_grammar_enforced():
    parse_context("[] s", "testing")
    parse_context("(\\x.[]) s", "testing")
    with pytest.raises(ValueError):
        parse_context("x []", "testing")
    with pytest.raises(ValueError):
        parse_context("\\x.[]", "testing")
    with pytest.raises(ValueError):
        parse_context("![]", "surface")
    parse_context("![]", "full")


def test_gen_term_deterministic():
    assert gen_term(1, 3) == gen_term(1, 3)
    assert gen_term(1, 3, "raw") == gen_term(1, 3, "raw")


def test_gen_term_size_one_is_variable():
    for seed in range(10):
        assert isinstance(gen_term(seed, 1), Var)


# sha256 of the reprs (binder hints included) of gen_term over every
# profile, sizes 1-20 and seeds 0-99.  The benchmark's meaning items and
# the sampled suites are drawn from it.
GEN_DIGEST = "5ef6da234b76c5b4a634e6a151f723507c4e073727b2c84f9c7fff5920a59326"


def test_gen_term_is_pinned():
    h = hashlib.sha256()
    for profile in ("raw", "bang", "cbn-image", "cbv-image"):
        for size in range(1, 21):
            for seed in range(100):
                h.update(repr(gen_term(seed, size, profile)).encode())
    assert h.hexdigest() == GEN_DIGEST


def test_gen_term_images():
    from banglab.cbnv import CBN, CBV, embed, unembed

    for tag, profile in ((CBN, "cbn-image"), (CBV, "cbv-image")):
        t = gen_term(7, 10, profile)
        assert embed(tag, unembed(tag, t)) == t


def test_enum_terms_small():
    assert list(enum_terms(0)) == []
    assert set(enum_terms(1, ("x",))) == {Var("x")}
    got = {print_term(t) for t in enum_terms(2, ("x",))}
    assert got == {"x", "\\x. x", "\\x1. x", "!x", "der x"}


def test_enum_terms_unique_mod_alpha():
    seen = list(enum_terms(4))
    assert len(seen) == len(set(seen))
    assert all(term_size(t) <= 4 for t in seen)


def test_json_roundtrip():
    for s in ["\\x. x !x", "(\\x.x)[y<-w] !z", "der !x"]:
        t = p(s)
        assert term_from_json(term_to_json(t)) == t


@hypothesis.given(st.integers(0, 10_000), st.integers(1, 12))
def test_print_parse_roundtrip_generated(seed, size):
    t = gen_term(seed, size, "raw")
    assert p(print_term(t)) == t


@hypothesis.given(st.integers(0, 2_000), st.integers(1, 10))
def test_msubst_fresh_var_is_identity(seed, size):
    t = gen_term(seed, size, "bang")
    assert msubst(t, "zz_unused", I) == t
