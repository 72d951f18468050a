import hashlib

import hypothesis
import hypothesis.strategies as st
import pytest

from banglab.reduction import FULL, subterms
from banglab.syntax import (Abs, App, Bang, Ctx, Der, Idx, Sub, Var,
                            children, close_var, enum_terms,
                            free_vars, gen_term, lam, esub, match_list_bang,
                            max_free_index, msubst, open_var, parse_context,
                            parse_term, plug, print_term, replace_at,
                            shift_free, subst_bound, subterm_at,
                            term_from_json, term_to_json, term_size,
                            ParseError, I, DELTA, OMEGA)

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


def test_index_maps_agree_on_small_terms():
    # Each law ties two leaf callbacks together, or one to the separate
    # recursion of max_free_index, so an off-by-one in the depth or cutoff
    # handling of any of them breaks one.  The subterms bring in dangling
    # indices, which enum_terms never yields.
    closed_args = (Var("y"), I, Bang(Var("x")))
    for t in {u for t in enum_terms(6) for _, u in subterms(t, FULL)}:
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
    # one node per level, plus the other child of each closure and application
    assert term_size(named) == 1 + DEEP + 2 * DEEP // 5


def test_free_vars_and_max_free_index_survive_deep_terms():
    binders = 2 * DEEP // 5
    named, dangling = _deep(Var("x")), _deep(Idx(binders + 3))
    assert free_vars(named) == {"x", "y"} and free_vars(dangling) == {"y"}
    assert max_free_index(named) == -1
    assert max_free_index(dangling) == 3 and max_free_index(dangling, 1) == 2


def test_plug():
    assert plug(parse_context("[] !y"), I) == p("(\\z.z) !y")
    assert plug(parse_context("der []"), p("!t")) == p("der !t")


def test_plug_captures():
    c = parse_context("(\\x.[]) s", "testing")
    assert plug(c, Var("x")) == p("(\\x.x) s")


def test_plug_testing_hole_in_function_position():
    c = parse_context("(\\x.[] u) v", "full")
    pos = c.hole_position()
    t = plug(c, Var("q"))
    assert subterm_at(t, pos) == Var("q")
    # the hole's image sits in function position of an application
    parent = subterm_at(t, pos[:-1])
    assert isinstance(parent, App) and pos[-1] == 0


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


def test_match_list_bang():
    c, s = match_list_bang(p("(!s)[y<-w]"))
    assert str(c) == "[][y<-w]" and s == Var("s")
    assert match_list_bang(p("\\x.!x")) is None
    c, s = match_list_bang(p("!s"))
    assert c.frames == () and s == Var("s")


def test_match_list_bang_roundtrip():
    for src in ["(!s)[y<-w]", "!s", "(!y)[y<-w]", "((!x)[x<-a])[x<-b]",
                "(!(x y))[x<-a][y<-b]"]:
        t = p(src)
        c, s = match_list_bang(t)
        assert plug(c, Bang(s)) == t


def test_match_list_bang_recovers_generated_contexts():
    from banglab.syntax import LIST, SubBody

    for seed in range(40):
        args = [gen_term(seed * 3 + k, 2 + (seed + k) % 3, "bang") for k in range(3)]
        names = ["u1", "u2", "u3"]
        layers = 1 + seed % 3
        L = Ctx(LIST, tuple(SubBody(names[i], args[i]) for i in range(layers)))
        s = gen_term(seed + 900, 3, "bang")
        got = match_list_bang(plug(L, Bang(s)))
        assert got is not None
        L2, s2 = got
        assert s2 == s and L2.frames == L.frames


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
    from banglab import cbnv

    t = gen_term(7, 10, "cbn-image")
    assert cbnv.in_image(cbnv.CBN, t)
    t = gen_term(7, 10, "cbv-image")
    assert cbnv.in_image(cbnv.CBV, t)


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
