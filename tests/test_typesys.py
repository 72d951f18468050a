import copy
import hashlib
import itertools
import pickle

import hypothesis
import hypothesis.strategies as st
import pytest

from banglab import reduction, typesys
from banglab.syntax import Abs, App, Bang, Idx, Var, enum_terms, gen_term, parse_term
from banglab.typesys import (Arrow, B, Bounds, Derivation, EMPTY_ENV,
                             EMPTY_MULTI, Env, Judgment, Multi, N, TVar, V,
                             args, canonical_nf_derivation, canon_typing,
                             check_derivation, env_sum, find_derivation,
                             grid_typing_set, multi, nf_shape, on_grid,
                             parse_type, print_type, rename_tvars, typable,
                             typing_pairs,
                             typing_transport_check, typings_enumerate,
                             untypable_certificate, RuleViolation, _ENVS,
                             _MULTIS, _is_opened, _opening, _pairs)

p = parse_term
a, b = TVar("a"), TVar("b")


def test_multitype_canonical_order():
    assert multi(Arrow(multi(a), b), multi(a)) == multi(multi(a), Arrow(multi(a), b))
    assert multi(a, a) != multi(a)  # non-idempotent
    assert print_type(multi(Arrow(multi(a), b), multi(a))) == "[[a], [a] -> b]"


def test_type_parse_print():
    assert parse_type("[a] -> [a]") == Arrow(multi(a), multi(a))
    assert parse_type("[]") == EMPTY_MULTI
    for s in ["a", "[a, b] -> c", "[[a] -> b] -> [a] -> b", "[[], [a]]"]:
        ty = parse_type(s)
        assert parse_type(print_type(ty)) == ty


def test_env_sum():
    e = Env.of({"x": multi(a)})
    assert env_sum([e, e]) == Env.of({"x": multi(a, a)})
    assert env_sum([]) == EMPTY_ENV
    assert env_sum([EMPTY_ENV, e]) == e
    assert env_sum([e, Env.of({"y": multi(b)})]).domain() == ("x", "y")
    # empty multitypes are dropped from the domain
    assert Env.of({"x": EMPTY_MULTI}) == EMPTY_ENV


def test_env_sum_within_card():
    e = Env.of({"x": multi(a), "y": multi(b)})
    assert env_sum([e, e], 2) is Env.of({"x": multi(a, a), "y": multi(b, b)})
    assert env_sum([e, e, e], 2) is None
    assert env_sum([Env.of({"x": multi(a, a, b)})], 2) is None
    assert env_sum([EMPTY_ENV, e], 1) is e
    assert env_sum([], 0) is EMPTY_ENV


def test_env_rejects_a_repeated_name():
    for items in ((("x", multi(a)), ("x", multi(b))),
                  (("y", multi(a)), ("x", multi(a)), ("x", multi(a))),
                  (("x", EMPTY_MULTI), ("x", multi(a)))):
        with pytest.raises(ValueError, match="env binds x more than once"):
            Env(items)
    assert Env((("y", multi(b)), ("x", multi(a)))).domain() == ("x", "y")


def _seed_key(t):
    """The sort key multitype elements were ordered by before types were
    interned, kept as the reference for the order of Multi.elems."""
    match t:
        case TVar(name):
            return (0, name)
        case Multi(elems):
            return (1, tuple(_seed_key(e) for e in elems))
        case Arrow(dom, cod):
            return (2, _seed_key(dom), _seed_key(cod))
    raise TypeError(t)


def _compound(kids):
    multis = st.lists(kids, max_size=3).map(lambda es: Multi(tuple(es)))
    return multis | st.builds(Arrow, multis, kids)


_types = st.recursive(st.sampled_from("abc").map(TVar), _compound, max_leaves=8)


@hypothesis.given(st.lists(_types, max_size=4))
@hypothesis.settings(max_examples=200, deadline=None)
def test_multitype_order_is_the_seed_key_order(elems):
    m = Multi(tuple(elems))
    assert m.elems == tuple(sorted(elems, key=_seed_key))
    assert m is Multi(tuple(reversed(elems)))


def test_equal_values_are_one_object():
    arr = Arrow(multi(a, b), a)
    assert multi(arr, a, b) is multi(b, arr, a) is Multi((a, b, arr))
    assert Multi(elems=(b, a)) is Multi([a, b])
    assert parse_type("[b, a] -> a") is arr
    assert parse_type("[[b] -> b]") is multi(Arrow(multi(b), b))
    assert rename_tvars(arr, {"a": "b", "b": "a"}) is Arrow(multi(a, b), b)
    assert TVar("a") is a
    e = Env.of({"y": multi(b), "x": multi(a)})
    assert Env((("x", multi(a)), ("y", multi(b)))) is e
    assert Env((("y", multi(b)), ("z", EMPTY_MULTI), ("x", multi(a)))) is e
    assert Env.of({"x": multi(a)}).add("y", multi(b)) is e
    assert e.add("x", multi(a)) is Env.of({"x": multi(a, a), "y": multi(b)})
    assert env_sum([Env.of({"y": multi(b)}), Env.of({"x": multi(a)})]) is e
    assert e.without("z") is e and e.without("y") is Env.of({"x": multi(a)})
    env, ty = canon_typing((Env.of({"x": multi(b)}), b))
    assert env is Env.of({"x": multi(a)}) and ty is a
    env, ty = canon_typing((Env.of({"x": multi(TVar("c"))}), TVar("d")))
    assert env is Env.of({"x": multi(a)}) and ty is b


def test_reprs_are_the_dataclass_reprs():
    assert repr(Env.of({"x": multi(Arrow(EMPTY_MULTI, a))})) == (
        "Env(items=(('x', Multi(elems=(Arrow(dom=Multi(elems=()), cod=TVar(name='a')),))),))")
    match Arrow(multi(a), b):
        case Arrow(Multi((TVar(x),)), TVar(y)):
            assert (x, y) == ("a", "b")
        case _:
            pytest.fail("positional patterns no longer match")
    with pytest.raises(AttributeError):
        a.name = "b"


def test_copies_and_pickles_are_the_interned_object():
    arr = Arrow(multi(a, b), multi(a))
    for v in (a, EMPTY_MULTI, arr, multi(arr, a), EMPTY_ENV, Env.of({"x": multi(arr)})):
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        assert pickle.loads(pickle.dumps(v)) is v
    pair = (Env.of({"x": multi(a)}), arr)
    assert copy.deepcopy(pair) == pair
    assert pickle.loads(pickle.dumps(pair))[1] is arr


def test_intern_tables_hold_nodes_weakly():
    elems = (TVar("w0"), TVar("w1"))
    m = Multi(elems)
    env = Env.of({"w": m})
    assert _MULTIS[elems]() is m and _ENVS[env.items]() is env
    items = env.items
    del env
    assert items not in _ENVS and elems in _MULTIS
    del items, m
    assert elems not in _MULTIS


def test_deep_types_build_hash_and_compare():
    def deep(leaf):
        ty = leaf
        for _ in range(5_000):
            ty = Arrow(multi(ty), ty)
        return ty

    t, u = deep(a), deep(b)
    assert t._depth == 10_001
    assert t is deep(a) and t != u
    assert hash(t) == hash(deep(a)) and {t: 1}[deep(a)] == 1
    assert Env.of({"x": multi(t)}) is Env.of({"x": multi(deep(a))})


# sha256 of the reprs of the _pairs tables, in enum_terms order: B over
# enum_terms(4), then N and V over its bang-free terms.  It pins the
# typings, their order in each table and the repr format.
PAIRS_DIGEST = "be8261409c4e6193ac456c3a440bb3a6296e3a8f5f3409698a76bc286de7f5b0"


def test_typing_tables_are_pinned():
    h = hashlib.sha256()
    for sys, bang_free in ((B, False), (N, True), (V, True)):
        for t in enum_terms(4, bang_free=bang_free):
            h.update(repr(_pairs(sys, t, Bounds())).encode())
    assert h.hexdigest() == PAIRS_DIGEST


def test_opened_binder_names():
    assert _is_opened("%0") and _is_opened("%12")
    assert not any(_is_opened(n) for n in ("%", "x", "x%0", "%x", "%1a", ""))
    assert _opening(p("\\x. %0 x")) == "%1"


def _assert_grid_table_exact(sys, t, bounds=Bounds()):
    """The grid table is the full table less the typings with a deep
    binding of a name that is not a binder name, and grid_typing_set
    reads the same grid off either table."""
    limit = bounds.depth - 1
    full = typing_pairs(sys, t, bounds)
    kept = {q for q in full
            if all(m._depth <= limit or _is_opened(n) for n, m in q[0].items)}
    assert set(_pairs(sys, t, bounds, True)) == kept, (sys, t)
    on_full_grid = frozenset(canon_typing(q) for q in full if on_grid(q, limit))
    assert grid_typing_set(sys, t, bounds) == on_full_grid, (sys, t)


@pytest.mark.parametrize("src", ["\\x. %0 x", "%0 (\\x. x x)", "%0 %1 y", "\\x. y (x %0)"])
def test_grid_table_with_a_free_binder_name(src):
    for sys in (B, N, V):
        _assert_grid_table_exact(sys, p(src))


@hypothesis.given(st.integers(0, 10_000), st.integers(1, 5),
                  st.sampled_from(["raw", "bang", "cbn-image", "cbv-image"]))
@hypothesis.settings(max_examples=40, deadline=None)
def test_grid_table_matches_the_full_table(seed, size, profile):
    t = gen_term(seed, size, profile)
    for sys in (B, N, V):
        _assert_grid_table_exact(sys, t)


def test_args():
    tau, m = TVar("t"), multi(TVar("m"))
    assert args(B, Arrow(multi(tau), Arrow(m, multi(a)))) == [multi(tau), m]
    assert args(B, multi(a)) == []
    sigma = TVar("s")
    assert args(N, Arrow(multi(sigma), sigma)) == []  # identity type observable
    assert args(N, Arrow(multi(sigma), TVar("r"))) == [multi(sigma)]
    assert args(V, multi(a)) == []


def self_application_derivation():
    m = multi(a)
    arr = Arrow(m, b)
    vf = Derivation(B, "var", Judgment(Env.of({"x": multi(arr)}), Var("x"), arr))
    va = Derivation(B, "var", Judgment(Env.of({"x": multi(m)}), Var("x"), m))
    return Derivation(B, "app",
                      Judgment(Env.of({"x": multi(arr, m)}), p("x x"), b), (vf, va))


def test_self_application_derivation_checks():
    assert check_derivation(self_application_derivation()) is None


def test_boxed_identity_derivation_checks():
    vd = Derivation(B, "var", Judgment(Env.of({"v": multi(a)}), Var("v"), a))
    bd = Derivation(B, "bang", Judgment(Env.of({"v": multi(a)}), Bang(Var("v")),
                                        multi(a)), (vd,))
    ad = Derivation(B, "abs", Judgment(EMPTY_ENV, p("\\x.!x"),
                                       Arrow(multi(a), multi(a))), (bd,), binder="v")
    assert check_derivation(ad) is None


def test_corrupted_der_arity_rejected():
    inner = Derivation(B, "var", Judgment(Env.of({"x": multi(multi(a, a))}),
                                          Var("x"), multi(a, a)))
    bad = Derivation(B, "der", Judgment(Env.of({"x": multi(multi(a, a))}),
                                        p("der x"), a), (inner,))
    report = check_derivation(bad)
    assert report is not None and "singleton" in report


def test_unknown_system_rejected():
    d = Derivation("Q", "var", Judgment(Env.of({"x": multi(a)}), Var("x"), a))
    assert check_derivation(d) == "root: unknown system 'Q'"


def test_wrong_env_sum_rejected():
    d = self_application_derivation()
    bad = Derivation(B, "app", Judgment(Env.of({"x": multi(Arrow(multi(a), b))}),
                                        p("x x"), b), d.premises)
    assert check_derivation(bad) is not None


def test_enumeration_sound_and_two_resource_shaped():
    n = 0
    for (env, _), derivation in typings_enumerate(B, p("x x")):
        n += 1
        assert check_derivation(derivation()) is None
        assert env.domain() == ("x",)
        mt = env.get("x")
        assert len(mt) == 2
        arrows = [e for e in mt.elems if isinstance(e, Arrow)]
        assert any(e.dom == other for e in arrows for other in mt.elems
                   if other != e or mt.elems.count(e) > 1)
    assert n


def test_enumeration_relevance():
    # no weakening anywhere: each node's env is the rule-computed sum
    for s in ["x x", "\\x.!x", "der !x", "(\\x.x) !y", "x[x<-!y]"]:
        for _, derivation in typings_enumerate(B, p(s)):
            assert check_derivation(derivation()) is None


def test_derivations_conclude_exactly_the_typing_pairs():
    # the stream yields the typings of the table in its order, each with a
    # sound derivation of it (98,648 derivations), and for every typing of
    # the 502 tables with at most 50 typings (2,024 calls) the derivation
    # find_derivation builds for the first typing of its canonical class
    for sys in (B, N, V):
        for t in enum_terms(4):
            first, typings = {}, []
            for typing, derivation in typings_enumerate(sys, t):
                d = derivation()
                assert d.conclusion.typing == typing and check_derivation(d) is None, (sys, t)
                first.setdefault(canon_typing(typing), d)
                typings.append(typing)
            assert typings == list(_pairs(sys, t, Bounds())), (sys, t)
            if len(typings) <= 50:
                for typing in typings:
                    assert find_derivation(sys, t, typing) == first[canon_typing(typing)], (sys, t)
    # the bang is typed on demand at [[a] -> a], a level deeper than its own table
    arr = Arrow(multi(a), a)
    deep = (Env.of({"y": multi(arr)}), arr)
    t = p("x[x<-!y]")
    assert find_derivation(B, t, deep) == next(
        derivation() for typing, derivation in typings_enumerate(B, t)
        if canon_typing(typing) == deep)
    assert find_derivation(B, p("\\x.x"), (EMPTY_ENV, a)) is None


# sha256 of the reprs of find_derivation for every typing of the tables of
# enum_terms(4) with at most 50 typings, in table order, in B, N and V
# (2,024 calls).  It pins the derivation chosen for each typing.
DERIVATIONS_DIGEST = "1e6d04e33d4ac08a73e0dbda1f3287a87dbd4e5bd21e403fd2d8d6481c0f97bf"


def test_derivations_are_pinned():
    h = hashlib.sha256()
    for sys in (B, N, V):
        for t in enum_terms(4):
            pairs = _pairs(sys, t, Bounds())
            if len(pairs) > 50:
                continue
            for pair in pairs:
                h.update(repr(find_derivation(sys, t, pair)).encode())
    assert h.hexdigest() == DERIVATIONS_DIGEST


def test_opening_is_fresh_for_free_percent_names():
    # \x. x %0 is \x. x y with y renamed: opening its binder must not
    # capture the free %0
    t = Abs("x", App(Idx(0), Var("%0")))

    def renamed(pair):
        env, ty = pair
        return Env(tuple(("%0" if n == "y" else n, m) for n, m in env.items)), ty

    for sys in (B, N, V):
        assert typing_pairs(sys, t) == {renamed(q) for q in typing_pairs(sys, p("\\x. x y"))}, sys
        checked = [check_derivation(derivation()) is None
                   for _, derivation in typings_enumerate(sys, t)]
        assert checked and all(checked), sys
    assert _opening(App(Var("%0"), Var("%2"))) == "%3"


def test_bang_always_empty_typable():
    assert any(typing == (EMPTY_ENV, EMPTY_MULTI) for typing, _ in typings_enumerate(B, p("!u")))
    # the banged subterm may itself be untypable
    assert (EMPTY_ENV, EMPTY_MULTI) in typing_pairs(B, Bang(p("!s u")))


def test_omega_has_no_typings():
    from banglab.syntax import OMEGA

    assert next(typings_enumerate(B, OMEGA), None) is None


def test_boxed_identity_arrow_typing_found():
    target = (EMPTY_ENV, Arrow(multi(a), multi(a)))
    assert any(typing == target for typing, _ in typings_enumerate(B, p("\\x.!x")))


def test_n_system_identity():
    # the identity receives [[a] -> a] -> [a] -> a in the CBN system
    arr = Arrow(multi(a), a)
    target = canon_typing((EMPTY_ENV, Arrow(multi(arr), arr)))
    assert any(canon_typing(typing) == target
               for typing, _ in typings_enumerate(N, p("\\x.x")))


def test_v_system_abs_empty_family():
    # any abstraction types with the empty multitype, body untyped
    assert any(typing == (EMPTY_ENV, EMPTY_MULTI)
               for typing, _ in typings_enumerate(V, p("\\x.x x")))


def _record_draws(monkeypatch) -> list:
    """Wrap typesys._rules so that the returned list records each subject
    when its first rule instance is drawn, not when its generator is made."""
    drawn, rules = [], typesys._rules

    def recording(sys, t, *rest):
        for i, instance in enumerate(rules(sys, t, *rest)):
            if i == 0:
                drawn.append(t)
            yield instance
    monkeypatch.setattr(typesys, "_rules", recording)
    return drawn


@pytest.mark.parametrize("sys, src, typing, premise", [
    # the bang rule's empty family
    (B, "!(x (y !x))", (EMPTY_ENV, EMPTY_MULTI), "x (y !x)"),
    # V abstraction's empty family, over the opened body
    (V, "\\x. x (y x)", (EMPTY_ENV, EMPTY_MULTI), "%0 (y %0)"),
    # a bang argument demanded at []
    (B, "x !(y (w !y))", (Env.of({"x": multi(Arrow(EMPTY_MULTI, a))}), a), "y (w !y)"),
])
def test_the_empty_family_reads_no_premise(monkeypatch, sys, src, typing, premise):
    drawn = _record_draws(monkeypatch)
    ds = typings_enumerate(sys, p(src))
    assert next(ds)[0] == typing
    assert p(premise) not in drawn
    for _ in ds:
        pass
    assert p(premise) in drawn  # the premise has instances, drawn once asked for


def _fail_once(monkeypatch, subject) -> None:
    """Wrap typesys._rules so that the next rule stream of `subject`
    raises after its first instance."""
    rules, armed = typesys._rules, [True]

    def failing(sys, t, *rest):
        instances = rules(sys, t, *rest)
        if t == subject and armed[0]:
            armed[0] = False
            yield next(instances)
            raise RuntimeError("injected")
        yield from instances
    monkeypatch.setattr(typesys, "_rules", failing)


def test_a_failed_stream_leaves_no_short_table(monkeypatch):
    # a producer that raises drops its table and the tables above it, and a
    # derivation scan that raises drops itself, so the next reader starts
    # them again instead of reading a table or scan cut short
    t, arg = p("y7 (y7 !z7)"), p("y7 !z7")
    want = [typing for typing, _ in typings_enumerate(B, t)]
    _fail_once(monkeypatch, arg)
    with pytest.raises(RuntimeError, match="injected"):
        _pairs(B, t, Bounds())
    assert list(_pairs(B, t, Bounds())) == want
    assert typing_pairs(B, arg) == {typing for typing, _ in typings_enumerate(B, arg)}

    stream = typings_enumerate(B, t)
    typing, derivation = list(itertools.islice(stream, 3))[-1]
    _fail_once(monkeypatch, t)  # the root's next rule stream is the scan's
    with pytest.raises(RuntimeError, match="injected"):
        derivation()
    d = derivation()
    assert d.conclusion.typing == typing and check_derivation(d) is None
    stream.close()


def test_v_var_whole_multitype():
    assert (Env.of({"x": multi(a, b)}), multi(a, b)) in typing_pairs(V, Var("x"))
    assert (EMPTY_ENV, EMPTY_MULTI) in typing_pairs(V, Var("x"))


def test_typable():
    assert typable(p("x x")) == "yes"
    assert typable(p("!s u")) == "no"
    from banglab.syntax import OMEGA

    assert typable(OMEGA, fuel=100) == "unknown"


# sha256 of the reprs of canonical_nf_derivation over the clash-free
# normal forms of enum_terms(6), in enumeration order.
CANON_DIGEST = "e4883d8e4b32bedfd9036e3ba4205837fd72f05bd604add8a9089164b628795f"


def test_canonical_nf_derivations_are_pinned():
    h = hashlib.sha256()
    for t in enum_terms(6):
        if reduction.classify(t).in_no_s:
            h.update(repr(canonical_nf_derivation(t)).encode())
    assert h.hexdigest() == CANON_DIGEST


def test_typable_agrees_with_enumeration_small():
    for t in enum_terms(4):
        verdict = typable(t, 100)
        if verdict == "yes":
            out = reduction.normalize(t, reduction.SURFACE, 100)
            assert check_derivation(canonical_nf_derivation(out.term)) is None
        elif verdict == "no":
            assert next(typings_enumerate(B, t), None) is None


def test_untypable_certificate_sound():
    for t in enum_terms(4):
        if untypable_certificate(t):
            assert typable(t, 100) != "yes"
            assert next(typings_enumerate(B, t), None) is None


def test_transport_examples():
    assert typing_transport_check(p("der !x"), Var("x"))
    assert typing_transport_check(p("(\\z.z) !!u"), p("z[z<-!!u]"))
    assert typing_transport_check(Var("x"), Var("x"))


@hypothesis.given(st.integers(0, 400))
@hypothesis.settings(max_examples=30, deadline=None)
def test_transport_sampled(seed):
    t = gen_term(seed, 4 + seed % 5, "bang")
    if typable(t, 100) != "yes":
        return
    for u in reduction.reducts(t, reduction.FULL):
        assert typing_transport_check(t, u) or typing_transport_check(
            t, u, Bounds(card=3, pool=2, depth=3))


def test_nf_shape():
    assert nf_shape(EMPTY_MULTI, p("!u")) == "must-bang"
    d = next(derivation() for typing, derivation in typings_enumerate(B, p("\\x.!x"))
             if typing == (EMPTY_ENV, Arrow(multi(a), multi(a))))
    assert nf_shape(Arrow(multi(a), multi(a)), p("\\x.!x"), d) == "must-abs"


def test_nf_shape_rejects_fake_evidence():
    fake = Derivation(B, "bang", Judgment(EMPTY_ENV, p("\\x.x"), EMPTY_MULTI))
    with pytest.raises(RuleViolation):
        nf_shape(EMPTY_MULTI, p("\\x.x"), fake)
    with pytest.raises(RuleViolation):
        nf_shape(EMPTY_MULTI, p("\\x.x"))
