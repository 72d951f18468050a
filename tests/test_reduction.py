import hashlib
import itertools
import operator
import time

import hypothesis
import hypothesis.strategies as st
import pytest

from banglab.cbnv import embed
from banglab.reduction import (CBN, CBV, DB_DBANG, FULL, SBANG_ONLY, SURFACE,
                               NfClass, Rule, _clash_shapes_at, _grammar_flags,
                               _rules, apply_redex,
                               classify, joinable, normalize, redexes,
                               reducts, restricted_step, step, static_clashes)
from banglab.syntax import (Abs, App, Bang, Der, Idx, OMEGA, Sub, Var,
                            children, enum_terms, free_vars, gen_term,
                            parse_term, print_term)

from _oracles import grammar_flags_ref, loose_of, subterm_at, subterms, term_size

p = parse_term
CLOSURES = (SURFACE, FULL, CBN, CBV)


def restart_oracle(t, closure, fuel):
    """Leftmost-outermost reduction that searches from the root after
    every step: (status, term, trace) as `normalize` must give them."""
    trace = []
    while (rs := redexes(t, closure)) and len(trace) < fuel:
        t = apply_redex(t, rs[0])
        trace.append((rs[0].rule, rs[0].position, t))
    return ("fuel-exhausted" if rs else "normalized"), t, trace


def same_term(t, u) -> bool:
    """== on terms without recursion: the Church normal forms below nest
    about 500 levels, past what dataclass equality survives."""
    stack = [(t, u)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b) or (type(a) in (Var, Idx) and a != b):
            return False
        stack += zip(children(a), children(b))
    return True


def assert_matches_oracle(t, closure, fuel, same=operator.eq):
    out = normalize(t, closure, fuel, keep_trace=True)
    status, nf, trace = restart_oracle(t, closure, fuel)
    assert (out.status, out.steps, len(out.trace)) == (status, len(trace), len(trace))
    for (rule, pos, u), (want_rule, want_pos, want) in zip(out.trace, trace):
        assert (rule, pos) == (want_rule, want_pos) and same(u, want)
    assert same(out.term, nf)


def test_subterms_walk_in_position_order():
    cases = [(t, closure) for t in enum_terms(6) for closure in (SURFACE, FULL)]
    cases += [(t, closure) for t in enum_terms(6, bang_free=True)
              for closure in (CBN, CBV)]
    for t, closure in cases:
        walked = list(subterms(t, closure))
        positions = [pos for pos, _ in walked]
        assert positions == sorted(set(positions)), (print_term(t), closure)
        assert all(subterm_at(t, pos) is u for pos, u in walked)
        if closure == FULL:
            assert len(walked) == term_size(t)
        if closure == SURFACE:
            assert not any(isinstance(subterm_at(t, pos[:i]), Bang)
                           for pos, _ in walked for i in range(len(pos)))


def test_redex_scans_survive_deep_terms():
    t = Bang(Var("x"))
    for _ in range(5000):
        t = Der(t)
    rs = redexes(t, FULL)
    assert [(r.position, r.rule, r.contractum) for r in rs] == [
        ((0,) * 4999, Rule.DBANG, Var("x"))]
    assert static_clashes(t, FULL) == []


def test_redex_scans_build_a_position_only_for_a_hit():
    # building every position made this scan quadratic in depth: 0.84 s
    t = Bang(Var("x"))
    for _ in range(20_000):
        t = Der(t)
    start = time.perf_counter()
    rs = redexes(t, FULL)
    scan_s = time.perf_counter() - start
    assert [(r.position, r.rule, r.contractum) for r in rs] == [
        ((0,) * 19_999, Rule.DBANG, Var("x"))]
    assert scan_s < 0.5, scan_s


def test_scans_report_the_positions_the_oracle_walk_reaches():
    cases = [(t, closure) for t in enum_terms(6) for closure in (SURFACE, FULL)]
    cases += [(t, closure) for t in enum_terms(6, bang_free=True)
              for closure in (CBN, CBV)]
    for t, closure in cases:
        rules = _rules(closure)
        assert [(r.position, r.rule, r.contractum) for r in redexes(t, closure)] == [
            (pos, *hit) for pos, u in subterms(t, closure) if (hit := rules(u))]
        assert static_clashes(t, closure) == [
            (pos, shape) for pos, u in subterms(t, closure) for shape in _clash_shapes_at(u)]


def test_normalize_survives_deep_terms():
    # a step is linear in depth: the restart-from-root loop took 2.3 s for
    # this normalize and 0.8 s for the one step
    t = App(p("\\z.z"), Bang(Var("y")))
    for _ in range(20_000):
        t = Abs("x", t)
    start = time.perf_counter()
    out = normalize(t, SURFACE)
    normalize_s = time.perf_counter() - start
    start = time.perf_counter()
    stepped = step(t, SURFACE)
    step_s = time.perf_counter() - start
    assert out.normalized and out.steps == 2
    assert normalize_s < 0.5 and step_s < 0.5, (normalize_s, step_s)
    # walk down by hand: ==, hash and print_term recurse
    u, v = out.term, stepped
    for _ in range(20_000):
        assert isinstance(u, Abs) and isinstance(v, Abs)
        u, v = u.body, v.body
    assert u == Var("y") and v == Sub("z", Idx(0), Bang(Var("y")))


def test_normalize_matches_the_oracle_exhaustive_small():
    for t, closure in itertools.product(enum_terms(5), CLOSURES):
        for fuel in (3, 50):
            assert_matches_oracle(t, closure, fuel)
        _, _, trace = restart_oracle(t, closure, 1)
        assert step(t, closure) == (trace[0][2] if trace else None)


def test_a_step_can_make_a_redex_at_a_distance_above_it():
    # the contractum lands in a closure body that an application's function,
    # a closure's argument or a dereliction's argument reaches at a distance
    for source, rules in (("((der !(\\a.a))[y<-z]) w", [Rule.DBANG, Rule.DB]),
                          ("x[x<-(der !!w)[y<-z]]", [Rule.DBANG, Rule.SBANG]),
                          ("der ((der !!w)[y<-z])", [Rule.DBANG, Rule.DBANG])):
        t = p(source)
        for closure in (SURFACE, FULL):
            assert [r for r, _, _ in normalize(t, closure, 10, keep_trace=True).trace] == rules
            assert_matches_oracle(t, closure, 10)


@hypothesis.given(st.integers(0, 10_000), st.integers(1, 16),
                  st.sampled_from(("raw", "bang", "cbn-image", "cbv-image")),
                  st.sampled_from(CLOSURES), st.integers(0, 60))
@hypothesis.settings(max_examples=150, deadline=None)
def test_normalize_matches_the_oracle_on_generated_terms(seed, size, profile,
                                                         closure, fuel):
    assert_matches_oracle(gen_term(seed, size, profile), closure, fuel)


def church(n):
    body = Idx(0)
    for _ in range(n):
        body = App(Idx(1), body)
    return Abs("f", Abs("x", body))


ARITHMETIC = {"add": "\\m.\\n.\\f.\\x.m f (n f x)", "mul": "\\m.\\n.\\f.m (n f)",
              "pow": "\\b.\\e.e b"}


@pytest.mark.parametrize("op, a, b", [("add", 64, 64), ("mul", 16, 16), ("pow", 2, 8)])
def test_normalize_matches_the_oracle_on_church_arithmetic(op, a, b):
    source = App(App(p(ARITHMETIC[op]), church(a)), church(b))
    for tag, closure in itertools.product((CBN, CBV), (FULL, SURFACE)):
        assert_matches_oracle(embed(tag, source), closure, 10_000, same_term)


# sha256 over the Church items above, each embedded by CBN and CBV and
# normalized under the full and the surface closure: the (rule, position)
# of every step, then the normal form in preorder (node kind, binder hint,
# name or index), written out without recursion.
REWRITE_DIGEST = "91384e4f4a78c6181522453c4677eb595166f4a92f7fda1b1aba2e0f4529aea7"


def _preorder(t):
    stack = [t]
    while stack:
        u = stack.pop()
        yield (type(u).__name__, getattr(u, "hint", None), getattr(u, "name", None),
               getattr(u, "k", None))
        stack += reversed(children(u))


def test_church_rewriting_is_pinned():
    h = hashlib.sha256()
    for op, a, b in (("add", 64, 64), ("mul", 16, 16), ("pow", 2, 8)):
        source = App(App(p(ARITHMETIC[op]), church(a)), church(b))
        for tag, closure in itertools.product((CBN, CBV), (FULL, SURFACE)):
            out = normalize(embed(tag, source), closure, 10_000, keep_trace=True)
            h.update(repr([(rule.value, pos) for rule, pos, _ in out.trace]).encode())
            h.update(repr(list(_preorder(out.term))).encode())
    assert h.hexdigest() == REWRITE_DIGEST


def test_rewriting_keeps_loose_right():
    # the walk builds every node of a trace with with_child, and the rules
    # with the index maps
    source = App(App(p(ARITHMETIC["add"]), church(64)), church(64))
    for tag, closure in itertools.product((CBN, CBV), (FULL, SURFACE)):
        out = normalize(embed(tag, source), closure, 10_000, keep_trace=True)
        seen, todo = set(), [u for _, _, u in out.trace]
        while todo:
            u = todo.pop()
            if id(u) not in seen:
                seen.add(id(u))
                assert u.loose == loose_of(u)
                todo += children(u)


def test_distance_redex():
    t = p("(\\x.x)[y<-w] !z")
    rs = redexes(t, SURFACE)
    assert [(r.rule, r.position) for r in rs] == [(Rule.DB, ())]
    assert apply_redex(t, rs[0]) == p("x[x<-!z][y<-w]")


def test_surface_vs_full():
    t = p("\\x.!(der !x)")
    assert redexes(t, SURFACE) == []
    assert [r.rule for r in redexes(t, FULL)] == [Rule.DBANG]
    assert redexes(Var("x"), SURFACE) == []


def test_three_step_chain():
    t = p("(\\x.!der !x) !y")
    t1 = step(t, SURFACE)
    assert t1 == p("(!der !x)[x<-!y]")
    t2 = step(t1, SURFACE)
    assert t2 == p("!(der !y)")
    assert step(t2, SURFACE) is None
    assert step(t2, FULL) == p("!y")


def test_step_by_index():
    t = p("(der !a) (der !b)")
    assert apply_redex(t, redexes(t, SURFACE)[1]) == p("(der !a) b")


def test_normalize_omega_exhausts():
    out = normalize(OMEGA, SURFACE, 100)
    assert out.status == "fuel-exhausted" and out.steps == 100


def test_normalize_frozen_body():
    t = Abs("x", Bang(App(p("der !x"), Var("x"))))  # \x.!((der !x) x)
    assert normalize(t, SURFACE, 50).normalized
    t2 = Abs("x", Bang(p("der !") if False else p("der !(\\x.x !x) !(\\x.x !x)")))
    # \x.!(der !Omega): surface normal, full diverges
    t3 = Abs("x", Bang(App(p("der !(\\x.x !x)"), Bang(p("\\x.x !x")))))
    del t2
    surf = normalize(t3, SURFACE, 60)
    assert surf.normalized and surf.steps == 0
    assert normalize(t3, FULL, 60).status == "fuel-exhausted"


def test_normalize_two_step():
    out = normalize(p("(\\z.z) !!u"), SURFACE, 10)
    assert out.normalized and out.steps == 2 and out.term == p("!u")


def test_trace_replays():
    t = p("(\\x.!der !x) !y")
    out = normalize(t, SURFACE, 10, keep_trace=True)
    current = t
    for rule, pos, after in out.trace:
        stepped = [apply_redex(current, r) for r in redexes(current, SURFACE)
                   if r.position == pos and r.rule == rule]
        assert stepped and after in stepped
        current = after
    assert current == out.term


def test_static_clashes():
    assert static_clashes(p("x !(y (\\z.z))"), SURFACE) == []
    full = static_clashes(p("x !(y (\\z.z))"), FULL)
    assert [shape for _, shape in full] == ["arg-abs-under-non-abs"]
    assert static_clashes(p("!s u"), SURFACE)[0][0] == ()
    assert static_clashes(p("x x"), SURFACE) == []
    assert [s for _, s in static_clashes(p("x[x<-\\y.y]"), SURFACE)] == ["abs-substituted"]
    assert [s for _, s in static_clashes(p("der (\\y.y)"), SURFACE)] == ["der-of-abs"]


def test_classify():
    assert classify(p("x x")) == NfClass.NE_S
    assert classify(p("x x")).in_no_s
    assert classify(p("!s u")) == NfClass.CLASH_NF
    assert classify(p("(\\x.x) !y")) == NfClass.NOT_NORMAL
    assert classify(p("!x")) == NfClass.NA_S
    assert classify(p("\\x.x")) == NfClass.NB_S


def test_grammar_flags_follow_the_grammar():
    for t in enum_terms(6):
        for _, u in subterms(t, FULL):
            assert _grammar_flags(u) == grammar_flags_ref(u), print_term(t)


def test_grammar_equivalence_exhaustive_small():
    for t in enum_terms(5):
        lhs = classify(t).in_no_s
        rhs = not redexes(t, SURFACE) and not static_clashes(t, SURFACE)
        assert lhs == rhs, print_term(t)


def test_clash_having_is_dynamically_stable():
    # a static clash can vanish for one step, but the reduct still
    # reduces to a clash
    t = p("(\\y.\\z.z) w (\\v.v)")
    assert static_clashes(t, SURFACE)
    for u in reducts(t, SURFACE):
        path = [u]
        while len(path) <= 50 and (nxt := step(path[-1], SURFACE)) is not None:
            path.append(nxt)
        assert any(static_clashes(v, SURFACE) for v in path), print_term(u)


def test_joinable():
    peak = p("(\\x.x !x) !((\\z.z) !y)")
    u1, u2 = reducts(peak, FULL)
    assert joinable(u1, u2, FULL, 8)
    assert joinable(Var("x"), Var("x"), SURFACE, 1)
    assert not joinable(Var("x"), Var("y"), SURFACE, 5)


def test_restricted_step():
    assert restricted_step(p("der !x"), DB_DBANG) == [Var("x")]
    assert restricted_step(p("y[x<-!z]"), SBANG_ONLY) == [Var("y")]
    assert restricted_step(Var("x"), DB_DBANG) == []


def test_diamond_small():
    for t in enum_terms(6):
        rs = restricted_step(t, DB_DBANG)
        if len(rs) < 2:
            continue
        onestep = {u: set(restricted_step(u, DB_DBANG)) for u in rs}
        for u1, u2 in itertools.combinations(rs, 2):
            assert onestep[u1] & onestep[u2], print_term(t)


@hypothesis.given(st.integers(0, 500), st.integers(2, 9))
@hypothesis.settings(max_examples=60, deadline=None)
def test_fv_never_grows(seed, size):
    t = gen_term(seed, size, "bang")
    for u in reducts(t, FULL):
        assert free_vars(u) <= free_vars(t)


@hypothesis.given(st.integers(0, 500), st.integers(2, 9))
@hypothesis.settings(max_examples=40, deadline=None)
def test_policy_independence_of_normal_forms(seed, size):
    # confluence makes the reached surface NF policy-independent
    t = gen_term(seed, size, "bang")
    out1 = normalize(t, SURFACE, 80)
    if not out1.normalized:
        return
    current, fuel = t, 200
    while fuel:
        rs = redexes(current, SURFACE)
        if not rs:
            break
        current = apply_redex(current, rs[-1])  # rightmost-innermost-ish
        fuel -= 1
    assert current == out1.term
