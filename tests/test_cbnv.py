import hashlib
import itertools

import hypothesis
import hypothesis.strategies as st
import pytest

from banglab import reduction
from banglab.cbnv import (CBN, CBV, c_meaningful, embed, embed_ctx, is_cterm,
                          require_cterm, simulate_check,
                          transfer_check, unembed)
from banglab.meaning import Budgets, genericity_check, meaningful
from banglab.reduction import Rule, normalize, restricted_step, step
from banglab.syntax import (FULL, Abs, AbsBody, App, AppArg, AppFun, Ctx,
                            SubArg, SubBody, Var, close_var,
                            enum_terms, gen_term, parse_context, parse_term,
                            plug, print_term)
from banglab.typesys import B, Bounds, N, V, _pairs, grid_typing_set

p = parse_term
T0 = p("(\\x.y x x) ((\\z.z) (\\z.z))")
T1 = p("y ((\\z.z) (\\z.z)) ((\\z.z) (\\z.z))")
T2 = p("y (\\z.z) (\\z.z)")
OMEGA_C = p("(\\x.x x) (\\x.x x)")


def test_cterm_fragment():
    assert is_cterm(T0) and not is_cterm(p("!x")) and not is_cterm(p("der x"))
    with pytest.raises(ValueError):
        require_cterm(p("x !x"))


def test_example_reductions():
    out = normalize(T0, CBN, 10)
    assert out.term == T1 and out.steps == 2
    out = normalize(T0, CBV, 10)
    assert out.term == T2 and out.steps == 4


def test_values_are_normal():
    assert step(p("\\x.x x"), CBN) is None
    assert step(p("\\x.x x"), CBV) is None
    assert step(Var("x"), CBN) is None


def test_surface_context_differences():
    t = App(Var("x"), OMEGA_C)
    # CBN never evaluates arguments; CBV does
    assert step(t, CBN) is None
    assert normalize(t, CBV, 50).status == "fuel-exhausted"
    # CBN reduces under lambda; CBV does not
    u = Abs("x", App(p("\\y.y"), Var("z")))
    assert step(u, CBN) is not None
    assert step(u, CBV) is None


def test_cbv_substitution_needs_value():
    t = p("x[x<-y z]")
    assert step(t, CBV) is None  # argument is not (a closure stack over) a value
    assert step(t, CBN) == p("y z")
    # value under a closure stack fires at a distance
    t2 = p("x[x<-(\\w.w)[u<-y z]]")
    assert step(t2, CBV) == p("(\\w.w)[u<-y z]")


def test_example_embeddings():
    assert embed(CBN, T0) == p("(\\x. y !x !x) !((\\z.z) !(\\z.z))")
    assert embed(CBN, T1) == p("y !((\\z.z) !(\\z.z)) !((\\z.z) !(\\z.z))")
    assert embed(CBV, T0) == p("(\\x. (der (y !x)) !x) ((\\z.!z) !(\\z.!z))")
    assert embed(CBV, T2) == p("(der (y !(\\z.!z))) !(\\z.!z)")
    assert embed(CBV, Var("x")) == p("!x")


def test_unembed_roundtrip():
    for t in enum_terms(5, ("x", "y"), bang_free=True):
        assert unembed(CBN, embed(CBN, t)) == t
        assert unembed(CBV, embed(CBV, t)) == t
    assert unembed(CBN, p("der !x")) is None
    assert unembed(CBV, Var("x")) is None


def test_simulation_examples():
    assert simulate_check(CBN, T0, 20).projected
    rep = simulate_check(CBV, T0, 20)
    assert rep.projected and rep.source_steps == 4
    assert simulate_check(CBV, p("\\x.x"), 5).source_steps == 0


def test_simulation_with_administrative_step():
    # a function-position source step needs a dereliction step to project
    t = p("((\\a.a) (\\b.b)) u")
    assert simulate_check(CBV, t, 20).projected


def test_embeddings_preserve_normal_forms():
    for t in enum_terms(5, ("x", "y"), bang_free=True):
        for tag in (CBN, CBV):
            if step(t, tag) is None:
                img = embed(tag, t)
                assert not reduction.redexes(img, reduction.SURFACE), \
                    f"{tag}: {print_term(t)} -> {print_term(img)}"


def test_embed_ctx_homomorphism_cbn():
    ctxs = ["[] y", "\\w.[]", "(\\w.[]) u", "y []", "[][w<-z]", "w[w<-[]]"]
    terms = [Var("x"), p("\\q.q"), p("x x"), OMEGA_C]
    for c in ctxs:
        F = parse_context(c, "full")
        Fe = embed_ctx(CBN, F)
        for t in terms:
            assert plug(Fe, embed(CBN, t)) == embed(CBN, plug(F, t)), (c, print_term(t))


def test_embed_ctx_homomorphism_cbv_up_to_dereliction():
    dbang = frozenset((Rule.DBANG,))
    ctxs = ["[] y", "\\w.[]", "(\\w.[]) u", "y []", "[][w<-z]", "w[w<-[]]"]
    terms = [Var("x"), p("\\q.q"), p("x x")]
    for c in ctxs:
        F = parse_context(c, "full")
        Fe = embed_ctx(CBV, F)
        for t in terms:
            got = plug(Fe, embed(CBV, t))
            want = embed(CBV, plug(F, t))
            frontier = {got}
            for _ in range(3):
                if want in frontier:
                    break
                frontier |= {v for u in frontier for v in restricted_step(u, dbang)}
            assert want in frontier, (c, print_term(t))


# sha256 of the reprs of embed_ctx, CBN then CBV, over every context of
# at most three frames drawn from EMBED_CTX_FRAMES (every bang-free frame
# kind; the CBV application case with a variable, a banged core under a
# closure and an application in function position).
EMBED_CTX_FRAMES = (AppFun(Var("y")), AppArg(Var("x")), AppArg(p("x x")),
                    AppArg(p("(\\q.q)[s<-z]")), AbsBody("w"), SubBody("w", p("y y")),
                    SubArg("w", close_var(p("w x"), "w")))
EMBED_CTX_DIGEST = "4c2ca5bd82cf06e534b48f9e6263305513692923d5267ca81de9b0fd87b13cb7"


def test_embed_ctx_is_pinned():
    h = hashlib.sha256()
    for k in range(4):
        for frames in itertools.product(EMBED_CTX_FRAMES, repeat=k):
            for tag in (CBN, CBV):
                h.update(repr(embed_ctx(tag, Ctx(FULL, frames))).encode())
    assert h.hexdigest() == EMBED_CTX_DIGEST


def test_embed_ctx_rejects_bang_and_der_frames():
    for c in ("(!der []) y", "![]", "der []", "x (der [])"):
        for tag in (CBN, CBV):
            with pytest.raises(ValueError, match="not a bang-free term"):
                embed_ctx(tag, parse_context(c, "full"))


def test_c_meaningful_corpus():
    v = c_meaningful(CBN, App(Var("x"), Abs("y", OMEGA_C)))
    assert v.meaningful and v.evidence is not None
    assert c_meaningful(CBN, Abs("x", OMEGA_C)).status == "unknown"
    assert c_meaningful(CBV, Abs("x", OMEGA_C)).meaningful  # a value
    v = c_meaningful(CBV, p("x (\\y.z)"))
    assert v.meaningful and v.evidence is not None
    assert c_meaningful(CBV, App(Var("x"), OMEGA_C)).status == "unknown"
    assert c_meaningful(CBN, App(Var("x"), OMEGA_C)).meaningful


def test_cbn_witness_reaches_identity():
    for s in ["x x", "x (\\y.y)", "\\x.\\y. y x", "y[y<-x z]"]:
        t = p(s)
        v = c_meaningful(CBN, t)
        assert v.meaningful and v.evidence is not None, s
        out = normalize(plug(v.evidence.context, t), CBN, 400)
        assert out.normalized and out.term == p("\\z.z"), s


def test_cbv_witness_reaches_value():
    from banglab.cbnv import is_value

    for s in ["x x", "x (\\y.z)", "\\x.x", "(\\x.x) (\\y.y)"]:
        t = p(s)
        v = c_meaningful(CBV, t)
        assert v.meaningful and v.evidence is not None, s
        out = normalize(plug(v.evidence.context, t), CBV, 400)
        assert out.normalized and is_value(out.term), s


def test_meaningful_c_verdicts_carry_replayed_witnesses():
    from banglab.cbnv import is_value

    decided = 0
    for tag, profile in ((CBN, "cbn-image"), (CBV, "cbv-image")):
        for seed in range(15):
            for size in range(3, 13):
                t = unembed(tag, gen_term(seed, size, profile))
                v = c_meaningful(tag, t)
                if not v.meaningful:
                    continue
                decided += 1
                assert v.evidence is not None, (tag, print_term(t))
                out = normalize(plug(v.evidence.context, t), tag, 2400)
                assert out.normalized and out.term == v.evidence.result
                assert out.term == p("\\z.z") if tag == CBN else is_value(out.term)
    assert decided > 0


def test_transfer_corpus():
    corpus = [p("\\z.z"), OMEGA_C, App(Var("x"), OMEGA_C), Abs("x", OMEGA_C),
              p("x (\\y.z)"), App(Var("x"), Abs("y", OMEGA_C))]
    for t in corpus:
        for tag in (CBN, CBV):
            rep = transfer_check(tag, t)
            assert rep.agreed, (tag, print_term(t))


def test_typability_transfer_small():
    for t in enum_terms(4, ("x", "y"), bang_free=True):
        assert grid_typing_set(N, t) == grid_typing_set(B, embed(CBN, t)), print_term(t)
        assert grid_typing_set(V, t) == grid_typing_set(B, embed(CBV, t)), print_term(t)


# sha256 of the sorted reprs of the grid typing sets: N, B of the CBN
# image, V and B of the CBV image of each bang-free term of enum_terms(5),
# then B of each term of enum_terms(4), in enumeration order.
GRID_DIGEST = "0e147142528c20ca9471a94e9f77d2a09b09ca32d787ea3055e36d121ed22723"


def test_grid_typing_sets_are_pinned():
    def digest_of(s):
        return repr(sorted(map(repr, s))).encode()

    h = hashlib.sha256()
    for t in enum_terms(5, ("x", "y"), bang_free=True):
        for s in (grid_typing_set(N, t), grid_typing_set(B, embed(CBN, t)),
                  grid_typing_set(V, t), grid_typing_set(B, embed(CBV, t))):
            h.update(digest_of(s))
    for t in enum_terms(4, ("x", "y")):
        h.update(digest_of(grid_typing_set(B, t)))
    assert h.hexdigest() == GRID_DIGEST


@pytest.mark.parametrize("src", ["\\x1. y (x x1)", "\\x1. x (y x1)"])
def test_v_grid_table_stays_small(src):
    # The full V table of each term holds 1,127,251 typings.  All but one
    # bind a free name past the grid, through the singleton arrow axioms,
    # and the grid table drops those while it is built.
    t = p(src)
    assert grid_typing_set(V, t) == grid_typing_set(B, embed(CBV, t))
    assert len(_pairs(V, t, Bounds(), True)) <= 50


def test_genericity_through_embeddings():
    budgets = Budgets(fuel=150)
    # CBN: an erasing context over the diverging self-application
    F = parse_context("(\\h.q) []", "full")
    assert c_meaningful(CBN, plug(F, OMEGA_C)).meaningful
    for u in [Var("x"), p("x x"), p("\\w.w w")]:
        assert c_meaningful(CBN, plug(F, u)).meaningful
        assert meaningful(embed(CBN, plug(F, u)), budgets).meaningful
    # CBV: freezing under a lambda makes a value
    G = parse_context("\\w.[]", "full")
    assert c_meaningful(CBV, plug(G, OMEGA_C)).meaningful
    for u in [Var("x"), p("x x"), OMEGA_C]:
        assert c_meaningful(CBV, plug(G, u)).meaningful
        assert meaningful(embed(CBV, plug(G, u)), budgets).meaningful


@hypothesis.given(st.integers(0, 2000))
@hypothesis.settings(max_examples=50, deadline=None)
def test_simulation_sampled(seed):
    t = unembed(CBN, gen_term(seed, 4 + seed % 5, "cbn-image"))
    assert simulate_check(CBN, t, fuel=15).projected
    assert simulate_check(CBV, t, fuel=15).projected
