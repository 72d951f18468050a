"""Acceptance gate: one test per criterion, each printing a pass/fail
line and enforcing its runtime budget."""

import itertools
import time
from functools import partial

import pytest

from banglab import cbnv, measures, reduction, typesys
from banglab.cbnv import CBN, CBV
from banglab.inhabitation import inhabit
from banglab.meaning import (Budgets, discriminate, genericity_check,
                             meaningful, search_testing_context)
from banglab.reduction import DB_DBANG, SBANG_ONLY, meet_within, restricted_step
from banglab.syntax import (Abs, App, Bang, OMEGA, Var, alpha_eq, enum_terms,
                            free_vars, gen_term, parse_context, parse_term,
                            plug, print_term)
from banglab.typesys import (B, Bounds, N, V, canonical_nf_derivation,
                             check_derivation, grid_typing_set,
                             typing_transport_check, typings_enumerate,
                             untypable_certificate)

p = parse_term


class Gate:
    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget = budget_s
        self.start = time.monotonic()

    def done(self, failures: int, detail: str = ""):
        elapsed = time.monotonic() - self.start
        status = "PASS" if failures == 0 and elapsed < self.budget else "FAIL"
        print(f"{status} {self.name}: failures={failures} "
              f"elapsed={elapsed:.1f}s/{self.budget:.0f}s {detail}")
        assert failures == 0, f"{self.name}: {failures} failures {detail}"
        assert elapsed < self.budget, f"{self.name}: over budget ({elapsed:.1f}s)"


def test_criterion_1_golden_corpus():
    g = Gate("criterion-1 golden corpus", 5)
    bad = 0

    def chk(cond):
        nonlocal bad
        bad += 0 if cond else 1

    # the three-step reduction chain
    t = p("(\\x.!der !x) !y")
    s1 = reduction.step(t, reduction.SURFACE)
    s2 = reduction.step(s1, reduction.SURFACE)
    chk(s1 == p("(!der !x)[x<-!y]"))
    chk(s2 == p("!(der !y)"))
    chk(reduction.step(s2, reduction.SURFACE) is None)
    chk(reduction.step(s2, reduction.FULL) == p("!y"))

    # self-application derivations check, with the two-resource env
    ds = list(typings_enumerate(B, p("x x")))
    chk(bool(ds))
    chk(all(check_derivation(d) is None for d in ds))
    chk(all(d.conclusion.env.domain() == ("x",)
            and len(d.conclusion.env.get("x")) == 2 for d in ds))

    # inhabitation of [a] -> [a] with the boxed-identity witness
    a = typesys.TVar("a")
    r = inhabit(B, typesys.Arrow(typesys.multi(a), typesys.multi(a)))
    chk(r.inhabited and alpha_eq(r.witness, p("\\x.!x")))

    # call-by-name and call-by-value runs of the shared example
    t0 = p("(\\x.y x x) ((\\z.z) (\\z.z))")
    chk(cbnv.c_normalize(CBN, t0, 10).term
        == p("y ((\\z.z) (\\z.z)) ((\\z.z) (\\z.z))"))
    chk(cbnv.c_normalize(CBV, t0, 10).term == p("y (\\z.z) (\\z.z)"))

    # the embeddings
    chk(cbnv.embed(CBN, t0) == p("(\\x. y !x !x) !((\\z.z) !(\\z.z))"))
    chk(cbnv.embed(CBV, t0) == p("(\\x. (der (y !x)) !x) ((\\z.!z) !(\\z.!z))"))

    # the simulated chains
    chk(cbnv.simulate_check(CBN, t0, 20).projected)
    chk(cbnv.simulate_check(CBV, t0, 20).projected)
    g.done(bad)


def test_criterion_2_diamond():
    g = Gate("criterion-2 diamond dB/d!", 60)
    bad = 0
    for t in enum_terms(8):
        rs = restricted_step(t, DB_DBANG)
        if len(rs) < 2:
            continue
        onestep = {u: set(restricted_step(u, DB_DBANG)) for u in rs}
        for u1, u2 in itertools.combinations(rs, 2):
            if not (onestep[u1] & onestep[u2]):
                bad += 1
    g.done(bad, "(exhaustive, size <= 8, two free names)")


def test_criterion_3_local_confluence_and_commutation():
    g = Gate("criterion-3 s! local confluence + strong commutation", 60)
    bad = 0

    s_bang = partial(restricted_step, fragment=SBANG_ONLY)
    db_dbang = partial(restricted_step, fragment=DB_DBANG)
    for t in enum_terms(8):
        s_reds = restricted_step(t, SBANG_ONLY)
        if len(s_reds) >= 2:
            for u1, u2 in itertools.combinations(s_reds, 2):
                if not meet_within(u1, u2, s_bang, 8):
                    bad += 1
        if s_reds:
            for u1 in restricted_step(t, DB_DBANG):
                for u2 in s_reds:
                    if not any(meet_within(u2, s, db_dbang, 10, fixed_target=True)
                               for s in restricted_step(u1, SBANG_ONLY)):
                        bad += 1
    g.done(bad, "(exhaustive, size <= 8)")


def test_criterion_4_measure_decrease():
    g = Gate("criterion-4 measure decrease", 30)
    bad = 0
    steps = 0
    for i in range(1000):
        t = gen_term(31 + i, 4 + (i % 7), "bang")
        for u in restricted_step(t, SBANG_ONLY):
            steps += 1
            if not measures.ms_gt(measures.multi_size(t), measures.multi_size(u)):
                bad += 1
            if any(measures.pot_mult(x, t) < measures.pot_mult(x, u)
                   for x in free_vars(t)):
                bad += 1
    g.done(bad, f"({steps} s! steps over 1000 seeded terms)")


def test_criterion_5_grammar_equivalence():
    g = Gate("criterion-5 clash-free NF grammar equivalence", 60)
    bad = 0
    n = 0
    for t in enum_terms(7):
        n += 1
        lhs = reduction.classify(t).in_no_s
        rhs = (not reduction.redexes(t, reduction.SURFACE)
               and not reduction.static_clashes(t, reduction.SURFACE))
        if lhs != rhs:
            bad += 1
    g.done(bad, f"(exhaustive over {n} terms, size <= 7)")


def test_criterion_6_typing_invariance_and_characterization():
    g = Gate("criterion-6 typing transport + typability characterization", 300)
    bad = 0
    # (a) transport across every single full step of 500 sampled typed terms
    samples = 0
    i = 0
    escalated = 0
    steps = 0
    while samples < 500 and i < 20000:
        i += 1
        t = gen_term(7919 + i, 4 + (i % 6), "bang")
        if typesys.typable(t, 150) != "yes":
            continue
        samples += 1
        for u in reduction.reducts(t, reduction.FULL):
            steps += 1
            if typing_transport_check(t, u):
                continue
            if typing_transport_check(t, u, Bounds(card=3, pool=2, depth=3)):
                escalated += 1
            else:
                bad += 1
    # (b) typability iff clash-free normal form, exhaustively at size <= 6
    undecided = 0
    n = 0
    for t in enum_terms(6):
        n += 1
        verdict = typesys.typable(t, 150)
        if verdict == "unknown":
            undecided += 1
            continue
        if verdict == "yes":
            nf = reduction.normalize(t, reduction.SURFACE, 150).term
            if check_derivation(canonical_nf_derivation(nf)) is not None:
                bad += 1
            if untypable_certificate(t):
                bad += 1
        else:
            if not untypable_certificate(t):
                if next(typings_enumerate(B, t), None) is not None:
                    bad += 1
                else:
                    undecided += 1
    g.done(bad, f"({samples} samples/{steps} steps, {escalated} card-escalated; "
                f"{n} exhaustive, {undecided} undecided)")


def test_criterion_7_meaningfulness_soundness_loop():
    g = Gate("criterion-7 meaningful/meaningless soundness loop", 300)
    bad = 0
    budgets = Budgets(fuel=120)
    corpus = [p("\\z.z"), OMEGA, App(Var("x"), OMEGA), p("x x"), p("\\x.x x"),
              Abs("x", OMEGA), p("!x"), p("der !x")]
    terms = corpus + [gen_term(555 + i, 3 + (i % 6), "bang") for i in range(500)]
    n_meaningful = n_meaningless = 0
    for t in terms:
        v = meaningful(t, budgets)
        if v.meaningful:
            n_meaningful += 1
            out = reduction.normalize(plug(v.evidence.context, t),
                                      reduction.SURFACE, 2000)
            if not (out.normalized and isinstance(out.term, Bang)):
                bad += 1
        elif v.meaningless:
            n_meaningless += 1
            if search_testing_context(t, depth=3, fuel=150) is not None:
                bad += 1
    g.done(bad, f"({n_meaningful} meaningful replayed, "
                f"{n_meaningless} meaningless cross-checked)")


def test_criterion_8_separation_spot_check():
    g = Gate("criterion-8 separation of !x and the self-application loop", 1)
    d = discriminate(Bang(Var("x")), OMEGA)
    g.done(0 if (d.separated and d.context.frames == ()) else 1)


def test_criterion_9_genericity():
    g = Gate("criterion-9 genericity", 300)
    bad = 0
    budgets = Budgets(fuel=150)
    contexts = ["!([])", "\\z.!([])", "(\\x.!y) !([])", "(\\z.z) !(!([]))",
                "(\\y.!y) !(der ([]))", "!([] x)", "!(x [])", "(\\x.!x) !([])",
                "\\w.!(w [])", "(\\u.!(\\v.!v)) !([])"]
    meaningless = [p("x x"), p("\\x.x x")]
    samples = [gen_term(99 + i, 3 + (i % 6), "bang") for i in range(47)]
    samples += [OMEGA, p("x x"), Var("y")]
    assert len(samples) == 50
    pairs = [(parse_context(c, "full"), t) for c in contexts for t in meaningless]
    assert len(pairs) == 20
    for F, t in pairs:
        rep = genericity_check(F, t, samples, budgets)
        if not rep.applicable:
            bad += 1
            continue
        bad += sum(1 for _, status in rep.sample_verdicts if status != "meaningful")
        bad += sum(1 for _, ok in rep.typed_transport if not ok)
    g.done(bad, "(20 curated pairs x 50 samples, typed transport included)")


def test_criterion_10_cbn_cbv_transfer():
    g = Gate("criterion-10 call-by-name/value transfer", 600)
    bad = 0
    # simulation on 500 + 500 seeded terms
    for tag, base in ((CBN, 0), (CBV, 10_000_019)):
        for i in range(500):
            t = cbnv.unembed(CBN, gen_term(104729 + base + i, 4 + (i % 6), "cbn-image"))
            if not cbnv.simulate_check(tag, t, fuel=15).projected:
                bad += 1
    # typability transfer, exhaustive bang-free terms at size <= 6
    n = 0
    for t in enum_terms(6, ("x", "y"), bang_free=True):
        n += 1
        if grid_typing_set(N, t) != grid_typing_set(B, cbnv.embed(CBN, t)):
            bad += 1
        if grid_typing_set(V, t) != grid_typing_set(B, cbnv.embed(CBV, t)):
            bad += 1
    # meaningfulness transfer on the corpus
    omega = p("(\\x.x x) (\\x.x x)")
    corpus = [p("\\z.z"), omega, App(Var("x"), omega), Abs("x", omega),
              p("x (\\y.z)"), App(Var("x"), Abs("y", omega))]
    for t in corpus:
        for tag in (CBN, CBV):
            if not cbnv.transfer_check(tag, t).agreed:
                bad += 1
    g.done(bad, f"(1000 simulations, {n} exhaustive transfer terms, corpus)")
