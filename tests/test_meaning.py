import gc
import hashlib
import types

import pytest

from banglab import reduction, typesys
from banglab.inhabitation import testable as is_testable
from banglab.meaning import (Budgets, build_testing_context,
                             check_testable_everywhere, discriminate,
                             genericity_check, meaningful,
                             meaningless_certificate, replay,
                             search_testing_context)
from banglab.meaning import testing_contexts as enum_testing_contexts
from banglab.syntax import (Abs, App, Bang, OMEGA, Var, gen_term,
                            parse_context, parse_term, plug, print_term)
from banglab.typesys import (Arrow, B, EMPTY_ENV, EMPTY_MULTI, Env, TVar,
                             multi, typings_enumerate)

p = parse_term
BUD = Budgets(fuel=150)

CORPUS = {
    "\\z.z": "meaningful",
    "x x": "meaningless",
    "\\x.x x": "meaningless",
    "!x": "meaningful",
    "der !x": "meaningful",
}


def test_corpus_verdicts():
    for s, want in CORPUS.items():
        assert meaningful(p(s), BUD).status == want, s


# sha256 of meaningful()'s status, reason and evidence (context frames,
# typing, derivation) at the default budgets, for gen_term seeds 0-3,
# sizes 3-12 and the four profiles, in that order.  It pins the verdicts
# and witnesses: 123 meaningful, 26 meaningless, 11 unknown.
VERDICTS_DIGEST = "4a87684fdfe2b3247aebd0026c8520a075db0c4e9ba869ad829373078abf3a27"


def test_verdicts_and_evidence_are_pinned():
    h = hashlib.sha256()
    for seed in range(4):
        for size in range(3, 13):
            for profile in ("bang", "raw", "cbn-image", "cbv-image"):
                v = meaningful(gen_term(seed, size, profile))
                ev = v.evidence
                row = (v.status, v.reason) + (
                    (ev.context.frames, ev.typing, ev.derivation) if ev else ())
                h.update(repr(row).encode())
    assert h.hexdigest() == VERDICTS_DIGEST


def test_divergent_stay_unknown():
    for t in [OMEGA, App(Var("x"), OMEGA), Abs("x", OMEGA)]:
        v = meaningful(t, BUD)
        assert v.status == "unknown" and "divergence" in v.reason


def test_identity_testing_context():
    v = meaningful(p("\\z.z"), BUD)
    assert v.meaningful
    assert str(v.evidence.context) == "[] !!(\\z. z)"
    assert isinstance(v.evidence.result, Bang)


def test_meaningful_evidence_replays():
    for s in CORPUS:
        v = meaningful(p(s), BUD)
        if v.meaningful:
            hit = replay(v.evidence.context, p(s), 500)
            assert hit is not None and hit[0] == v.evidence.result


def test_meaningless_certificate():
    assert meaningless_certificate(p("x x"))
    assert meaningless_certificate(p("\\x.x x"))
    assert meaningless_certificate(p("\\y.\\x.x x"))
    assert meaningless_certificate(p("x x y"))
    assert meaningless_certificate(p("\\z.x x")) is not None
    assert meaningless_certificate(p("x !x")) is None
    assert meaningless_certificate(p("x y")) is None


def test_build_testing_context_requires_witnesses():
    a = TVar("a")
    bad = is_testable(B, (EMPTY_ENV, Arrow(multi(a), multi(a))))
    with pytest.raises(ValueError):
        build_testing_context((EMPTY_ENV, Arrow(multi(a), multi(a))), bad)


def test_build_testing_context_examples():
    ty = Arrow(multi(EMPTY_MULTI), EMPTY_MULTI)
    ok = is_testable(B, (EMPTY_ENV, ty))
    ctx = build_testing_context((EMPTY_ENV, ty), ok)
    out = reduction.normalize(plug(ctx, p("\\x.!x")), reduction.SURFACE, 100)
    assert out.normalized and isinstance(out.term, Bang)
    # already observable: empty context
    ok2 = is_testable(B, (EMPTY_ENV, EMPTY_MULTI))
    assert build_testing_context((EMPTY_ENV, EMPTY_MULTI), ok2).frames == ()


def test_env_wrapping_captures():
    v = meaningful(p("der !x"), BUD)
    assert v.meaningful
    # the context binds the free variable of the subject
    plugged = plug(v.evidence.context, p("der !x"))
    from banglab.syntax import free_vars

    assert "x" not in free_vars(plugged)


def test_check_testable_everywhere():
    d = next(derivation() for typing, derivation in typings_enumerate(B, p("!(\\z.z)"))
             if typing == (EMPTY_ENV, EMPTY_MULTI))
    ok, reports = check_testable_everywhere(d)
    assert ok and all(r.verdict == "yes" for r in reports)
    # the self-application derivation has an untestable root
    stream = typings_enumerate(B, p("x x"))
    _, derivation = next(stream)
    ok, reports = check_testable_everywhere(derivation())
    assert not ok and reports[0].verdict == "no"


def _suspended_rule_streams() -> int:
    return sum(1 for o in gc.get_objects()
               if isinstance(o, types.GeneratorType)
               and o.gi_code is typesys._rules.__code__ and o.gi_frame is not None)


def test_a_closed_stream_frees_its_tables():
    # the tables of one typings_enumerate call refer back to each other, so
    # they must be freed when the stream ends, not by the cycle collector
    meaningful(p("\\x. x !x"), BUD)
    gc.disable()
    try:
        before = _suspended_rule_streams()
        stream = typings_enumerate(B, p("\\x. x (x !y)"))
        next(stream)
        stream.close()
        assert meaningful(p("y !(\\z. z !z) !y"), BUD).meaningful
        assert _suspended_rule_streams() <= before
    finally:
        gc.enable()


def test_testability_propagates_from_root():
    # whenever the root is testable, no node is definitely untestable
    for s in ["\\z.z", "!x", "der !x", "\\x.!x"]:
        v = meaningful(p(s), BUD)
        if v.meaningful and v.evidence.derivation is not None:
            _, reports = check_testable_everywhere(v.evidence.derivation)
            assert all(r.verdict != "no" for r in reports), s


def test_closed_context_typing_roundtrip():
    # a closed typing of a plugged testing context yields a testable
    # typing of the subject
    v = meaningful(p("der !x"), BUD)
    t = plug(v.evidence.context, p("der !x"))
    out = reduction.normalize(t, reduction.SURFACE, 200)
    assert out.normalized and isinstance(out.term, Bang)
    assert is_testable(B, v.evidence.typing).verdict == "yes"


def test_genericity_erasing_context():
    F = parse_context("(\\x.!y) !([])", "full")
    samples = [OMEGA, p("x x"), Var("z"), p("\\w.w !w"), gen_term(5, 6, "bang")]
    rep = genericity_check(F, p("x x"), samples, BUD)
    assert rep.applicable
    assert all(status == "meaningful" for _, status in rep.sample_verdicts)
    assert all(ok for _, ok in rep.typed_transport)
    assert not rep.failures


def test_genericity_vacuous_on_hole_context():
    F = parse_context("[]", "full")
    rep = genericity_check(F, p("x x"), [Var("y")], BUD)
    assert not rep.applicable  # F<t> is itself meaningless


def test_genericity_precondition():
    F = parse_context("!([])", "full")
    rep = genericity_check(F, p("!y"), [Var("z")], BUD)
    assert not rep.applicable  # t is meaningful, so the check is vacuous


def test_discriminate_bang_vs_omega():
    d = discriminate(Bang(Var("x")), OMEGA, budgets=BUD)
    assert d.separated and d.context.frames == ()
    assert "budget-relative" in d.note


def test_discriminate_negative_cases():
    assert not discriminate(p("x x"), p("x x"), budgets=BUD).separated
    assert not discriminate(OMEGA, p("x x"), budgets=BUD).separated


def test_testing_context_enumeration():
    ctxs = list(enum_testing_contexts(["x"], 1))
    assert any(c.frames == () for c in ctxs)
    assert all(len(c.frames) <= 2 for c in ctxs)
    assert len(set(str(c) for c in ctxs)) == len(ctxs)


def test_operational_search_agrees_with_verdicts():
    for s, want in CORPUS.items():
        hit = search_testing_context(p(s), depth=2, fuel=200)
        if want == "meaningless":
            assert hit is None, s
        else:
            assert hit is not None, s
