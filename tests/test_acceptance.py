"""Acceptance gate: one test per criterion, each printing a pass/fail
line and enforcing its runtime budget.

Criteria 1-6 and 10 run the property suites of `banglab.suites` under
pinned configurations; `banglab prop-test` reproduces each one (see the
README).  Criteria 7-9 have no matching suite."""

import resource
import time

from banglab import reduction
from banglab.meaning import (Budgets, discriminate, genericity_check,
                             meaningful, search_testing_context)
from banglab.suites import SuiteConfig, _curated_generic_contexts, run_suite
from banglab.syntax import (Abs, App, Bang, OMEGA, Var, gen_term, parse_term,
                            plug)

p = parse_term


class Gate:
    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget = budget_s
        self.start = time.monotonic()

    def done(self, failures: int, detail: str = ""):
        elapsed = time.monotonic() - self.start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
        status = "PASS" if failures == 0 and elapsed < self.budget else "FAIL"
        print(f"{status} {self.name}: failures={failures} "
              f"elapsed={elapsed:.1f}s/{self.budget:.0f}s "
              f"process_peak_rss_so_far={peak_mb:.0f}MB {detail}")
        assert failures == 0, f"{self.name}: {failures} failures {detail}"
        assert elapsed < self.budget, f"{self.name}: over budget ({elapsed:.1f}s)"


def gate_suites(name: str, budget_s: float, *configs: SuiteConfig):
    """Run the suites in order under one gate; every failed check counts."""
    g = Gate(name, budget_s)
    reports = [run_suite(cfg) for cfg in configs]
    g.done(sum(r.failed for r in reports), " ".join(
        f"({r.suite}: pass={r.passed} fail={r.failed} unknown={r.unknown}"
        + "".join(f"; {n}" for n in r.notes + r.failures) + ")"
        for r in reports))


def test_criterion_1_golden_corpus():
    gate_suites("criterion-1 golden corpus", 5, SuiteConfig("corpus"))


def test_criterion_2_diamond():
    gate_suites("criterion-2 diamond dB/d!", 60,
                SuiteConfig("diamond", size_bound=8))


def test_criterion_3_local_confluence_and_commutation():
    gate_suites("criterion-3 s! local confluence + strong commutation", 60,
                SuiteConfig("commutation", size_bound=8))


def test_criterion_4_measure_decrease():
    gate_suites("criterion-4 measure decrease", 30,
                SuiteConfig("measure", seed=1, count=1000))


def test_criterion_5_grammar_equivalence():
    gate_suites("criterion-5 clash-free NF grammar equivalence", 60,
                SuiteConfig("grammar", size_bound=7))


def test_criterion_6_typing_invariance_and_characterization():
    gate_suites("criterion-6 typing transport + typability characterization", 300,
                SuiteConfig("transport", seed=1, count=500, fuel=150),
                SuiteConfig("typability", size_bound=6, fuel=150))


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
    meaningless = [p("x x"), p("\\x.x x")]
    samples = [gen_term(99 + i, 3 + (i % 6), "bang") for i in range(47)]
    samples += [OMEGA, p("x x"), Var("y")]
    assert len(samples) == 50
    pairs = [(F, t) for F in _curated_generic_contexts() for t in meaningless]
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
    gate_suites("criterion-10 call-by-name/value transfer", 600,
                SuiteConfig("simulation", seed=1, count=1000),
                SuiteConfig("transfer", size_bound=6, fuel=200))
