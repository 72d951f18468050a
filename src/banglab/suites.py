"""Seeded, deterministic property suites.

Each suite replays one family of facts about the calculus at desk
scale: rewriting diagrams exhaustively on small terms, measure decrease
and typing transport on seeded samples, the golden example corpus, and
the transfer checks for the call-by-name/value fragments.  Identical
configuration yields an identical report apart from timing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from . import cbnv, measures, reduction, typesys
from .inhabitation import inhabit
from .meaning import Budgets, discriminate, genericity_check, meaningful
from .reduction import DB_DBANG, SBANG_ONLY, meet_within, restricted_step
from .syntax import (Abs, App, Bang, Ctx, OMEGA, Term, Var,
                     enum_terms, free_vars, gen_term, parse_context,
                     parse_term, print_term)
from .typesys import (B, Bounds, N, V, grid_typing_set,
                      canonical_nf_derivation, check_derivation,
                      typing_transport_check, untypable_certificate)


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 1
    count: int = 200
    size_bound: int = 8
    fuel: int = 200
    bounds: Bounds = Bounds()


@dataclass
class Report:
    suite: str
    statement: str
    config: SuiteConfig
    passed: int = 0
    failed: int = 0
    unknown: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    elapsed: float = 0.0

    def ok(self, n: int = 1):
        self.passed += n

    def fail(self, case: str):
        self.failed += 1
        if len(self.failures) < 25:
            self.failures.append(case)

    def skip(self, n: int = 1):
        self.unknown += n

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "statement": self.statement,
            "config": {
                "seed": self.config.seed, "count": self.config.count,
                "size_bound": self.config.size_bound, "fuel": self.config.fuel,
                "bounds": [self.config.bounds.card, self.config.bounds.pool,
                           self.config.bounds.depth],
            },
            "pass": self.passed, "fail": self.failed, "unknown": self.unknown,
            "failures": self.failures, "notes": self.notes,
            "elapsed_s": round(self.elapsed, 2),
        }


# ---------------------------------------------------------------------------
# Rewriting suites


def suite_diamond(cfg: SuiteConfig) -> Report:
    r = Report(cfg.suite, "one-step peaks of the dB/d! fragment close in "
                          "exactly one step on each side", cfg)
    for t in enum_terms(cfg.size_bound):
        rs = restricted_step(t, DB_DBANG)
        if len(rs) < 2:
            continue
        onestep = {u: set(restricted_step(u, DB_DBANG)) for u in rs}
        for u1, u2 in itertools.combinations(rs, 2):
            if onestep[u1] & onestep[u2]:
                r.ok()
            else:
                r.fail(f"{print_term(t)} => {print_term(u1)} | {print_term(u2)}")
    return r


def suite_commutation(cfg: SuiteConfig) -> Report:
    r = Report(cfg.suite, "one-step s! peaks join within bounded s! reduction, "
                          "and dB/d! steps strongly commute with s!", cfg)
    s_bang = partial(restricted_step, fragment=SBANG_ONLY)
    db_dbang = partial(restricted_step, fragment=DB_DBANG)
    for t in enum_terms(cfg.size_bound):
        s_reducts = restricted_step(t, SBANG_ONLY)
        if len(s_reducts) >= 2:
            for u1, u2 in itertools.combinations(s_reducts, 2):
                if meet_within(u1, u2, s_bang, 8):
                    r.ok()
                else:
                    r.fail(f"s! peak {print_term(t)}")
        if s_reducts:
            for u1 in restricted_step(t, DB_DBANG):
                for u2 in s_reducts:
                    closing = restricted_step(u1, SBANG_ONLY)
                    if any(meet_within(u2, s, db_dbang, 10, fixed_target=True)
                           for s in closing):
                        r.ok()
                    else:
                        r.fail(f"commutation {print_term(t)} => "
                               f"{print_term(u1)} | {print_term(u2)}")
    return r


def suite_confluence(cfg: SuiteConfig) -> Report:
    r = Report(cfg.suite, "any two bounded reduction sequences from one term "
                          "are joinable (surface and full closures)", cfg)
    import random

    rng = random.Random(cfg.seed)
    for i in range(cfg.count):
        t = gen_term(cfg.seed * 100003 + i, 4 + (i % 6), "bang")
        for closure in (reduction.SURFACE, reduction.FULL):
            u1 = _random_walk(t, closure, rng.randrange(4), rng)
            u2 = _random_walk(t, closure, rng.randrange(4), rng)
            if reduction.joinable(u1, u2, closure, 10):
                r.ok()
            else:
                r.fail(f"{closure}: {print_term(t)} => {print_term(u1)} | {print_term(u2)}")
    return r


def _random_walk(t: Term, closure: str, steps: int, rng) -> Term:
    for _ in range(steps):
        rs = reduction.reducts(t, closure)
        if not rs:
            return t
        t = rs[rng.randrange(len(rs))]
    return t


def suite_measure(cfg: SuiteConfig) -> Report:
    r = Report(cfg.suite, "every s! step strictly decreases the multiset measure "
                          "and weakly decreases every potential multiplicity", cfg)
    for i in range(cfg.count):
        t = gen_term(cfg.seed * 31 + i, 4 + (i % 7), "bang")
        for u in restricted_step(t, SBANG_ONLY):
            if measures.ms_gt(measures.multi_size(t), measures.multi_size(u)) and all(
                    measures.pot_mult(x, t) >= measures.pot_mult(x, u)
                    for x in free_vars(t)):
                r.ok()
            else:
                r.fail(f"{print_term(t)} => {print_term(u)}")
    return r


def suite_grammar(cfg: SuiteConfig) -> Report:
    cfg = replace(cfg, size_bound=min(cfg.size_bound, 7))  # the report shows the bound run
    r = Report(cfg.suite, "grammar classification matches: in the clash-free NF "
                          "grammar iff no surface redex and no surface clash", cfg)
    for t in enum_terms(cfg.size_bound):
        in_grammar = reduction.classify(t).in_no_s
        operational = (not reduction.redexes(t, reduction.SURFACE)
                       and not reduction.static_clashes(t, reduction.SURFACE))
        if in_grammar == operational:
            r.ok()
        else:
            r.fail(print_term(t))
    return r


# ---------------------------------------------------------------------------
# Typing suites


def suite_typability(cfg: SuiteConfig) -> Report:
    cfg = replace(cfg, size_bound=min(cfg.size_bound, 6))  # the report shows the bound run
    r = Report(cfg.suite, "typable iff surface-reducing to a clash-free normal "
                          "form: canonical NF derivations versus shape "
                          "refutations, exhaustively", cfg)
    undecided = 0
    for t in enum_terms(cfg.size_bound):
        verdict = typesys.typable(t, cfg.fuel)
        if verdict == "unknown":
            r.skip()
            continue
        if verdict == "yes":
            out = reduction.normalize(t, reduction.SURFACE, cfg.fuel)
            d = canonical_nf_derivation(out.term)
            err = check_derivation(d)
            if err is None and untypable_certificate(t) is False:
                r.ok()
            else:
                r.fail(f"{print_term(t)}: {err or 'refuted yet normalizing'}")
        else:
            if untypable_certificate(t):
                r.ok()
            elif next(typesys.typings_enumerate(B, t, cfg.bounds), None) is None:
                undecided += 1
                r.skip()
            else:
                r.fail(f"{print_term(t)}: typing found for a clashing term")
    if undecided:
        r.notes.append(f"{undecided} clash terms beyond the shape certificate "
                       "(bounded enumeration agrees they have no typing)")
    return r


def suite_transport(cfg: SuiteConfig) -> Report:
    r = Report(cfg.suite, "typings are invariant under full reduction steps: "
                          "grid-restricted bounded typing sets coincide", cfg)
    samples = 0
    i = 0
    escalated = 0
    while samples < cfg.count and i < cfg.count * 40:
        i += 1
        t = gen_term(cfg.seed * 7919 + i, 4 + (i % 6), "bang")
        if typesys.typable(t, cfg.fuel) != "yes":
            continue
        samples += 1
        for u in reduction.reducts(t, reduction.FULL):
            if typing_transport_check(t, u, cfg.bounds):
                r.ok()
                continue
            wider = Bounds(cfg.bounds.card + 1, cfg.bounds.pool, cfg.bounds.depth)
            if typing_transport_check(t, u, wider):
                escalated += 1
                r.ok()
            else:
                r.fail(f"{print_term(t)} => {print_term(u)}")
    if escalated:
        r.notes.append(f"{escalated} steps matched after widening the "
                       "cardinality bound by one (duplication boundary)")
    r.notes.append(f"{samples} typable sample terms")
    return r


# ---------------------------------------------------------------------------
# CBN/CBV suites


def suite_simulation(cfg: SuiteConfig) -> Report:
    r = Report(cfg.suite, "embeddings preserve reductions: every source step "
                          "projects onto a bounded surface chain of the image", cfg)
    per_tag = cfg.count // 2 or 1
    for tag, base in ((cbnv.CBN, 0), (cbnv.CBV, 10_000_019)):
        for i in range(per_tag):
            t = gen_term(cfg.seed * 104729 + base + i, 4 + (i % 6), "cbn-image")
            src = cbnv.unembed(cbnv.CBN, t)
            rep = cbnv.simulate_check(tag, src, fuel=20)
            if rep.projected:
                r.ok()
            else:
                r.fail(f"{tag}: {print_term(src)}")
    return r


def suite_transfer(cfg: SuiteConfig) -> Report:
    cfg = replace(cfg, size_bound=min(cfg.size_bound, 6))  # the report shows the bound run
    r = Report(cfg.suite, "typability and meaningfulness agree across the "
                          "embeddings (grid typing sets; decided verdicts)", cfg)
    for t in enum_terms(cfg.size_bound, ("x", "y"), bang_free=True):
        ok_n = grid_typing_set(N, t, cfg.bounds) == grid_typing_set(
            B, cbnv.embed(cbnv.CBN, t), cfg.bounds)
        ok_v = grid_typing_set(V, t, cfg.bounds) == grid_typing_set(
            B, cbnv.embed(cbnv.CBV, t), cfg.bounds)
        if ok_n and ok_v:
            r.ok()
        else:
            r.fail(f"{print_term(t)} ({'N' if not ok_n else 'V'})")
    omega = parse_term("(\\x.x x) (\\x.x x)")
    corpus = [parse_term("\\z.z"), omega, App(Var("x"), omega), Abs("x", omega),
              parse_term("x (\\y.z)"), App(Var("x"), Abs("y", omega))]
    budgets = Budgets(fuel=cfg.fuel)
    for t in corpus:
        for tag in (cbnv.CBN, cbnv.CBV):
            rep = cbnv.transfer_check(tag, t, budgets)
            if rep.agreed:
                if rep.note:
                    r.skip()
                else:
                    r.ok()
            else:
                r.fail(f"{tag}: {print_term(t)} src={rep.source.status} "
                       f"img={rep.image.status}")
    return r


# ---------------------------------------------------------------------------
# Meaningfulness suites


def _curated_generic_contexts() -> list[Ctx]:
    specs = [
        "!([])", "\\z.!([])", "(\\x.!y) !([])", "(\\z.z) !(!([]))",
        "(\\y.!y) !(der ([]))", "!([] x)", "!(x [])", "(\\x.!x) !([])",
        "\\w.!(w [])", "(\\u.!(\\v.!v)) !([])",
    ]
    return [parse_context(s, "full") for s in specs]


def suite_genericity(cfg: SuiteConfig) -> Report:
    r = Report(cfg.suite, "meaningless subterms are interchangeable: a context "
                          "meaningful on one is meaningful on all, with the "
                          "same testable typing", cfg)
    budgets = Budgets(fuel=cfg.fuel)
    meaningless = [parse_term("x x"), parse_term("\\x.x x")]
    samples = [gen_term(cfg.seed * 13 + i, 3 + (i % 5), "bang") for i in range(25)]
    samples += [OMEGA, parse_term("x x"), Var("y")]
    pairs = [(F, t) for F in _curated_generic_contexts() for t in meaningless]
    for F, t in pairs:
        rep = genericity_check(F, t, samples, budgets)
        if not rep.applicable:
            r.skip()
            continue
        bad = [u for u, status in rep.sample_verdicts if status != "meaningful"]
        bad += list(rep.failures)
        bad_typed = [u for u, ok in rep.typed_transport if not ok]
        if not bad and not bad_typed:
            r.ok()
        else:
            r.fail(f"{F} with {print_term(t)}: "
                   + ", ".join(print_term(u) for u in (bad + bad_typed)[:3]))
    return r


def suite_corpus(cfg: SuiteConfig) -> Report:
    r = Report(cfg.suite, "golden examples: reduction chains, derivations, "
                          "inhabitation, embeddings, meaningfulness verdicts", cfg)

    def expect(name: str, cond: bool):
        if cond:
            r.ok()
        else:
            r.fail(name)

    # three-step reduction chain
    t0 = parse_term("(\\x.!der !x) !y")
    s1 = reduction.step(t0, reduction.SURFACE)
    s2 = reduction.step(s1, reduction.SURFACE)
    expect("chain-1", s1 == parse_term("(!der !x)[x<-!y]"))
    expect("chain-2", s2 == parse_term("!(der !y)"))
    expect("chain-3", reduction.step(s2, reduction.SURFACE) is None
           and reduction.step(s2, reduction.FULL) == parse_term("!y"))

    # self-application derivations have the two-resource environment shape
    xx = typesys.typings_enumerate(B, parse_term("x x"), cfg.bounds)
    shaped = [check_derivation(derivation()) is None
              and env.domain() == ("x",) and len(env.get("x")) == 2
              for (env, _), derivation in xx]
    expect("xx-derivations", bool(shaped) and all(shaped))

    # identity-like inhabitation
    a = typesys.TVar("a")
    res = inhabit(B, typesys.Arrow(typesys.multi(a), typesys.multi(a)))
    expect("inhabit-arrow", res.inhabited and res.witness == parse_term("\\x.!x"))
    expect("inhabit-empty", inhabit(B, typesys.EMPTY_MULTI).witness
           == Bang(parse_term("\\z.z")))

    # meaningfulness corpus
    omega = parse_term("(\\x.x !x) !(\\x.x !x)")
    verdicts = {
        "\\z.z": "meaningful", "x x": "meaningless", "\\x.x x": "meaningless",
        "!x": "meaningful", "der !x": "meaningful",
    }
    budgets = Budgets(fuel=cfg.fuel)
    for s, want in verdicts.items():
        expect(f"meaning-{s}", meaningful(parse_term(s), budgets).status == want)
    expect("meaning-omega", meaningful(omega, budgets).status == "unknown")
    expect("meaning-x-omega", meaningful(App(Var("x"), omega), budgets).status == "unknown")

    # separation spot check
    expect("discriminate", discriminate(Bang(Var("x")), omega).separated)

    # CBN/CBV example family
    c0 = parse_term("(\\x.y x x) ((\\z.z) (\\z.z))")
    c1 = parse_term("y ((\\z.z) (\\z.z)) ((\\z.z) (\\z.z))")
    c2 = parse_term("y (\\z.z) (\\z.z)")
    expect("cbn-run", reduction.normalize(c0, cbnv.CBN, 10).term == c1)
    expect("cbv-run", reduction.normalize(c0, cbnv.CBV, 10).term == c2)
    expect("cbn-embed", cbnv.embed(cbnv.CBN, c0)
           == parse_term("(\\x. y !x !x) !((\\z.z) !(\\z.z))"))
    expect("cbv-embed", cbnv.embed(cbnv.CBV, c0)
           == parse_term("(\\x. (der (y !x)) !x) ((\\z.!z) !(\\z.!z))"))
    expect("cbn-simulate", cbnv.simulate_check(cbnv.CBN, c0, 20).projected)
    expect("cbv-simulate", cbnv.simulate_check(cbnv.CBV, c0, 20).projected)
    return r


SUITES: dict[str, Callable[[SuiteConfig], Report]] = {
    "confluence": suite_confluence,
    "diamond": suite_diamond,
    "commutation": suite_commutation,
    "measure": suite_measure,
    "grammar": suite_grammar,
    "typability": suite_typability,
    "transport": suite_transport,
    "simulation": suite_simulation,
    "transfer": suite_transfer,
    "genericity": suite_genericity,
    "corpus": suite_corpus,
}


def run_suite(cfg: SuiteConfig) -> Report:
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; "
                         f"choose from {', '.join(sorted(SUITES))}")
    start = time.monotonic()
    report = SUITES[cfg.suite](cfg)
    report.elapsed = time.monotonic() - start
    return report
