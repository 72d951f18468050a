"""Meaningfulness for the bang calculus.

A term is meaningful when some testing context (hole in function
position, possibly under applied abstractions) sends it to a bang by
surface reduction.  The checker decides this logically: surface
normalize, classify, then hunt for a typing of the normal form whose
environment and argument multitypes are inhabited; from such a typing
and its witnesses a concrete testing context is synthesized and
replayed before the verdict is issued.

Negative verdicts are only produced from a clash normal form or from a
typing-shape conflict forcing an uninhabitable multitype in every
typing (the self-application pattern); fuel exhaustion and bound
exhaustion stay Unknown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import reduction
from .inhabitation import Testability, testable
from .reduction import normalize
from .syntax import (Abs, App, AppFun, AbsBody, Bang, Ctx, TESTING, Term,
                     Var, free_vars, fresh_name, open_var, parse_term, plug,
                     print_term)
from .typesys import (Arrow, B, Bounds, Derivation, Env, Judgment, Type,
                      canon_typing, observable, typings_enumerate)

MEANINGFUL, MEANINGLESS, UNKNOWN = "meaningful", "meaningless", "unknown"


MAX_TYPINGS = 2000  # distinct typings of a normal form that meaningful tries


@dataclass(frozen=True)
class Budgets:
    fuel: int = 200
    type_bounds: Bounds = Bounds()


@dataclass(frozen=True)
class Evidence:
    """Replayable support for a meaningful verdict."""

    context: Ctx
    typing: tuple[Env, Type]
    derivation: Optional[Derivation]
    result: Term          # the bang the plugged term reduces to
    steps: int


@dataclass(frozen=True)
class MeaningVerdict:
    status: str
    reason: str = ""
    evidence: Optional[Evidence] = None
    normal_form: Optional[Term] = None

    @property
    def meaningful(self) -> bool:
        return self.status == MEANINGFUL

    @property
    def meaningless(self) -> bool:
        return self.status == MEANINGLESS


# ---------------------------------------------------------------------------
# Typing-shape conflicts: self-application forces an uninhabitable env


def meaningless_certificate(nf: Term) -> Optional[str]:
    """A reason when every typing of the (clash-free normal form) nf is
    untestable because some variable is forced to carry both an arrow
    and a multitype.  Conservative: only the self-application spine and
    its abstraction closures are recognized."""
    match nf:
        case Abs(hint, body):
            return meaningless_certificate(
                open_var(body, fresh_name(hint or "x", free_vars(body))))
        case App():
            head, spine_args = _app_spine(nf)
            if isinstance(head, Var) and any(a == head for a in spine_args):
                return (f"every typing forces {head.name} to carry both an arrow "
                        "and a multitype, which no closed term inhabits")
            return None
    return None


def _app_spine(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    return t, list(reversed(args))


# ---------------------------------------------------------------------------
# Testing-context synthesis


def build_testing_context(typing: tuple[Env, Type], testability: Testability) -> Ctx:
    """The testing context induced by a testable typing.

    Environment bindings x : M become wrappers (\\x.[]) w_x around the
    hole (capture intended); then one argument witness is applied per
    arrow of the type, down to the first observable (repeated domains
    reuse their witness).
    """
    if testability.verdict != "yes":
        raise ValueError("typing is not testable; no context can be built")
    env, ty = typing
    frames: list = []
    env_wit = dict(testability.env_results)
    for name, _m in env.items:
        w = env_wit[name].witness
        if w is None:
            raise ValueError(f"missing witness for environment binding {name}")
        frames += [AppFun(w), AbsBody(name)]
    wit_by_multi = {m: res.witness for m, res in testability.args_results}
    arg_frames: list = []
    cursor = ty
    while not observable(B, cursor) and isinstance(cursor, Arrow):
        w = wit_by_multi.get(cursor.dom)
        if w is None:
            raise ValueError("missing witness for an argument multitype")
        arg_frames = [AppFun(w)] + arg_frames
        cursor = cursor.cod
    return Ctx(TESTING, tuple(arg_frames + frames))


def replay(ctx: Ctx, t: Term, fuel: int) -> Optional[tuple[Term, int]]:
    """Surface-normalize the plugged term; the bang it reaches, if any."""
    out = normalize(plug(ctx, t), reduction.SURFACE, fuel)
    if out.normalized and isinstance(out.term, Bang):
        return out.term, out.steps
    return None


# ---------------------------------------------------------------------------
# The main verdict pipeline


def meaningful(t: Term, budgets: Budgets = Budgets()) -> MeaningVerdict:
    out = normalize(t, reduction.SURFACE, budgets.fuel)
    if not out.normalized:
        return MeaningVerdict(UNKNOWN, reason="divergence-suspected: fuel exhausted",
                              normal_form=out.term)
    nf = out.term
    cls = reduction.classify(nf)
    if not cls.in_no_s:
        return MeaningVerdict(MEANINGLESS, reason="clash normal form", normal_form=nf)

    cert = meaningless_certificate(nf)
    if cert is not None:
        return MeaningVerdict(MEANINGLESS, reason=cert, normal_form=nf)

    seen = set()
    for typing, derivation in typings_enumerate(B, nf, budgets.type_bounds):
        pair = canon_typing(typing)
        if pair in seen:
            continue
        seen.add(pair)
        if len(seen) > MAX_TYPINGS:
            break
        ta = testable(B, typing, budgets.type_bounds)
        if ta.verdict != "yes":
            continue
        ctx = build_testing_context(typing, ta)
        hit = replay(ctx, t, budgets.fuel * 4 + 400)
        if hit is None:
            raise RuntimeError(
                f"testable typing failed to replay: {print_term(t)} in {ctx}")
        return MeaningVerdict(
            MEANINGFUL, reason="testable typing of the normal form",
            evidence=Evidence(ctx, typing, derivation(), hit[0], hit[1]),
            normal_form=nf)
    return MeaningVerdict(UNKNOWN, reason="no testable typing within bounds",
                          normal_form=nf)


# ---------------------------------------------------------------------------
# Per-node testability (derivations supporting meaningful verdicts)


@dataclass(frozen=True)
class NodeReport:
    judgment: Judgment
    verdict: str


def check_testable_everywhere(d: Derivation,
                              bounds: Bounds = Bounds()) -> tuple[bool, list[NodeReport]]:
    """Whether every judgment in the derivation has a testable typing.

    Testability propagates from the conclusion upward, so a derivation
    with a testable conclusion should report no definite 'no' node;
    Unknown nodes are listed for inspection."""
    reports = [NodeReport(j, testable(d.system, j.typing, bounds).verdict)
               for j in d.all_judgments()]
    return all(r.verdict == "yes" for r in reports), reports


# ---------------------------------------------------------------------------
# Operational cross-check: bounded testing-context search

_POOL = (parse_term("!!y"), parse_term("!(\\z.z)"), parse_term("!(\\u.\\z.z)"))


def testing_contexts(fvs: Sequence[str], depth: int) -> Iterator[Ctx]:
    """All testing contexts up to `depth` layers, arguments drawn from
    the canonical pool, binders drawn from the given free variables."""
    layer_options: list[tuple] = []
    for s in _POOL:
        layer_options.append((AppFun(s),))
        for x in fvs:
            layer_options.append((AppFun(s), AbsBody(x)))
    for k in range(depth + 1):
        for combo in itertools.product(layer_options, repeat=k):
            frames = tuple(f for layer in combo for f in layer)
            yield Ctx(TESTING, frames)


def search_testing_context(t: Term, depth: int = 3, fuel: int = 400
                           ) -> Optional[tuple[Ctx, Term]]:
    """Operational fallback: hunt for a testing context sending t to a
    bang.  Independent of the typing route; used to cross-check it."""
    for ctx in testing_contexts(sorted(free_vars(t)), depth):
        out = normalize(plug(ctx, t), reduction.SURFACE, fuel)
        if out.normalized and isinstance(out.term, Bang):
            return ctx, out.term
    return None


# ---------------------------------------------------------------------------
# Genericity harness


@dataclass(frozen=True)
class GenericityReport:
    applicable: bool
    base_verdict: MeaningVerdict
    sample_verdicts: tuple[tuple[Term, str], ...] = ()
    typed_transport: tuple[tuple[Term, bool], ...] = ()
    failures: tuple[Term, ...] = ()


def genericity_check(F: Ctx, t_meaningless: Term, samples: Sequence[Term],
                     budgets: Budgets = Budgets()) -> GenericityReport:
    """If F<t> is meaningful for a meaningless t, then F<u> must be
    meaningful for every u; the typed variant transports the very same
    typing."""
    vt = meaningful(t_meaningless, budgets)
    if not vt.meaningless:
        return GenericityReport(False, vt)
    base = meaningful(plug(F, t_meaningless), budgets)
    if not base.meaningful:
        return GenericityReport(False, base)
    target = canon_typing(base.evidence.typing)
    verdicts = []
    transported = []
    failures = []
    for u in samples:
        v = meaningful(plug(F, u), budgets)
        verdicts.append((u, v.status))
        if v.status == MEANINGLESS:
            failures.append(u)
        same = v.meaningful and _admits_typing(v.normal_form, target, budgets)
        transported.append((u, same))
    return GenericityReport(True, base, tuple(verdicts), tuple(transported),
                            tuple(failures))


def _admits_typing(nf: Term, canon_target, budgets: Budgets) -> bool:
    """Whether the normal form nf has a typing equal to canon_target."""
    return any(canon_typing(typing) == canon_target
               for typing, _ in typings_enumerate(B, nf, budgets.type_bounds))


# ---------------------------------------------------------------------------
# Discrimination sampling


@dataclass(frozen=True)
class Discrimination:
    separated: bool
    context: Optional[Ctx] = None
    left: Optional[MeaningVerdict] = None
    right: Optional[MeaningVerdict] = None
    note: str = ""


def _separates(a: MeaningVerdict, b: MeaningVerdict) -> bool:
    if not a.meaningful:
        return False
    return b.meaningless or (b.status == UNKNOWN and "divergence" in b.reason)


def discriminate(t: Term, u: Term, ctx_samples: Sequence[Ctx] = (),
                 budgets: Budgets = Budgets()) -> Discrimination:
    """Search sampled full contexts for one where the verdicts differ.

    A separation pairs a replayed meaningful verdict against a
    meaningless one (or a suspected-divergent Unknown, in which case the
    note records that the evidence is budget-relative)."""
    contexts = [Ctx(TESTING, ())] + list(ctx_samples)
    for F in contexts:
        vt = meaningful(plug(F, t), budgets)
        vu = meaningful(plug(F, u), budgets)
        for a, b, flip in ((vt, vu, False), (vu, vt, True)):
            if _separates(a, b):
                note = ("separation is budget-relative on the divergent side"
                        if b.status == UNKNOWN else "")
                return Discrimination(True, F, vt, vu, note)
    return Discrimination(False, note="indistinguishable so far at these budgets")
