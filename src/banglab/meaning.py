"""Meaningfulness for the bang calculus.

A term is meaningful when some testing context (hole in function
position, possibly under applied abstractions) sends it to a bang by
surface reduction.  The checker decides this logically: surface
normalize, classify, then look for a typing of the normal form whose
environment and argument multitypes are inhabited; from such a typing
and its witnesses a concrete testing context is synthesized and
replayed before the verdict is issued.

The typing tried first is the canonical one, read off the derivation
`typesys.canonical_nf_derivation` builds by structural recursion on the
normal form, with no depth bound.  Any testable typing will do: by the
characterization (a term is meaningful iff its normal form has a
testable typing), a testable typing induces a testing context that
sends the term to a bang, so its replay succeeds.  Only when the
canonical typing is not testable does the checker fall back to the
bounded enumeration of typings (`meaningful_by_enumeration`).

Negative verdicts are only produced from a clash normal form or from
the shapes the typing rules force on the variables outside every bang
(`meaningless_certificate`): when the occurrences of a free variable,
or of a binder of the normal form's leading abstractions, demand an
arrow and a multitype at one level of its multitype, no typing is
testable.  That check is one linear walk and runs before any typing is
built.  An unknown verdict names the budget that ran out: fuel, the
MAX_TYPINGS cap of the fallback, or the type bounds (card/depth/pool)
that end its typing stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import reduction
from .inhabitation import Testability, testable
from .reduction import normalize
from .syntax import (Abs, App, AppFun, AbsBody, Bang, Ctx, Der, Idx, Sub,
                     TESTING, Term, Var, free_vars, parse_term, plug,
                     print_term)
from .typesys import (Arrow, B, Bounds, Derivation, Env, Type,
                      canon_typing, canonical_nf_derivation, observable,
                      typings_enumerate)

MEANINGFUL, MEANINGLESS, UNKNOWN = "meaningful", "meaningless", "unknown"


MAX_TYPINGS = 2000  # distinct typings of a normal form the fallback tries


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
# Forced shapes: occurrences outside every bang that no closed term can meet

# A demand is the shape an occurrence's position forces on its type: an
# arrow, a multitype (the tuple of its elements' known demands), or None
# when the position forces nothing.
_ARROW = "arrow"
_LEAVE_ABS, _LEAVE_SUB = object(), object()  # climb markers of the walk


def meaningless_certificate(nf: Term) -> Optional[str]:
    """A reason when no typing of the clash-free normal form nf is
    testable, read off the shapes its typing rules force; else None.

    In system B every node outside a bang is the subject of exactly one
    judgment of a derivation: the bang rule is the only one that may type
    its body many times or none.  So in every derivation of nf each
    occurrence of a variable outside every bang is typed by one axiom
    x : [s] |- x : s, and the rules typing the nodes above it force the
    shape of s: a closure's body has the closure's type; the function of
    an application has an arrow type, its argument a multitype; `der u`
    types u by a multitype [s'] whose one element is the type of the
    `der`; the argument of a closure t[z<-u] has the multitype the
    environment of t gives z, which holds the types of z's occurrences
    in t.  Every rule sums its premises' environments, so for
    each free variable x the environment of every typing gives x a
    multitype holding one element of the forced shape per occurrence; and
    for each binder of an abstraction reached from the root through
    abstraction and closure bodies, the type of every typing has an arrow
    whose domain does the same; arrows are not observable in B, so that
    domain is one of the type's argument multitypes (`typesys.args`).

    The walk collects these demands, with the elements the positions do
    not fix left out, and refutes a variable's list of them by the rule
    of `inhabitation._refute_b_elements`.  That rule only grows stronger
    as elements are added or made more precise, so it refutes every
    multitype that meets the demands: no closed term inhabits it.  Then
    no typing of nf has an inhabited environment and inhabited argument
    multitypes, so none is testable, and by the characterization (a term
    is meaningful iff its normal form has a testable typing) the term is
    meaningless.

    One walk with its own stack, so any depth of nf is safe.  A binder's
    demands are kept on `binders` while its body is walked, so an index
    finds its binder by position.  Below the body it pushes a climb
    marker that carries, in the demand's place, the abstraction's hint or
    the closure's argument: the closure's argument is walked after its
    body, under the demand its binder collected there."""
    free: dict[str, list] = {}
    binders: list[list] = []
    todo: list = [(nf, None, True)]  # (node, its demand, on the root's spine)
    while todo:
        u, demand, top = todo.pop()
        kind = type(u)
        if kind is Var:
            if demand is not None:
                free.setdefault(u.name, []).append(demand)
        elif kind is Idx:
            if demand is not None:
                binders[-1 - u.k].append(demand)
        elif kind is App:
            todo.append((u.arg, (), False))
            todo.append((u.fun, _ARROW, False))
        elif kind is Der:
            todo.append((u.inner, () if demand is None else (demand,), False))
        elif kind is Abs:
            binders.append([])
            todo.append((_LEAVE_ABS, u.hint, top))
            todo.append((u.body, None, top))
        elif kind is Sub:
            binders.append([])
            todo.append((_LEAVE_SUB, u.arg, None))
            todo.append((u.body, demand, top))
        elif u is _LEAVE_SUB:
            todo.append((demand, tuple(binders.pop()), False))
        elif u is _LEAVE_ABS:
            demands = binders.pop()
            level = _refuted(demands) if top else None
            if level is not None:
                return _conflict(demand or "x", level)
        # a bang's body may be typed any number of times: it forces nothing
    for name in sorted(free):
        level = _refuted(free[name])
        if level is not None:
            return _conflict(name, level)
    return None


def _refuted(demands: list) -> Optional[int]:
    """How many multitypes deep the rule of
    `inhabitation._refute_b_elements` refutes the demands, or None."""
    level = 0
    while demands:
        multis = [d for d in demands if d is not _ARROW]
        if len(multis) < len(demands):
            return level if multis else None
        demands = [e for m in multis for e in m]
        level += 1
    return None


def _conflict(name: str, level: int) -> str:
    nested = f" at nesting level {level}" if level else ""
    return (f"every typing forces {name} to carry both an arrow and a "
            f"multitype{nested}, which no closed term inhabits")


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


class ReplayFailure(RuntimeError):
    """A testable typing whose testing context did not send the term to a
    bang: an internal invariant of the checker failed."""

    def __init__(self, term: Term, context: Ctx):
        super().__init__(
            f"testable typing failed to replay: {print_term(term)} in {context}")
        self.term = term
        self.context = context


def meaningful(t: Term, budgets: Budgets = Budgets()) -> MeaningVerdict:
    """The verdict on t.  A divergent term stays unknown, a clash normal
    form or a normal form whose forced shapes no closed term meets
    (meaningless_certificate) is meaningless.  Otherwise the
    canonical typing of the normal form (canonical_nf_derivation) is
    tried first: any testable typing of the normal form makes t
    meaningful, by the characterization, so the context it induces
    replays.  Only when that typing is not testable does the bounded
    enumeration (meaningful_by_enumeration) look for another."""
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

    derivation = canonical_nf_derivation(nf)
    typing = derivation.conclusion.typing
    ta = testable(B, typing, budgets.type_bounds)
    if ta.verdict == "yes":
        return _replayed(t, nf, typing, ta, derivation, budgets)
    return meaningful_by_enumeration(t, nf, budgets)


def meaningful_by_enumeration(t: Term, nf: Term, budgets: Budgets) -> MeaningVerdict:
    """Meaningful or unknown for t, whose clash-free surface normal form
    is nf, from the first testable typing among at most MAX_TYPINGS
    distinct typings of nf within the type bounds."""
    seen = set()
    for typing, derivation in typings_enumerate(B, nf, budgets.type_bounds):
        pair = canon_typing(typing)
        if pair in seen:
            continue
        seen.add(pair)
        if len(seen) > MAX_TYPINGS:
            return MeaningVerdict(
                UNKNOWN, reason=f"max_typings exhausted: no testable typing among "
                f"the first {MAX_TYPINGS} distinct typings", normal_form=nf)
        ta = testable(B, typing, budgets.type_bounds)
        if ta.verdict == "yes":
            return _replayed(t, nf, typing, ta, derivation(), budgets)
    return MeaningVerdict(UNKNOWN, reason="type bounds exhausted: no testable "
                          "typing within card/depth/pool", normal_form=nf)


def _replayed(t: Term, nf: Term, typing: tuple[Env, Type], ta: Testability,
              derivation: Derivation, budgets: Budgets) -> MeaningVerdict:
    """The meaningful verdict a testable typing of nf supports, once its
    testing context has been replayed on t."""
    ctx = build_testing_context(typing, ta)
    hit = replay(ctx, t, budgets.fuel * 4 + 400)
    if hit is None:
        raise ReplayFailure(t, ctx)
    return MeaningVerdict(
        MEANINGFUL, reason="testable typing of the normal form",
        evidence=Evidence(ctx, typing, derivation, hit[0], hit[1]),
        normal_form=nf)


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
# Discrimination


@dataclass(frozen=True)
class Discrimination:
    separated: bool
    context: Optional[Ctx] = None
    note: str = ""


def _separates(a: MeaningVerdict, b: MeaningVerdict) -> bool:
    if not a.meaningful:
        return False
    return b.meaningless or (b.status == UNKNOWN and "divergence" in b.reason)


def discriminate(t: Term, u: Term, budgets: Budgets = Budgets()) -> Discrimination:
    """Do the verdicts of t and u differ in the empty testing context?

    A separation pairs a replayed meaningful verdict against a
    meaningless one (or a suspected-divergent Unknown, in which case the
    note records that the evidence is budget-relative)."""
    vt, vu = meaningful(t, budgets), meaningful(u, budgets)
    for a, b in ((vt, vu), (vu, vt)):
        if _separates(a, b):
            note = ("separation is budget-relative on the divergent side"
                    if b.status == UNKNOWN else "")
            return Discrimination(True, Ctx(TESTING, ()), note)
    return Discrimination(False, note="indistinguishable so far at these budgets")
