"""Rewriting at a distance: redexes, surface/full reduction, clashes,
normal-form classification, and joinability checks.

The three rules, each tolerating a stack L of interposed closures:

    L<\\x.t> u   -->dB  L<t[x<-u]>        (beta at a distance)
    t[x<-L<!u>] -->s!  L<t{x:=u}>        (substitution fires on a bang)
    der L<!t>   -->d!  L<t>              (dereliction opens a bang)

Surface reduction closes the rules under all contexts except under a
bang; full reduction has no restriction.  The call-by-name and
call-by-value calculi of `cbnv` run on the same engine under the CBN and
CBV closures, with their own substitution rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .syntax import (Abs, App, Bang, Der, Idx, Position, Sub, Term, Var,
                     peel_subs, rebuild_subs, replace_at, shift_free,
                     subst_bound)

SURFACE = "surface"
FULL = "full"
CBN, CBV = "cbn", "cbv"


class Rule(Enum):
    DB = "dB"
    SBANG = "s!"
    DBANG = "d!"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Redex:
    """A rule occurrence: root-to-redex path plus the local contractum."""

    position: Position
    rule: Rule
    contractum: Term


def contract(t: Term) -> Optional[tuple[Rule, Term]]:
    """Contract the redex rooted exactly at t, if any."""
    match t:
        case App(fun, arg):
            spine, core = peel_subs(fun)
            if isinstance(core, Abs):
                inner = Sub(core.hint, core.body, shift_free(arg, len(spine)))
                return Rule.DB, rebuild_subs(spine, inner)
        case Sub(_, body, arg):
            spine, core = peel_subs(arg)
            if isinstance(core, Bang):
                new = subst_bound(body, core.inner, len(spine))
                return Rule.SBANG, rebuild_subs(spine, new)
        case Der(arg):
            spine, core = peel_subs(arg)
            if isinstance(core, Bang):
                return Rule.DBANG, rebuild_subs(spine, core.inner)
    return None


def is_value(t: Term) -> bool:
    """Values of the call-by-value calculus."""
    return isinstance(t, (Var, Idx, Abs))


def _contract_cbnv(closure: str, t: Term) -> Optional[tuple[Rule, Term]]:
    """Contract the CBN or CBV redex rooted exactly at t, if any.  Their
    substitution rules are the preimages of s! under the embeddings."""
    match t:
        case App():
            return contract(t)
        case Sub(_, body, arg):
            if closure == CBN:
                return Rule.SBANG, subst_bound(body, arg, 0)
            spine, core = peel_subs(arg)
            if is_value(core):
                return Rule.SBANG, rebuild_subs(spine, subst_bound(body, core, len(spine)))
    return None


def subterms(t: Term, closure: str = SURFACE) -> Iterator[tuple[Position, Term]]:
    """The subterms at the positions the closure reaches, in preorder,
    which is lexicographic (leftmost-outermost) position order.

    Surface reaches everything outside bangs, full everything.  CBN
    enters abstraction bodies but no argument, CBV arguments but no
    abstraction body, and neither enters a bang or a dereliction.  The
    walk keeps its own stack, so any depth of t is safe."""
    enter_body = closure != CBV
    enter_arg = closure != CBN
    enter_der = closure in (SURFACE, FULL)
    enter_bang = closure == FULL
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        # Dispatch on the exact node class: this loop is the hot path of
        # every reduction, and it runs faster than a match statement.
        kind = type(u)
        if kind is App or kind is Sub:
            if enter_arg:
                stack.append((pos + (1,), u.arg))
            stack.append((pos + (0,), u.fun if kind is App else u.body))
        elif kind is Abs and enter_body:
            stack.append((pos + (0,), u.body))
        elif (kind is Der and enter_der) or (kind is Bang and enter_bang):
            stack.append((pos + (0,), u.inner))


def _iter_redexes(t: Term, closure: str) -> Iterator[Redex]:
    rules = contract if closure in (SURFACE, FULL) else partial(_contract_cbnv, closure)
    for pos, u in subterms(t, closure):
        hit = rules(u)
        if hit is not None:
            yield Redex(pos, *hit)


def redexes(t: Term, closure: str = SURFACE) -> list[Redex]:
    """All redexes legal under the closure, in leftmost-outermost order."""
    return list(_iter_redexes(t, closure))


def apply_redex(t: Term, r: Redex) -> Term:
    return replace_at(t, r.position, r.contractum)


def step(t: Term, closure: str = SURFACE, policy="leftmost-outermost") -> Optional[Term]:
    """One reduction step; None iff t is normal for the closure.

    policy is "leftmost-outermost" or an integer index into redexes(t).
    """
    if policy == "leftmost-outermost":
        r = next(_iter_redexes(t, closure), None)
        return None if r is None else apply_redex(t, r)
    rs = redexes(t, closure)
    return apply_redex(t, rs[policy]) if rs else None


@dataclass(frozen=True)
class ReduceOutcome:
    status: str  # "normalized" | "fuel-exhausted"
    term: Term
    steps: int
    trace: tuple[tuple[Rule, Position, Term], ...] = ()

    @property
    def normalized(self) -> bool:
        return self.status == "normalized"


def normalize(t: Term, closure: str = SURFACE, fuel: int = 1000,
              keep_trace: bool = False) -> ReduceOutcome:
    """Iterate leftmost-outermost steps until normal or out of fuel.

    Each step contracts only the first redex the walk meets."""
    trace: list[tuple[Rule, Position, Term]] = []
    steps = 0
    while (r := next(_iter_redexes(t, closure), None)) is not None:
        if steps >= fuel:
            return ReduceOutcome("fuel-exhausted", t, steps, tuple(trace))
        t = apply_redex(t, r)
        steps += 1
        if keep_trace:
            trace.append((r.rule, r.position, t))
    return ReduceOutcome("normalized", t, steps, tuple(trace))


def reducts(t: Term, closure: str = SURFACE) -> list[Term]:
    """All one-step reducts under the closure (deduplicated, ordered)."""
    return list(dict.fromkeys(apply_redex(t, r) for r in redexes(t, closure)))


# ---------------------------------------------------------------------------
# Rule-fragment reducts (for the rewriting-diagram suites)

DB_DBANG = frozenset((Rule.DB, Rule.DBANG))
SBANG_ONLY = frozenset((Rule.SBANG,))


def restricted_step(t: Term, fragment: frozenset[Rule]) -> list[Term]:
    """Full-closure one-step reducts restricted to a rule fragment."""
    return list(dict.fromkeys(apply_redex(t, r) for r in redexes(t, FULL)
                              if r.rule in fragment))


# ---------------------------------------------------------------------------
# Clashes

_CLASH_SHAPES = ("bang-applied", "abs-substituted", "der-of-abs", "arg-abs-under-non-abs")


def _clash_shapes_at(t: Term) -> list[str]:
    found = []
    match t:
        case App(fun, arg):
            _, fcore = peel_subs(fun)
            if isinstance(fcore, Bang):
                found.append("bang-applied")
            _, acore = peel_subs(arg)
            if isinstance(acore, Abs) and not isinstance(fcore, Abs):
                found.append("arg-abs-under-non-abs")
        case Sub(_, _, arg):
            _, acore = peel_subs(arg)
            if isinstance(acore, Abs):
                found.append("abs-substituted")
        case Der(inner):
            _, icore = peel_subs(inner)
            if isinstance(icore, Abs):
                found.append("der-of-abs")
    return found


def static_clashes(t: Term, closure: str = SURFACE) -> list[tuple[Position, str]]:
    """Positions (legal under the closure) matching one of the four
    ill-formed stuck shapes."""
    return [(pos, shape) for pos, u in subterms(t, closure)
            for shape in _clash_shapes_at(u)]


# ---------------------------------------------------------------------------
# Surface-normal-form grammar

class NfClass(Enum):
    NE_S = "ne"          # neutral: variable-headed
    NA_S = "na"          # argument-position normal forms
    NB_S = "nb"          # abstraction-position normal forms
    NOT_NORMAL = "not-normal"
    CLASH_NF = "clash-nf"

    @property
    def in_no_s(self) -> bool:
        return self in (NfClass.NE_S, NfClass.NA_S, NfClass.NB_S)


def _grammar_flags(t: Term) -> tuple[bool, bool, bool]:
    """(ne, na, nb) membership in the surface clash-free NF grammar."""
    match t:
        case Var() | Idx():
            return True, True, True
        case App(fun, arg):
            fne, _, _ = _grammar_flags(fun)
            _, ana, _ = _grammar_flags(arg)
            ok = fne and ana
            return ok, ok, ok
        case Der(inner):
            ine, _, _ = _grammar_flags(inner)
            return ine, ine, ine
        case Bang(_):
            return False, True, False
        case Abs(_, body):
            _, bna, bnb = _grammar_flags(body)
            ok = bna or bnb
            return False, False, ok
        case Sub(_, body, arg):
            ane, _, _ = _grammar_flags(arg)
            if not ane:
                return False, False, False
            bne, bna, bnb = _grammar_flags(body)
            return bne, bna, bnb
    raise TypeError(t)


def classify(t: Term) -> NfClass:
    """Surface classification per the clash-free NF grammar."""
    if next(_iter_redexes(t, SURFACE), None) is not None:
        return NfClass.NOT_NORMAL
    ne, na, nb = _grammar_flags(t)
    if ne:
        return NfClass.NE_S
    if na:
        return NfClass.NA_S
    if nb:
        return NfClass.NB_S
    return NfClass.CLASH_NF


# ---------------------------------------------------------------------------
# Dynamic clash-freeness and joinability

YES, NO, UNKNOWN = "yes", "no", "unknown"


@dataclass(frozen=True)
class ClashFreeReport:
    verdict: str
    witness: Optional[tuple[Term, tuple[Position, str]]] = None  # offending reduct


def clash_free(t: Term, closure: str = SURFACE, fuel: int = 1000) -> ClashFreeReport:
    """Does no reduct of t (under the closure) exhibit a clash?

    Clashes are stable under reduction, so inspecting the normalization
    path and its endpoint decides; divergence within fuel gives Unknown
    unless a clash already appeared en route.
    """
    current = t
    for _ in range(fuel):
        cs = static_clashes(current, closure)
        if cs:
            return ClashFreeReport(NO, (current, cs[0]))
        nxt = step(current, closure)
        if nxt is None:
            return ClashFreeReport(YES)
        current = nxt
    cs = static_clashes(current, closure)
    if cs:
        return ClashFreeReport(NO, (current, cs[0]))
    return ClashFreeReport(UNKNOWN)


def meet_within(u1: Term, u2: Term, succ: Callable[[Term], Iterable[Term]],
                layers: int, fixed_target: bool = False) -> bool:
    """Bounded breadth-first search: do the terms reached from u1 and from
    u2 by `succ` within `layers` rounds meet?  With fixed_target, u2 is
    not expanded, so the question is whether u1 reaches u2.  Stops early
    once they meet or neither side finds a new term."""
    seen = ({u1}, {u2})
    fronts = [{u1}, set() if fixed_target else {u2}]
    for _ in range(layers):
        if seen[0] & seen[1]:
            return True
        fronts = [{v for u in front for v in succ(u)} - old
                  for front, old in zip(fronts, seen)]
        if not any(fronts):
            break
        for old, front in zip(seen, fronts):
            old |= front
    return bool(seen[0] & seen[1])


def joinable(u1: Term, u2: Term, closure: str = SURFACE, fuel: int = 6) -> bool:
    """Breadth-bounded search for a common reduct of u1 and u2."""
    return meet_within(u1, u2, partial(reducts, closure=closure), fuel + 1)
