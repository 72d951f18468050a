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

Leftmost-outermost reduction (`normalize`, `step` and `classify`'s test
for a redex) is one preorder walk on a zipper
(Huet, "The Zipper", JFP 1997): a stack of (parent, child index) frames
from the root down to the focus.  After a contraction the walk re-checks
a single ancestor and then resumes at the contracted position instead of
searching again from the root (`_walk` holds the proof), and a parent is
rebuilt only when the walk climbs past it with a changed child.  So a
step costs time linear in the depth of the term.  `subterms`, `redexes`
and `static_clashes` list every position and keep tuple positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .syntax import (Abs, App, Bang, Der, Idx, Path, Position, Sub, Term,
                     Var, peel_subs, rebuild_subs, replace_at, shift_free,
                     subst_bound, with_child, zip_up)

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


def _rules(closure: str) -> Callable[[Term], Optional[tuple[Rule, Term]]]:
    """The contraction of the closure's rules at the root of a term."""
    return contract if closure in (SURFACE, FULL) else partial(_contract_cbnv, closure)


def _entries(closure: str) -> tuple[bool, bool, bool, bool]:
    """Which children the closure enters: abstraction bodies, arguments
    (of applications and closures), dereliction and bang contents."""
    return (closure != CBV, closure != CBN, closure in (SURFACE, FULL),
            closure == FULL)


def subterms(t: Term, closure: str = SURFACE) -> Iterator[tuple[Position, Term]]:
    """The subterms at the positions the closure reaches, in preorder,
    which is lexicographic (leftmost-outermost) position order.

    Surface reaches everything outside bangs, full everything.  CBN
    enters abstraction bodies but no argument, CBV arguments but no
    abstraction body, and neither enters a bang or a dereliction.  The
    walk keeps its own stack, so any depth of t is safe."""
    enter_body, enter_arg, enter_der, enter_bang = _entries(closure)
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        # Dispatch on the exact node class: this loop is a hot path, and
        # it runs faster than a match statement.
        kind = type(u)
        if kind is App or kind is Sub:
            if enter_arg:
                stack.append((pos + (1,), u.arg))
            stack.append((pos + (0,), u.fun if kind is App else u.body))
        elif kind is Abs and enter_body:
            stack.append((pos + (0,), u.body))
        elif (kind is Der and enter_der) or (kind is Bang and enter_bang):
            stack.append((pos + (0,), u.inner))


def redexes(t: Term, closure: str = SURFACE) -> list[Redex]:
    """All redexes legal under the closure, in leftmost-outermost order."""
    rules = _rules(closure)
    return [Redex(pos, *hit) for pos, u in subterms(t, closure)
            if (hit := rules(u)) is not None]


def apply_redex(t: Term, r: Redex) -> Term:
    return replace_at(t, r.position, r.contractum)


def _walk(t: Term, closure: str, fuel: int,
          trace: Optional[list[tuple[Rule, Position, Term]]] = None
          ) -> tuple[Path, Term, Optional[tuple[Rule, Term]], int]:
    """Leftmost-outermost reduction of t as one preorder walk on a zipper.

    The walk checks the focus with the closure's rules.  At a redex it
    contracts in place, unless `fuel` steps are spent; at a non-redex it
    descends into the first child the closure enters, or climbs to the
    next such right sibling, rebuilding a parent on the way up only if its
    child changed; so in a frame (node, i) of the path every child of
    node but the i-th is current.  Returns the path and focus where it
    stopped, the redex found there (None when t is normal, the path then
    empty and the focus the normal form) and the number of steps.  Each
    step appends (rule, position, term) to `trace`, if one is given.

    Why the walk resumes at the contracted position p instead of at the
    root.  Before the step, no position before p in preorder was a
    redex: the walk had checked each of them.  After it:
    - A position q before p that is not an ancestor of p keeps its
      subterm, which is disjoint from p, and its closure context, which
      depends only on the node kinds on the path to q; so q is still no
      redex.
    - A rule looks below its root only through one child's closure
      spine: an application's function, a closure's argument, a
      dereliction's argument, each peeled of the closures around its
      body (`peel_subs`).  So an ancestor a of p can change its status
      only if the path from a to p is that child followed by closure
      bodies alone.  Climbing from p over the run of closure-body frames
      directly above it, the first frame met is the only such ancestor:
      every ancestor above it reaches p through that frame's child,
      which is not a closure body.
    So re-checking that one ancestor decides.  If it is now a redex, it
    is the first redex, and the focus moves up to it; otherwise the
    first redex is at or after p, and the walk continues from p.  Each
    step costs the run of closures above p plus the walk, so a step is
    linear in the depth of t, and positions are built only for `trace`.
    """
    rules = _rules(closure)
    enter_body, enter_arg, enter_der, enter_bang = _entries(closure)
    path: Path = []
    focus, steps = t, 0
    hit = rules(focus)
    while True:
        if hit is not None:
            if steps >= fuel:
                return path, focus, hit, steps
            rule, focus = hit
            steps += 1
            if trace is not None:
                trace.append((rule, tuple(i for _, i in path), zip_up(path, focus)))
            # the one ancestor whose status the step can have changed
            j, above = len(path), focus
            while j and path[j - 1][1] == 0 and type(path[j - 1][0]) is Sub:
                j -= 1
                above = with_child(*path[j], above)
            if j:
                j -= 1
                above = with_child(*path[j], above)
                hit = rules(above)
                if hit is not None:
                    del path[j:]
                    focus = above
                    continue
            hit = rules(focus)
            continue
        # Dispatch on the exact node class: this loop is the hot path of
        # every reduction, and it runs faster than a match statement.
        kind = type(focus)
        if kind is App or kind is Sub:
            path.append((focus, 0))
            focus = focus.fun if kind is App else focus.body
        elif kind is Abs and enter_body:
            path.append((focus, 0))
            focus = focus.body
        elif (kind is Der and enter_der) or (kind is Bang and enter_bang):
            path.append((focus, 0))
            focus = focus.inner
        else:
            while path:
                node, i = path.pop()
                kind = type(node)
                if i == 0 and enter_arg and (kind is App or kind is Sub):
                    path.append((with_child(node, 0, focus), 1))
                    focus = node.arg
                    break
                focus = with_child(node, i, focus)
            else:
                return path, focus, None, steps
        hit = rules(focus)


def step(t: Term, closure: str = SURFACE) -> Optional[Term]:
    """One leftmost-outermost reduction step; None iff t is normal for the
    closure.  To contract another redex, pick it from redexes(t, closure)
    and pass it to apply_redex."""
    path, _, hit, _ = _walk(t, closure, 0)
    return None if hit is None else zip_up(path, hit[1])


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
    """Iterate leftmost-outermost steps until normal or out of fuel, in one
    walk (`_walk`) that resumes each search where the last step was."""
    trace: list[tuple[Rule, Position, Term]] = []
    path, focus, hit, steps = _walk(t, closure, fuel, trace if keep_trace else None)
    status = "normalized" if hit is None else "fuel-exhausted"
    return ReduceOutcome(status, zip_up(path, focus), steps, tuple(trace))


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
    if _walk(t, SURFACE, 0)[2] is not None:
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
# Joinability


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
