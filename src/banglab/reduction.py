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
step costs time linear in the depth of the term.  `redexes` and
`static_clashes` scan every position the closure reaches (`_scan`), and
build a tuple position only for what they report.

The walks and the rules dispatch on the exact node class
(`type(t) is App`, ...), as `syntax.children`, `map_leaves` and
`with_child` do: they run at every node a reduction visits, and such a
test runs several times faster than a match statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional

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
    # Dispatch on the exact node class: `_walk` calls this at every
    # position it visits, and it runs faster than a match statement.
    # Most children are not closures, so one is peeled only if it is.
    kind = type(t)
    if kind is App:
        spine, core = peel_subs(t.fun) if type(t.fun) is Sub else ((), t.fun)
        if type(core) is Abs:
            inner = Sub(core.hint, core.body, shift_free(t.arg, len(spine)))
            return Rule.DB, rebuild_subs(spine, inner)
    elif kind is Sub:
        spine, core = peel_subs(t.arg) if type(t.arg) is Sub else ((), t.arg)
        if type(core) is Bang:
            new = subst_bound(t.body, core.inner, len(spine))
            return Rule.SBANG, rebuild_subs(spine, new)
    elif kind is Der:
        spine, core = peel_subs(t.inner) if type(t.inner) is Sub else ((), t.inner)
        if type(core) is Bang:
            return Rule.DBANG, rebuild_subs(spine, core.inner)
    return None


def is_value(t: Term) -> bool:
    """Values of the call-by-value calculus."""
    return isinstance(t, (Var, Idx, Abs))


def _contract_cbnv(closure: str, t: Term) -> Optional[tuple[Rule, Term]]:
    """Contract the CBN or CBV redex rooted exactly at t, if any.  Their
    substitution rules are the preimages of s! under the embeddings."""
    kind = type(t)  # dispatch on the exact node class, as `contract` does
    if kind is App:
        return contract(t)
    if kind is Sub:
        if closure == CBN:
            return Rule.SBANG, subst_bound(t.body, t.arg, 0)
        spine, core = peel_subs(t.arg) if type(t.arg) is Sub else ((), t.arg)
        if is_value(core):
            return Rule.SBANG, rebuild_subs(spine, subst_bound(t.body, core, len(spine)))
    return None


def _rules(closure: str) -> Callable[[Term], Optional[tuple[Rule, Term]]]:
    """The contraction of the closure's rules at the root of a term."""
    return contract if closure in (SURFACE, FULL) else partial(_contract_cbnv, closure)


def _entries(closure: str) -> tuple[bool, bool, bool, bool]:
    """Which children the closure enters: abstraction bodies, arguments
    (of applications and closures), dereliction and bang contents."""
    return (closure != CBV, closure != CBN, closure in (SURFACE, FULL),
            closure == FULL)


def _scan(t: Term, closure: str, probe: Callable[[Term], Any]
          ) -> Iterator[tuple[Position, Any]]:
    """(position, probe(u)) for each subterm u at a position the closure
    reaches where the probe is truthy, in preorder, which is
    lexicographic (leftmost-outermost) position order.

    Surface reaches everything outside bangs, full everything.  CBN
    enters abstraction bodies but no argument, CBV arguments but no
    abstraction body, and neither enters a bang or a dereliction.  The
    walk keeps its own stack, so any depth of t is safe, and one list
    holds the position of the subterm it is at: a position tuple is
    built only for a hit, so a scan that reports nothing is linear in
    the size of t whatever its depth."""
    enter_body, enter_arg, enter_der, enter_bang = _entries(closure)
    path: list[int] = []
    todo: list[tuple[Term, int, int]] = [(t, 0, 0)]  # (subterm, len(position), last index)
    while todo:
        u, n, i = todo.pop()
        if n:
            path[n - 1:] = (i,)
        hit = probe(u)
        if hit:
            yield tuple(path), hit
        # Dispatch on the exact node class: this loop is a hot path, and
        # it runs faster than a match statement.
        kind = type(u)
        n += 1
        if kind is App or kind is Sub:
            if enter_arg:
                todo.append((u.arg, n, 1))
            todo.append((u.fun if kind is App else u.body, n, 0))
        elif kind is Abs and enter_body:
            todo.append((u.body, n, 0))
        elif (kind is Der and enter_der) or (kind is Bang and enter_bang):
            todo.append((u.inner, n, 0))


def redexes(t: Term, closure: str = SURFACE) -> list[Redex]:
    """All redexes legal under the closure, in leftmost-outermost order."""
    return [Redex(pos, *hit) for pos, hit in _scan(t, closure, _rules(closure))]


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
    kind = type(t)  # dispatch and peel as `contract` does
    if kind is App:
        fcore = peel_subs(t.fun)[1] if type(t.fun) is Sub else t.fun
        if type(fcore) is Bang:
            found.append("bang-applied")
        acore = peel_subs(t.arg)[1] if type(t.arg) is Sub else t.arg
        if type(acore) is Abs and type(fcore) is not Abs:
            found.append("arg-abs-under-non-abs")
    elif kind is Sub:
        acore = peel_subs(t.arg)[1] if type(t.arg) is Sub else t.arg
        if type(acore) is Abs:
            found.append("abs-substituted")
    elif kind is Der:
        icore = peel_subs(t.inner)[1] if type(t.inner) is Sub else t.inner
        if type(icore) is Abs:
            found.append("der-of-abs")
    return found


def static_clashes(t: Term, closure: str = SURFACE) -> list[tuple[Position, str]]:
    """Positions (legal under the closure) matching one of the four
    ill-formed stuck shapes."""
    return [(pos, shape) for pos, shapes in _scan(t, closure, _clash_shapes_at)
            for shape in shapes]


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
    """(ne, na, nb) membership in the surface clash-free NF grammar.

    One postorder pass on its own stack, so any depth of t is safe: a
    node is pushed as the marker (node,) below its children, and is
    decided when the marker comes back up."""
    flags: list[tuple[bool, bool, bool]] = []
    todo: list = [t]  # subterms to visit, and (node,) climb markers
    while todo:
        u = todo.pop()
        kind = type(u)
        if kind is tuple:  # the flags of u's children are on top of `flags`
            u, = u
            kind = type(u)
            if kind is App:
                ok = flags.pop()[1] and flags[-1][0]
                flags[-1] = (ok, ok, ok)
            elif kind is Sub:  # the body's flags, if the argument is neutral
                if not flags.pop()[0]:
                    flags[-1] = (False, False, False)
            elif kind is Abs:
                ok = flags[-1][1] or flags[-1][2]
                flags[-1] = (False, False, ok)
            else:  # Der
                ok = flags[-1][0]
                flags[-1] = (ok, ok, ok)
        elif kind is Var or kind is Idx:
            flags.append((True, True, True))
        elif kind is Bang:
            flags.append((False, True, False))
        elif kind is App or kind is Sub:
            todo += ((u,), u.arg, u.fun if kind is App else u.body)
        elif kind is Abs:
            todo += ((u,), u.body)
        elif kind is Der:
            todo += ((u,), u.inner)
        else:
            raise TypeError(u)
    return flags[0]


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
