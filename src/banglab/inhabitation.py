"""Bounded inhabitation proving and the testability predicate.

A type is inhabited when some closed term receives it under the empty
environment.  The prover runs goal-directed search over normal-form
witnesses with iterative deepening on witness size, up to
MAX_WITNESS_SIZE nodes.  The type bounds a caller passes bound only the
derivation of the witness found; a multitype from an environment or an
argument is a goal like any other.  Definite negative answers come only
from shape contradictions: a closed normal witness is a bang at
multitype types and an abstraction at arrow types, so a goal demanding
both at once (or a bare type variable) is closed off without search.
Whatever the bounded search misses stays Unknown.

System differences follow the observable-type analysis: in N a
multitype is inhabited when one witness inhabits every element; in V
closed typings are always multitypes, so arrows and type variables are
uninhabited outright.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator, Optional

from .syntax import App, Bang, Der, I, Term, Var, lam
from .typesys import (Arrow, B, Bounds, Derivation, EMPTY_ENV, EMPTY_MULTI,
                      Env, Multi, N, TVar, Type, V, args,
                      find_derivation, multi, typing_pairs)

INHABITED, NOT_INHABITED, UNKNOWN = "inhabited", "not-inhabited", "unknown"


@dataclass(frozen=True)
class InhResult:
    """An inhabitation answer.  `derive` builds the derivation of a B
    witness at its goal, within the bounds the goal was asked at; it runs
    the first time `derivation` is read, whose value is kept."""

    status: str
    witness: Optional[Term] = None
    reason: str = ""
    derive: Optional[Callable[[], Optional[Derivation]]] = field(
        default=None, repr=False, compare=False)

    @property
    def inhabited(self) -> bool:
        return self.status == INHABITED

    @cached_property
    def derivation(self) -> Optional[Derivation]:
        """The witness's derivation at the goal, or None: in N and V, and
        when the goal lies past the bounds."""
        return self.derive() if self.derive is not None else None


MAX_WITNESS_SIZE = 7  # the node cap of the iterative deepening


# ---------------------------------------------------------------------------
# Shape contradictions (definite negatives)


def _shape_refutation(sys: str, t: Type) -> Optional[str]:
    """A reason string when no closed witness can exist, else None."""
    if sys == B:
        if isinstance(t, TVar):
            return "a closed normal witness would be a bang, typed by a multitype"
        if isinstance(t, Multi):
            return _refute_b_elements(t.elems)
        return None
    if sys == N:
        if isinstance(t, TVar):
            return "closed terms conclude with the abs rule, never a type variable"
        return None
    if sys == V:
        if isinstance(t, TVar):
            return "closed value typings are multitypes, not type variables"
        if isinstance(t, Arrow):
            return "closed value typings are multitypes, not arrows"
        return None
    raise ValueError(sys)


def _refute_b_elements(elems: tuple[Type, ...]) -> Optional[str]:
    """All elements must be types of one shared closed normal witness."""
    if any(isinstance(e, TVar) for e in elems):
        return "no closed term receives a type variable"
    arrows = [e for e in elems if isinstance(e, Arrow)]
    multis = [e for e in elems if isinstance(e, Multi)]
    if arrows and multis:
        return "one closed normal witness cannot be both an abstraction and a bang"
    if multis:
        # The shared witness is a bang; flatten into its premise demands.
        inner = tuple(e for m in multis for e in m.elems)
        return _refute_b_elements(inner) if inner else None
    return None


# ---------------------------------------------------------------------------
# Witness search (normal forms, exact environment consumption)


@lru_cache(maxsize=None)
def _accepts(sys: str, t: Term, env: Env, goal: Type) -> bool:
    """Does t admit the typing (env, goal)?  Checked by enumeration, so a
    miss beyond the default bounds only costs completeness."""
    return (env, goal) in typing_pairs(sys, t, Bounds())


def _env_splits(env: Env, k: int) -> Iterator[tuple[Env, ...]]:
    """All ways to split env into k environments summing to it."""
    if k == 1:
        yield (env,)
        return
    items = env.items
    if not items:
        yield tuple(EMPTY_ENV for _ in range(k))
        return

    def split_elems(elems: tuple, k: int) -> Iterator[tuple[tuple, ...]]:
        if not elems:
            yield tuple(() for _ in range(k))
            return
        head, rest = elems[0], elems[1:]
        for tail in split_elems(rest, k):
            for i in range(k):
                yield tuple(t + (head,) if i == j else t for j, t in enumerate(tail))

    per_var = []
    for name, m in items:
        per_var.append([(name, parts) for parts in split_elems(m.elems, k)])
    for assignment in itertools.product(*per_var):
        out = []
        for i in range(k):
            out.append(Env(tuple((name, Multi(parts[i])) for name, parts in assignment)))
        yield tuple(out)


def _gen_goal(sys: str, env: Env, goal: Type, size: int, depth: int) -> Iterator[Term]:
    """Normal-form terms t of exactly `size` nodes with env |- t : goal.

    The environment is consumed exactly (relevance).  The search covers
    variables, abstractions, bangs (B), derelictions (B), and head
    applications with empty-multitype arguments; that is complete enough
    for the testing-context tool chain and stays sound by construction.
    """
    if size < 1:
        return
    if size == 1:
        if sys == V:
            if isinstance(goal, Multi):
                if not goal.elems:
                    if env == EMPTY_ENV:
                        yield Var("u")
                elif len(env.items) == 1 and env.items[0][1] == goal:
                    yield Var(env.items[0][0])
        else:
            if len(env.items) == 1:
                name, m = env.items[0]
                if m == multi(goal):
                    yield Var(name)
        return

    if isinstance(goal, Arrow) and sys in (B, N):
        name = f"w{depth}"
        inner_env = env.add(name, goal.dom) if goal.dom.elems else env
        for body in _gen_goal(sys, inner_env, goal.cod, size - 1, depth + 1):
            yield lam(name, body)

    if isinstance(goal, Multi) and sys == B:
        if not goal.elems:
            if env == EMPTY_ENV:
                yield Bang(I)
            return
        first, *rest = goal.elems
        for split in _env_splits(env, len(goal.elems)):
            for w in _gen_goal(sys, split[0], first, size - 1, depth):
                if all(_accepts(sys, w, split[i + 1], e) for i, e in enumerate(rest)):
                    yield Bang(w)
        return

    if sys == B:
        # der w : goal from w : [goal]
        for w in _gen_goal(sys, env, multi(goal), size - 1, depth):
            yield Der(w)

    if sys in (B, N) and size >= 3 and env.items:
        # head application with an erasable argument
        if sys == B:
            for fun_size in range(1, size - 1):
                for fun in _gen_goal(sys, env, Arrow(EMPTY_MULTI, goal), fun_size, depth):
                    for arg in _gen_goal(sys, EMPTY_ENV, EMPTY_MULTI, size - 1 - fun_size, depth):
                        yield App(fun, arg)
        else:
            for fun in _gen_goal(sys, env, Arrow(EMPTY_MULTI, goal), size - 3, depth):
                yield App(fun, I)


# ---------------------------------------------------------------------------
# Public prover


@lru_cache(maxsize=None)
def inhabit(sys: str, goal: Type, bounds: Bounds = Bounds()) -> InhResult:
    """Three-valued bounded inhabitation of a single type.  Memoised: the
    answer and its witness are found once per goal, and a B witness's
    derivation is built the first time it is read (see InhResult), so a
    caller that reads only the witness, as meaningfulness does, never
    builds it."""
    reason = _shape_refutation(sys, goal)
    if reason is not None:
        return InhResult(NOT_INHABITED, reason=reason)
    if sys == N and isinstance(goal, Multi):
        return _inhabit_n_multi(goal)
    if sys == V:
        return _inhabit_v(goal)
    for size in range(1, MAX_WITNESS_SIZE + 1):
        for w in _gen_goal(sys, EMPTY_ENV, goal, size, 0):
            return InhResult(INHABITED, witness=w, derive=partial(
                find_derivation, sys, w, (EMPTY_ENV, goal), bounds))
    return InhResult(UNKNOWN, reason="no witness within search bounds")


def _inhabit_n_multi(goal: Multi) -> InhResult:
    """N-multitypes need one witness typed at every element."""
    if not goal.elems:
        return InhResult(INHABITED, witness=I)
    for e in goal.elems:
        r = _shape_refutation(N, e)
        if r is not None:
            return InhResult(NOT_INHABITED, reason=r)
        if isinstance(e, Multi):
            return InhResult(NOT_INHABITED,
                             reason="closed N-typings conclude with arrows, not multitypes")
    first, *rest = goal.elems
    for size in range(1, MAX_WITNESS_SIZE + 1):
        for w in _gen_goal(N, EMPTY_ENV, first, size, 0):
            if all(_accepts(N, w, EMPTY_ENV, e) for e in rest):
                return InhResult(INHABITED, witness=w)
    return InhResult(UNKNOWN, reason="no shared witness within search bounds")


def _inhabit_v(goal: Type) -> InhResult:
    assert isinstance(goal, Multi)
    if not goal.elems:
        return InhResult(INHABITED, witness=I)
    if any(not isinstance(e, Arrow) for e in goal.elems):
        return InhResult(NOT_INHABITED,
                         reason="value witnesses receive multisets of arrows only")
    first = goal.elems[0]
    name = "w0"
    env0 = Env(((name, first.dom),)) if first.dom.elems else EMPTY_ENV
    for size in range(1, MAX_WITNESS_SIZE + 1):
        for body in _gen_goal(V, env0, first.cod, size, 1):
            w = lam(name, body)
            if all(_accepts(V, w, EMPTY_ENV, Multi((a,))) for a in goal.elems):
                return InhResult(INHABITED, witness=w)
    return InhResult(UNKNOWN, reason="no witness within search bounds")


# ---------------------------------------------------------------------------
# Testability

YES, NO = "yes", "no"


@dataclass(frozen=True)
class Testability:
    verdict: str  # yes | no | unknown
    env_results: tuple[tuple[str, InhResult], ...] = ()
    args_results: tuple[tuple[Multi, InhResult], ...] = ()


def testable(sys: str, typing: tuple[Env, Type], bounds: Bounds = Bounds()
             ) -> Testability:
    """A typing is testable when its environment image and the argument
    multitypes of its type are all inhabited; witnesses are retained for
    testing-context construction."""
    env, ty = typing
    env_results = tuple((n, inhabit(sys, m, bounds)) for n, m in env.items)
    args_results = tuple((m, inhabit(sys, m, bounds)) for m in args(sys, ty))
    statuses = [r.status for _, r in env_results] + [r.status for _, r in args_results]
    if any(s == NOT_INHABITED for s in statuses):
        return Testability(NO, env_results, args_results)
    if all(s == INHABITED for s in statuses):
        return Testability(YES, env_results, args_results)
    return Testability(UNKNOWN, env_results, args_results)
