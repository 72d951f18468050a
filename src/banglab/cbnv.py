"""The call-by-name and call-by-value calculi and their embeddings.

Both calculi share the bang-free, dereliction-free term fragment
(variables, abstractions, applications, closures) and the distant beta
rule; they differ in the surface contexts and the substitution rule:

    CBN:  t[x<-u]      -> t{x:=u}          anywhere surface, under lambda
    CBV:  t[x<-L<v>]   -> L<t{x:=v}>       v a value; never under lambda

Both run on the engine of `reduction`: `step`, `reducts` and `normalize`
take the tag (CBN or CBV) as their closure.

The embeddings decorate terms with bangs so that CBN arguments and CBV
values become substitutable; the CBV application case strips a banged
function core to keep normal forms aligned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Optional

from . import meaning, reduction
from .meaning import Budgets, MeaningVerdict, MEANINGFUL, UNKNOWN
from .reduction import CBN, CBV, is_value
from .syntax import (Abs, App, AppFun, AbsBody, Bang, Ctx, Der, FULL, HOLE, I,
                     Idx, Sub, Term, TESTING, Var, context_of,
                     fresh_name, free_vars, lam, open_var, peel_subs, plug,
                     print_term, rebuild_subs)
# Not called here; bench/instrument.py wraps these two names in this module.
from .syntax import shift_free, subst_bound  # noqa: F401


def is_cterm(t: Term) -> bool:
    """Membership in the shared bang-free fragment."""
    match t:
        case Var() | Idx():
            return True
        case Abs(_, body):
            return is_cterm(body)
        case App(fun, arg):
            return is_cterm(fun) and is_cterm(arg)
        case Sub(_, body, arg):
            return is_cterm(body) and is_cterm(arg)
        case Bang() | Der():
            return False
    if t == HOLE:
        return True
    raise TypeError(t)


def require_cterm(t: Term):
    if not is_cterm(t):
        raise ValueError(f"not a bang-free term: {print_term(t)}")


# ---------------------------------------------------------------------------
# Embeddings into the bang calculus


def embed(tag: str, t: Term) -> Term:
    require_cterm(t)
    return _embed_cbn(t) if tag == CBN else _embed_cbv(t)


def _embed_cbn(t: Term) -> Term:
    match t:
        case Var() | Idx():
            return t
        case Abs(h, body):
            return Abs(h, _embed_cbn(body))
        case App(fun, arg):
            return App(_embed_cbn(fun), Bang(_embed_cbn(arg)))
        case Sub(h, body, arg):
            return Sub(h, _embed_cbn(body), Bang(_embed_cbn(arg)))
    if t == HOLE:
        return t
    raise TypeError(t)


def _embed_cbv(t: Term) -> Term:
    match t:
        case Var() | Idx():
            return Bang(t)
        case Abs(h, body):
            return Bang(Abs(h, _embed_cbv(body)))
        case App(fun, arg):
            f = _embed_cbv(fun)
            spine, core = peel_subs(f)
            if isinstance(core, Bang):
                return App(rebuild_subs(spine, core.inner), _embed_cbv(arg))
            return App(Der(f), _embed_cbv(arg))
        case Sub(h, body, arg):
            return Sub(h, _embed_cbv(body), _embed_cbv(arg))
    if t == HOLE:
        return t
    raise TypeError(t)


def embed_ctx(tag: str, c: Ctx) -> Ctx:
    """Embed a context, mapping the hole to the hole.

    Each frame is plugged with HOLE, embedded like a term and read back
    into frames.  It goes frame by frame because embedding the whole
    plugged context could rename a shadowing binder and change what the
    hole captures.  A bang or dereliction frame raises ValueError, as
    embed does for a term with one.

    For CBV the application case cannot inspect a hole in function
    position, so the dereliction branch is used there; the embedding of
    a plugged term then agrees up to administrative dereliction steps.
    """
    frames: list = []
    for f in c.frames:
        frames += context_of(embed(tag, plug(Ctx(FULL, (f,)), HOLE))).frames
    return Ctx(FULL, tuple(frames))


def unembed(tag: str, t: Term) -> Optional[Term]:
    """Inverse image of the embedding; None when t is not in the image."""
    return _unembed_cbn(t) if tag == CBN else _unembed_cbv(t)


def _unembed_cbn(t: Term) -> Optional[Term]:
    match t:
        case Var() | Idx():
            return t
        case Abs(h, body):
            b = _unembed_cbn(body)
            return Abs(h, b) if b is not None else None
        case App(fun, Bang(arg)):
            f, a = _unembed_cbn(fun), _unembed_cbn(arg)
            return App(f, a) if f is not None and a is not None else None
        case Sub(h, body, Bang(arg)):
            b, a = _unembed_cbn(body), _unembed_cbn(arg)
            return Sub(h, b, a) if b is not None and a is not None else None
    return None


def _unembed_cbv(t: Term) -> Optional[Term]:
    match t:
        case Bang(Var() | Idx() as v):
            return v
        case Bang(Abs(h, body)):
            b = _unembed_cbv(body)
            return Abs(h, b) if b is not None else None
        case App(Der(fun), arg):
            f, a = _unembed_cbv(fun), _unembed_cbv(arg)
            return App(f, a) if f is not None and a is not None else None
        case App(fun, arg):
            spine, core = peel_subs(fun)
            f = _unembed_cbv(rebuild_subs(spine, Bang(core)))
            a = _unembed_cbv(arg)
            return App(f, a) if f is not None and a is not None else None
        case Sub(h, body, arg):
            b, a = _unembed_cbv(body), _unembed_cbv(arg)
            return Sub(h, b, a) if b is not None and a is not None else None
    return None


def in_image(tag: str, t: Term) -> bool:
    src = unembed(tag, t)
    return src is not None and embed(tag, src) == t


# ---------------------------------------------------------------------------
# Simulation checking


@dataclass(frozen=True)
class SimulationReport:
    source_steps: int
    projected: bool
    failures: tuple[tuple[Term, Term], ...] = ()


def simulate_check(tag: str, t: Term, fuel: int = 50, window: int = 6) -> SimulationReport:
    """Each source step t -> u must project to a bounded surface chain
    embed(t) ->* embed(u), possibly padded by administrative steps."""
    require_cterm(t)
    surface = partial(reduction.reducts, closure=reduction.SURFACE)
    failures = []
    steps = 0
    current = t
    for _ in range(fuel):
        nxt = reduction.step(current, tag)
        if nxt is None:
            break
        steps += 1
        if not reduction.meet_within(embed(tag, current), embed(tag, nxt), surface,
                                     window, fixed_target=True):
            failures.append((current, nxt))
        current = nxt
    return SimulationReport(steps, not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Meaningfulness (operational characterizations)


def _cbn_witness_context(nf: Term) -> Optional[Ctx]:
    """A testing context sending a CBN surface normal form to the identity.

    The normal form is a lambda prefix over a head variable applied to
    arguments; dummies consume the prefix and an eraser replaces the
    head."""
    frames_prefix: list[str] = []
    body = nf
    opened: list[str] = []
    i = 0
    while isinstance(body, Abs):
        name = fresh_name(body.hint or "x", free_vars(nf) | set(opened))
        opened.append(name)
        body = open_var(body.body, name)
        i += 1
    head, spine = meaning._app_spine(body)
    if not isinstance(head, Var):
        return None
    eraser = _eraser(len(spine))
    frames: list = []
    if head.name in opened:
        dummies = [eraser if opened[j] == head.name else I for j in range(len(opened))]
    else:
        frames += [AppFun(eraser), AbsBody(head.name)]
        dummies = [I for _ in opened]
    for d in reversed(dummies):
        frames.append(AppFun(d))
    return Ctx(TESTING, tuple(frames))


def _eraser(arity: int) -> Term:
    t = I
    for k in range(arity):
        t = lam(f"e{arity - 1 - k}", t)
    return t


_CBV_VALUE_POOL = (I, lam("u", lam("v", Var("v"))), lam("u", lam("v", Var("u"))))


def _cbv_witness_context(t: Term, fuel: int) -> Optional[Ctx]:
    """Bind the free variables of t to closed values so that the result
    reduces to a value; tried over a small pool."""
    names = sorted(free_vars(t))
    if not names:
        return Ctx(TESTING, ())
    for assignment in itertools.product(_CBV_VALUE_POOL, repeat=len(names)):
        frames: list = []
        for name, w in zip(names, assignment):
            frames += [AppFun(w), AbsBody(name)]
        ctx = Ctx(TESTING, tuple(frames))
        out = reduction.normalize(plug(ctx, t), CBV, fuel)
        if out.normalized and is_value(out.term):
            return ctx
    return None


def c_meaningful(tag: str, t: Term, fuel: int = 300,
                 want_witness: bool = False) -> MeaningVerdict:
    """Meaningfulness decided operationally: surface normalization.

    CBN observables are the identity, CBV observables are values; a
    witness testing context is synthesized from the normal form on
    request."""
    require_cterm(t)
    out = reduction.normalize(t, tag, fuel)
    if not out.normalized:
        return MeaningVerdict(UNKNOWN, reason="divergence-suspected: fuel exhausted",
                              normal_form=out.term)
    nf = out.term
    evidence = None
    if want_witness:
        ctx = (_cbn_witness_context(nf) if tag == CBN
               else _cbv_witness_context(nf, fuel * 4))
        if ctx is not None:
            plugged = reduction.normalize(plug(ctx, t), tag, fuel * 8)
            goal_ok = (plugged.normalized
                       and (plugged.term == I if tag == CBN
                            else is_value(plugged.term)))
            if goal_ok:
                evidence = meaning.Evidence(ctx, (None, None), None,
                                            plugged.term, plugged.steps)
    return MeaningVerdict(MEANINGFUL,
                          reason="surface normalizing (operational characterization)",
                          evidence=evidence, normal_form=nf)


# ---------------------------------------------------------------------------
# Transfer to the bang calculus


@dataclass(frozen=True)
class TransferReport:
    source: MeaningVerdict
    image: MeaningVerdict
    agreed: bool
    note: str = ""


def transfer_check(tag: str, t: Term, budgets: Budgets = Budgets()) -> TransferReport:
    """Compare the calculus-level verdict with the bang-calculus verdict
    of the embedding; only decided-vs-decided disagreements count."""
    src = c_meaningful(tag, t, budgets.fuel)
    img = meaning.meaningful(embed(tag, t), budgets)
    if src.status == UNKNOWN or img.status == UNKNOWN:
        return TransferReport(src, img, True, "one side undecided")
    return TransferReport(src, img, src.status == img.status)
