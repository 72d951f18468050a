"""Terms and one-hole contexts for the bang calculus with explicit substitutions.

Terms are kept in a locally nameless form: free variables carry names,
bound variables are de Bruijn indices, and every binder stores a display
hint that is ignored by equality.  Alpha-equivalent terms are therefore
structurally equal, hashable, and usable as set/dict keys.

Every node also stores `loose`: one past its largest dangling index (an
Idx not bound inside the node), or 0 if it is locally closed
(Charguéraud, "The Locally Nameless Representation", JAR 2012; Lean 4
keeps the same bound in its expressions).  The constructor computes it
in O(1) from the children: Idx(k) has k + 1, Var and HOLE 0, an
abstraction its body's less one (floored at 0), a closure the larger of
that and its argument's, and App, Bang and Der the largest of their
children's.  It is not part of the term: ==, hash, repr and pattern
matching ignore it.  The index maps use it to skip what they cannot
change (`map_leaves`).

The concrete grammar (parse_term / print_term):

    term    := lam | app
    lam     := '\\' ident '.' term
    app     := app prefix | prefix
    prefix  := ('!' | 'der')* postfix
    postfix := atom ('[' ident '<-' term ']')*
    atom    := ident | '(' term ')'

`[]` is additionally accepted as an atom when parsing contexts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence


# ---------------------------------------------------------------------------
# Term nodes


class Term:
    """Base class of bang-calculus terms."""

    __slots__ = ()
    loose = 0  # Var and HOLE hold no index; the other nodes store their own

    def __str__(self) -> str:
        return print_term(self)


# A node's `loose`, set once by its constructor and ignored by ==, hash,
# repr and pattern matching.  The constructors are written out, setting
# each slot as the generated ones do, because a __post_init__ makes every
# node about 30 % slower to build.
_LOOSE = field(init=False, repr=False, compare=False)
_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class Var(Term):
    """Free variable, identified by name."""

    name: str


@dataclass(frozen=True, slots=True)
class Idx(Term):
    """Bound variable as a de Bruijn index (internal representation)."""

    k: int
    loose: int = _LOOSE

    def __init__(self, k: int):
        _set(self, "k", k)
        _set(self, "loose", k + 1)


@dataclass(frozen=True, slots=True)
class Abs(Term):
    """Abstraction; binds index 0 in `body`. `hint` is display-only."""

    hint: str = field(compare=False)
    body: Term
    loose: int = _LOOSE

    def __init__(self, hint: str, body: Term):
        _set(self, "hint", hint)
        _set(self, "body", body)
        _set(self, "loose", body.loose - 1 if body.loose else 0)


@dataclass(frozen=True, slots=True)
class App(Term):
    fun: Term
    arg: Term
    loose: int = _LOOSE

    def __init__(self, fun: Term, arg: Term):
        _set(self, "fun", fun)
        _set(self, "arg", arg)
        _set(self, "loose", fun.loose if fun.loose > arg.loose else arg.loose)


@dataclass(frozen=True, slots=True)
class Sub(Term):
    """Closure t[x<-u]: a pending explicit substitution.

    Binds index 0 in `body`; `arg` is outside the binder.
    """

    hint: str = field(compare=False)
    body: Term
    arg: Term
    loose: int = _LOOSE

    def __init__(self, hint: str, body: Term, arg: Term):
        _set(self, "hint", hint)
        _set(self, "body", body)
        _set(self, "arg", arg)
        _set(self, "loose", body.loose - 1 if body.loose > arg.loose else arg.loose)


@dataclass(frozen=True, slots=True)
class Bang(Term):
    inner: Term
    loose: int = _LOOSE

    def __init__(self, inner: Term):
        _set(self, "inner", inner)
        _set(self, "loose", inner.loose)


@dataclass(frozen=True, slots=True)
class Der(Term):
    inner: Term
    loose: int = _LOOSE

    def __init__(self, inner: Term):
        _set(self, "inner", inner)
        _set(self, "loose", inner.loose)


# ---------------------------------------------------------------------------
# Fresh names and basic binding operations

KEYWORDS = frozenset({"der"})


def fresh_name(base: str, used) -> str:
    """Deterministic fresh supply: base, base1, base2, ... first unused."""
    if base not in used and base not in KEYWORDS:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def free_vars(t: Term) -> frozenset[str]:
    """Free (named) variables of a term."""
    names, stack = set(), [t]
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is Var:
            names.add(u.name)
        elif kind is not _Hole:
            stack.extend(children(u))
    return frozenset(names)


def map_leaves(t: Term, leaf: Callable[[Term, int], Term], depth: int = 0, *,
               names: bool = False) -> Term:
    """Rebuild t with leaves replaced by leaf(node, d), where d is `depth`
    plus the number of binders above the leaf.

    An index map (the default) leaves every Var, and every Idx(k) at a
    depth d with k < d, as it is.  Such a map cannot change a subterm u
    met at depth d with u.loose <= d: an Idx(k) inside u under b more
    binders has k - b < u.loose <= d, so k < d + b, its own depth.  The
    walk therefore returns u as it is without entering it, and `leaf` only
    ever sees an Idx(k) with k >= d.  With `names`, the leaf map also
    rewrites Var leaves, which `loose` says nothing about, so every leaf
    is visited.

    The walk keeps its own stack, so any depth of t is safe.  At each node
    it enters, it pushes the node itself as the marker to rebuild it by on
    the way up, then the (second child, depth) pair of an application or a
    closure, and goes on into the first child directly.  A marker finds
    its node's new children on top of `done` and rebuilds by the node's
    class, comparing each child by identity; a node whose children all
    come back unchanged is returned as itself, so an unchanged subterm is
    shared, not copied."""
    done: list[Term] = []  # the results of finished subterms, in order
    todo: list = []  # (subterm, depth) pairs to visit, and climb markers
    u, d = t, depth
    while True:
        while True:  # down the first children to a leaf or a skipped subterm
            kind = type(u)
            if (u.loose <= d and not names) or kind is _Hole:
                done.append(u)
                break
            if kind is Var or kind is Idx:
                done.append(leaf(u, d))
                break
            todo.append(u)
            if kind is App:
                todo.append((u.arg, d))
                u = u.fun
            elif kind is Sub:
                todo.append((u.arg, d))
                u, d = u.body, d + 1
            elif kind is Abs:
                u, d = u.body, d + 1
            elif kind is Bang or kind is Der:
                u = u.inner
            else:
                raise TypeError(u)
        while todo:  # up through the markers to the next second child
            node = todo.pop()
            kind = type(node)
            if kind is tuple:
                u, d = node
                break
            new = done.pop()  # the result of the node's last child
            if kind is App:
                fun = done.pop()
                if fun is not node.fun or new is not node.arg:
                    node = App(fun, new)
            elif kind is Sub:
                body = done.pop()
                if body is not node.body or new is not node.arg:
                    node = Sub(node.hint, body, new)
            elif kind is Abs:
                if new is not node.body:
                    node = Abs(node.hint, new)
            elif new is not node.inner:  # Bang or Der
                node = kind(new)
            done.append(node)
        else:
            return done[0]


def shift_free(t: Term, delta: int, cutoff: int = 0) -> Term:
    """Add `delta` to every dangling index >= cutoff."""
    if delta == 0:
        return t
    return map_leaves(t, lambda n, d: Idx(n.k + delta), cutoff)


def close_var(t: Term, name: str, depth: int = 0) -> Term:
    """Turn free occurrences of `name` into the index bound at `depth`."""
    return map_leaves(t, lambda n, d: Idx(d) if type(n) is Var and n.name == name else n,
                      depth, names=True)


def open_var(t: Term, name: str, depth: int = 0) -> Term:
    """Turn the index bound at `depth` into the free variable `name`."""
    return map_leaves(t, lambda n, d: Var(name) if n.k == d else n, depth)


def lam(name: str, body: Term) -> Term:
    """Abstraction binding the free name `name` in `body`."""
    return Abs(name, close_var(body, name))


def esub(name: str, body: Term, arg: Term) -> Term:
    """Closure body[name<-arg] binding the free name in the body only."""
    return Sub(name, close_var(body, name), arg)


def subst_bound(body: Term, u: Term, layers: int, depth: int = 0) -> Term:
    """Substitute `u` for the binder opened at `depth` while re-homing.

    Used by the substitution rules: the body leaves its binder and lands
    under `layers` additional closure binders, so indices pointing above
    the removed binder are displaced by layers - 1, and copies of `u`
    spliced at internal depth d get their dangling indices shifted by d.

    The walk skips every subterm of the body that holds no index bound at
    or above its depth (`map_leaves`), and the copy of `u` for depth d is
    made once and spliced at every occurrence at that depth: terms are
    immutable, so the occurrences can share it.
    """
    copies: dict[int, Term] = {}

    def leaf(n: Idx, d: int) -> Term:
        if n.k > d:
            return Idx(n.k + layers - 1)
        copy = copies.get(d)
        if copy is None:
            copy = copies[d] = shift_free(u, d)
        return copy

    return map_leaves(body, leaf, depth)


def peel_subs(t: Term) -> tuple[list[Sub], Term]:
    """Maximal list-context decomposition: t = L<core> with L a stack of
    closures along the body spine.  Returns the Sub nodes outermost-first
    and the core (which is not a Sub)."""
    spine: list[Sub] = []
    while isinstance(t, Sub):
        spine.append(t)
        t = t.body
    return spine, t


def rebuild_subs(spine: Sequence[Sub], core: Term) -> Term:
    """Inverse of peel_subs."""
    for node in reversed(spine):
        core = Sub(node.hint, core, node.arg)
    return core


# ---------------------------------------------------------------------------
# Positions

Position = tuple[int, ...]


def children(t: Term) -> tuple[Term, ...]:
    # Dispatch on the exact node class: every walk over terms calls this,
    # and it runs several times faster than a match statement.
    kind = type(t)
    if kind is App:
        return (t.fun, t.arg)
    if kind is Sub:
        return (t.body, t.arg)
    if kind is Abs:
        return (t.body,)
    if kind is Bang or kind is Der:
        return (t.inner,)
    if kind is Var or kind is Idx:
        return ()
    raise TypeError(t)


def with_child(t: Term, i: int, new: Term) -> Term:
    """t itself if its i-th child is `new`, else t rebuilt around it.

    Rebuilds by the node's class and `i` (0 or 1 for an application or a
    closure, 0 for the other inner nodes) without a tuple of children:
    the zipper's climbs (`zip_up`, `reduction._walk`) call it at every
    frame.  A leaf has no child, and raises TypeError."""
    kind = type(t)
    if kind is App:
        if i:
            return t if new is t.arg else App(t.fun, new)
        return t if new is t.fun else App(new, t.arg)
    if kind is Sub:
        if i:
            return t if new is t.arg else Sub(t.hint, t.body, new)
        return t if new is t.body else Sub(t.hint, new, t.arg)
    if kind is Abs:
        return t if new is t.body else Abs(t.hint, new)
    if kind is Bang or kind is Der:
        return t if new is t.inner else kind(new)
    raise TypeError(t)


# A zipper path: frames (node, i) from the root down to a focus, which lies
# in the i-th child of node.
Path = list[tuple[Term, int]]


def zip_up(path: Path, focus: Term) -> Term:
    """The whole term: `focus` plugged back into the frames of `path`,
    sharing every node whose child did not change."""
    for node, i in reversed(path):
        focus = with_child(node, i, focus)
    return focus


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    """t with the subterm at `pos` replaced by `new`."""
    path = []
    for i in pos:
        path.append((t, i))
        t = children(t)[i]
    return zip_up(path, new)


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_PUNCT = {"\\", ".", "(", ")", "[", "]", "!"}
_DIGITS = "0123456789"


def _tokenize(src: str) -> list[tuple[str, str, int, int]]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in _PUNCT:
            toks.append(("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c == "<" and i + 1 < n and src[i + 1] == "-":
            toks.append(("punct", "<-", line, col))
            i += 2
            col += 2
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            kind = "der" if word == "der" else "ident"
            toks.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        if c == "%" and i + 1 < n and src[i + 1] in _DIGITS:
            # %k: the name a typing derivation opens a binder with
            j = i + 1
            while j < n and src[j] in _DIGITS:
                j += 1
            toks.append(("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


class _Hole(Term):
    """Marker node standing for the hole of a context; see HOLE."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, _Hole)

    def __hash__(self):
        return hash(_Hole)


HOLE = _Hole()  # the hole as a term: plug(c, HOLE) and context_of invert each other


class _Parser:
    def __init__(self, src: str, allow_hole: bool = False):
        self.toks = _tokenize(src)
        self.pos = 0
        self.allow_hole = allow_hole

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, line, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", line, col)

    def error(self, message: str):
        _, val, line, col = self.peek()
        raise ParseError(message, line, col)

    def parse(self) -> Term:
        t = self.term()
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", line, col)
        return t

    def term(self) -> Term:
        kind, val, _, _ = self.peek()
        if val == "\\":
            self.next()
            k, name, line, col = self.next()
            if k != "ident":
                raise ParseError("expected binder name after '\\'", line, col)
            self.expect(".")
            body = self.term()
            return lam(name, body)
        return self.app()

    def app(self) -> Term:
        t = self.prefix()
        while True:
            kind, val, _, _ = self.peek()
            if val in {"!", "(", "der"} or kind == "ident" or (val == "[" and self._at_hole()):
                t = App(t, self.prefix())
            else:
                return t

    def _at_hole(self) -> bool:
        if not self.allow_hole:
            return False
        nxt = self.toks[self.pos + 1] if self.pos + 1 < len(self.toks) else None
        return nxt is not None and nxt[1] == "]"

    def prefix(self) -> Term:
        kind, val, _, _ = self.peek()
        if val == "!":
            self.next()
            return Bang(self.prefix())
        if kind == "der":
            self.next()
            return Der(self.prefix())
        return self.postfix()

    def postfix(self) -> Term:
        t = self.atom()
        while True:
            kind, val, _, _ = self.peek()
            if val == "[" and not self._at_hole():
                self.next()
                k, name, line, col = self.next()
                if k != "ident":
                    raise ParseError("expected variable in closure", line, col)
                self.expect("<-")
                arg = self.term()
                self.expect("]")
                t = esub(name, t, arg)
            else:
                return t

    def atom(self) -> Term:
        kind, val, line, col = self.next()
        if kind == "ident":
            return Var(val)
        if val == "(":
            t = self.term()
            self.expect(")")
            return t
        if val == "[" and self.allow_hole:
            self.expect("]")
            return HOLE
        raise ParseError(f"unexpected {val or 'end of input'!r}", line, col)


def parse_term(src: str) -> Term:
    """Parse the concrete syntax. Open terms are fine; only malformed
    input raises ParseError."""
    t = _Parser(src).parse()
    return t


# ---------------------------------------------------------------------------
# Printing

_ATOM, _POSTFIX, _PREFIX, _APP, _TERM = range(5)


def _prec(t: Term) -> int:
    match t:
        case Var() | Idx() | _Hole():
            return _ATOM
        case Sub():
            return _POSTFIX
        case Bang() | Der():
            return _PREFIX
        case App():
            return _APP
        case Abs():
            return _TERM
    raise TypeError(t)


def print_term(t: Term) -> str:
    """ASCII rendering; parse_term(print_term(t)) is alpha-equal to t."""
    taken = set(free_vars(t))

    def go(t: Term, scope: tuple[str, ...], level: int) -> str:
        s = _render(t, scope)
        return f"({s})" if _prec(t) > level else s

    def _render(t: Term, scope: tuple[str, ...]) -> str:
        match t:
            case Var(name):
                return name
            case Idx(k):
                if k < len(scope):
                    return scope[k]
                return f"?{k - len(scope)}"  # dangling index: internal debugging only
            case Abs(hint, body):
                name = fresh_name(hint or "x", taken | set(scope))
                return f"\\{name}. {go(body, (name, *scope), _TERM)}"
            case App(fun, arg):
                return f"{go(fun, scope, _APP)} {go(arg, scope, _PREFIX)}"
            case Sub(hint, body, arg):
                name = fresh_name(hint or "x", taken | set(scope))
                return f"{go(body, (name, *scope), _POSTFIX)}[{name}<-{go(arg, scope, _TERM)}]"
            case Bang(inner):
                return f"!{go(inner, scope, _PREFIX)}"
            case Der(inner):
                return f"der {go(inner, scope, _PREFIX)}"
            case _Hole():
                return "[]"
        raise TypeError(t)

    return _render(t, ())


# ---------------------------------------------------------------------------
# JSON encoding


def term_to_json(t: Term) -> dict:
    """Tagged-node encoding with display names for binders."""
    taken = set(free_vars(t))

    def go(t: Term, scope: tuple[str, ...]) -> dict:
        match t:
            case Var(name):
                return {"k": "var", "name": name}
            case Idx(k):
                return {"k": "var", "name": scope[k]}
            case Abs(hint, body):
                name = fresh_name(hint or "x", taken | set(scope))
                return {"k": "abs", "binder": name, "body": go(body, (name, *scope))}
            case App(fun, arg):
                return {"k": "app", "fun": go(fun, scope), "arg": go(arg, scope)}
            case Sub(hint, body, arg):
                name = fresh_name(hint or "x", taken | set(scope))
                return {
                    "k": "sub",
                    "binder": name,
                    "body": go(body, (name, *scope)),
                    "arg": go(arg, scope),
                }
            case Bang(inner):
                return {"k": "bang", "inner": go(inner, scope)}
            case Der(inner):
                return {"k": "der", "inner": go(inner, scope)}
        raise TypeError(t)

    return go(t, ())


# ---------------------------------------------------------------------------
# One-hole contexts

SURFACE, FULL, TESTING = "surface", "full", "testing"


class Frame:
    """One layer of a one-hole context, root side out."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class AppFun(Frame):
    arg: Term


@dataclass(frozen=True, slots=True)
class AppArg(Frame):
    fun: Term


@dataclass(frozen=True, slots=True)
class AbsBody(Frame):
    binder: str


@dataclass(frozen=True, slots=True)
class SubBody(Frame):
    binder: str
    arg: Term


@dataclass(frozen=True, slots=True)
class SubArg(Frame):
    binder: str
    body: Term  # stored in its internal (index-closed) form


@dataclass(frozen=True, slots=True)
class BangInner(Frame):
    pass


@dataclass(frozen=True, slots=True)
class DerInner(Frame):
    pass


_FRAME_KINDS = {
    SURFACE: (AppFun, AppArg, AbsBody, SubBody, SubArg, DerInner),
    FULL: (AppFun, AppArg, AbsBody, SubBody, SubArg, DerInner, BangInner),
}


@dataclass(frozen=True)
class Ctx:
    """A one-hole context: a kind tag and frames from root to hole."""

    kind: str
    frames: tuple[Frame, ...] = ()

    def __post_init__(self):
        if self.kind == TESTING:
            if not _testing_ok(self.frames):
                raise ValueError("not a testing context")
        else:
            allowed = _FRAME_KINDS[self.kind]
            for f in self.frames:
                if not isinstance(f, allowed):
                    raise ValueError(f"{type(f).__name__} frame not allowed in {self.kind} context")

    def __str__(self) -> str:
        return print_term(plug(self, HOLE))


def _testing_ok(frames: Sequence[Frame]) -> bool:
    # T := [] | T s | (\x.T) s  -- from the root: AppFun(s) optionally
    # followed by AbsBody.
    i = 0
    while i < len(frames):
        if not isinstance(frames[i], AppFun):
            return False
        i += 1
        if i < len(frames) and isinstance(frames[i], AbsBody):
            i += 1
    return True


def plug(c: Ctx, t: Term) -> Term:
    """Replace the hole by t.  Plugging is capture-allowing: free names of
    t matching binders above the hole become bound."""
    for f in reversed(c.frames):
        match f:
            case AppFun(arg):
                t = App(t, arg)
            case AppArg(fun):
                t = App(fun, t)
            case AbsBody(binder):
                t = Abs(binder, close_var(t, binder))
            case SubBody(binder, arg):
                t = Sub(binder, close_var(t, binder), arg)
            case SubArg(binder, body):
                t = Sub(binder, body, t)
            case BangInner():
                t = Bang(t)
            case DerInner():
                t = Der(t)
    return t


def parse_context(src: str, kind: str = FULL) -> Ctx:
    """Parse a term with exactly one [] hole into a context of `kind`."""
    return context_of(_Parser(src, allow_hole=True).parse(), kind)


def context_of(t: Term, kind: str = FULL) -> Ctx:
    """The context of `kind` that t is with its one HOLE taken out."""
    frames = _frames_to_hole(t)
    if frames is None:
        raise ParseError("context must contain exactly one hole", 1, 1)
    return Ctx(kind, tuple(frames))


def _frames_to_hole(t: Term, binders: tuple[str, ...] = ()) -> Optional[list[Frame]]:
    """Walk to the unique hole, building frames.  Binder display names are
    made pairwise fresh along the path so capture is well defined."""
    if isinstance(t, _Hole):
        return []
    match t:
        case Var() | Idx():
            return None
        case Abs(hint, body):
            name = fresh_name(hint or "x", set(binders) | free_vars(body))
            sub = _frames_to_hole(open_var(body, name), (*binders, name))
            if sub is not None:
                return [AbsBody(name), *sub]
            return None
        case App(fun, arg):
            sub = _frames_to_hole(fun, binders)
            if sub is not None:
                if _contains_hole(arg):
                    raise ParseError("context must contain exactly one hole", 1, 1)
                return [AppFun(arg), *sub]
            sub = _frames_to_hole(arg, binders)
            if sub is not None:
                return [AppArg(fun), *sub]
            return None
        case Sub(hint, body, arg):
            name = fresh_name(hint or "x", set(binders) | free_vars(body))
            sub = _frames_to_hole(open_var(body, name), (*binders, name))
            if sub is not None:
                if _contains_hole(arg):
                    raise ParseError("context must contain exactly one hole", 1, 1)
                return [SubBody(name, arg), *sub]
            sub = _frames_to_hole(arg, binders)
            if sub is not None:
                return [SubArg(name, body), *sub]
            return None
        case Bang(inner):
            sub = _frames_to_hole(inner, binders)
            if sub is not None:
                return [BangInner(), *sub]
            return None
        case Der(inner):
            sub = _frames_to_hole(inner, binders)
            if sub is not None:
                return [DerInner(), *sub]
            return None
    raise TypeError(t)


def _contains_hole(t: Term) -> bool:
    if isinstance(t, _Hole):
        return True
    return any(_contains_hole(c) for c in children(t))


# ---------------------------------------------------------------------------
# Term generation


def gen_term(seed: int, size: int, profile: str = "raw") -> Term:
    """Deterministic seeded term generation.

    Profiles: `raw` (uniform constructor mix), `bang` (biased toward
    substitutable arguments), `cbn-image` / `cbv-image` (generate a
    bang-free term, then embed; see banglab.cbnv).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = random.Random((seed, size, profile).__repr__())
    if profile in ("cbn-image", "cbv-image"):
        from . import cbnv

        src = _gen(rng, size, ("x", "y"), 0, bias=False, bang_free=True)
        tag = cbnv.CBN if profile == "cbn-image" else cbnv.CBV
        return cbnv.embed(tag, src)
    if profile not in ("raw", "bang"):
        raise ValueError(f"unknown profile {profile!r}")
    return _gen(rng, size, ("x", "y"), 0, bias=(profile == "bang"))


def _gen(rng: random.Random, size: int, pool: tuple[str, ...], depth: int, bias: bool,
         bang_free: bool = False) -> Term:
    """A seeded term; with bang_free, one of the shared syntax of the
    CBN/CBV calculi (bias is then unused)."""
    if size <= 1:
        k = rng.randrange(len(pool) + depth)
        if k < len(pool):
            return Var(pool[k])
        return Idx(k - len(pool))
    if bang_free:
        choices = ["abs"] if size < 3 else ["abs", "app", "app", "sub"]
    else:
        choices = ["abs", "bang", "der"]
        if size >= 3:
            choices += ["app", "sub"]
        if bias:
            choices += ["bang"] + (["app", "sub"] if size >= 3 else [])
    kind = rng.choice(choices)

    def gen(size: int, depth: int) -> Term:
        return _gen(rng, size, pool, depth, bias, bang_free)

    if kind == "abs":
        return Abs(f"b{depth}", gen(size - 1, depth + 1))
    if kind == "bang":
        return Bang(gen(size - 1, depth))
    if kind == "der":
        inner = gen(size - 1, depth)
        if bias and not isinstance(inner, (Bang, Sub)) and size >= 3:
            return Der(Bang(gen(size - 2, depth)))
        return Der(inner)
    left = rng.randint(1, size - 2)
    right = size - 1 - left
    if kind == "app":
        fun = gen(left, depth)
        arg = gen(right, depth)
        if bias and right >= 2 and rng.random() < 0.5:
            arg = Bang(gen(right - 1, depth))
        return App(fun, arg)
    body = gen(left, depth + 1)
    arg = gen(right, depth)
    if bias and right >= 2 and rng.random() < 0.6:
        arg = Bang(gen(right - 1, depth))
    return Sub(f"s{depth}", body, arg)


# ---------------------------------------------------------------------------
# Exhaustive enumeration (small sizes)


@lru_cache(maxsize=None)
def _enum(size: int, depth: int, pool: tuple[str, ...], bang_free: bool) -> tuple[Term, ...]:
    """All terms of exactly `size` nodes, one per alpha class."""
    if size < 1:
        return ()
    if size == 1:
        leaves: list[Term] = [Var(n) for n in pool]
        leaves += [Idx(k) for k in range(depth)]
        return tuple(leaves)
    out: list[Term] = []
    out += [Abs("x", b) for b in _enum(size - 1, depth + 1, pool, bang_free)]
    if not bang_free:
        out += [Bang(i) for i in _enum(size - 1, depth, pool, bang_free)]
        out += [Der(i) for i in _enum(size - 1, depth, pool, bang_free)]
    for left in range(1, size - 1):
        right = size - 1 - left
        funs = _enum(left, depth, pool, bang_free)
        args = _enum(right, depth, pool, bang_free)
        out += [App(f, a) for f in funs for a in args]
        bodies = _enum(left, depth + 1, pool, bang_free)
        out += [Sub("x", b, a) for b in bodies for a in args]
    return tuple(out)


def enum_terms(size_bound: int, free_pool: Sequence[str] = ("x", "y"),
               bang_free: bool = False) -> Iterator[Term]:
    """Every term of size <= size_bound, exactly once modulo alpha."""
    pool = tuple(free_pool)
    for size in range(1, size_bound + 1):
        yield from _enum(size, 0, pool, bang_free)


# ---------------------------------------------------------------------------
# Well-known combinators

I = parse_term("\\z.z")
DELTA = parse_term("\\x.x !x")
OMEGA = App(DELTA, Bang(DELTA))
