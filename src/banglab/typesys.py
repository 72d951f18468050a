"""Non-idempotent intersection types and the three typing systems.

Types are type variables, finite multisets of types (multitypes), and
arrows from a multitype to a type.  Types and environments are
hash-consed (Filliatre and Conchon, "Type-Safe Modular Hash-Consing", ML
Workshop 2006): each constructor returns the one live node with the given
value, so equality and hashing are identity, whatever the depth.
Multitype elements are kept in a canonical total order (variables before
multitypes before arrows) by a sort key each node computes once, from its
children's; environment bindings are sorted by name.  The intern tables
hold their nodes weakly, so a node lives as long as something uses it.

Three systems share the type language:

  B  -- the bang calculus: var/app/abs/es plus bang (gathering a multiset
        of typings of the same subterm) and der (demanding a singleton).
  N  -- call-by-name: app/es take an indexed family of premises typing
        the one argument, aligned with the arrow's domain multiset.
  V  -- call-by-value: variables are typed with whole multitypes, and
        abstraction gathers a multiset of arrows from a premise family.

Bounded enumeration: the nondeterministic choices in a derivation are
the axiom types and the family sizes.  Bounds fix the axiom-type
universe (depth `depth`, variables from a pool of `pool` names) and cap
every formed multiset at `card` elements; everything else is determined
by the subject term, so the enumerated set is finite and complete
relative to those choices.  The rules of B, N and V are written once,
in the generator `_rules`, which yields every last-rule instance for a
term from the items (env and type first) of its subterms.  They feed
one table structure, `_table`: a term's distinct typings (env, type),
drawn lazily over its subterms' tables and memoised in a dict, in one of
two scopes.  The process-wide `_TABLES` holds the tables `_pairs` reads
to their end, behind `typing_pairs`, inhabitation and the grid tables;
each `typings_enumerate` call, the stream behind `meaningful`,
`find_derivation` and the CLI, owns tables drawn only as far as its
reader goes, and frees them when it ends.  No row carries a derivation,
since carrying one in every row of the per-call tables doubled a round
of the meaning benchmark (1.26 s against 0.62 s on a 2-core VM), and
the first rule instance of each row would keep a premise tuple per row
alive in the process-wide tables (8,534 rows after a transfer round):
`_first_derivation` builds one for the typings a caller asks for,
top-down over the call's tables, taking at each node the first rule
instance that concludes the wanted typing, from one resumable scan of
the node's rule instances per call.  `_rules` takes no goal, and both
read it uncapped (see below), so tables and scans read the same
instances in the same order.

A rule that forms a multitype (the B bang, the V abstraction, a bang
demanded at a multitype) yields its empty family before it reads a
premise, and an app or es node reads its argument's table by type (see
`_lookup`), only as far as the types it asks for, so a lazily drawn
table reads a premise only when a non-empty multitype asks for it:
`|- !t : []` comes at once, whatever t is.  A variable's full table is
its var axioms, built once per process and indexed by type.  The
grid tables, the source of `grid_typing_set` and so of the transport
and transfer checks, are the same tables less the typings that bind a
free name past the grid (see `_pruned`), dropped as each table is
built.  A table also keeps only the typings whose type is at most `top`
deep: math.inf (uncapped) for every reader but `grid_typing_set`, which
reads its root at the grid's depth.  `_rules` reads each premise the
conclusion type passes through at the cap its rule allows, so below a
capped root only the function and argument tables of app and es nodes,
whose types the conclusion does not bound, are read uncapped.

A binder is opened with the `%k` name `_opening` takes from its own
term, not from where the term occurs, so the tables are keyed by system,
term, bounds and cap, and a subterm is typed once per cap wherever it
occurs.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import reduction
from .syntax import (Abs, App, Bang, Der, Idx, Sub, Term, Var, free_vars,
                     open_var, print_term)

B, N, V = "B", "N", "V"


# ---------------------------------------------------------------------------
# Types


class _Interned:
    """An immutable, hash-consed node.  Its class's constructor returns the
    one live node with the given value, so `==` and `hash` are identity;
    copies and unpickled nodes come back through the constructor, as the
    same node.  The intern tables hold their nodes weakly (see _Entry)."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class _Entry(weakref.ref):
    """An intern-table entry: a weak reference to its node that deletes
    itself from its table when the node dies, so the tables hold only
    the nodes something else still uses."""

    __slots__ = ("table", "key")


def _drop(entry: _Entry) -> None:
    if entry.table.get(entry.key) is entry:
        del entry.table[entry.key]


def _live(table: dict, key):
    """The live node interned under key, or None."""
    entry = table.get(key)
    return entry() if entry is not None else None


def _new(cls, table: dict, key, **fields):
    """A new node of cls with these fields, interned under key."""
    node = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    entry = _Entry(node, _drop)
    entry.table, entry.key = table, key
    table[key] = entry
    return node


class Type(_Interned):
    """A type node.  `_key` orders types: variables before multitypes
    before arrows, then by the children's keys (a multitype's key is its
    tag followed by its elements' keys, which orders multitypes as their
    key sequences).  `_depth` is the structural depth.  Both are computed
    once, from the children's."""

    __slots__ = ("_key", "_depth")

    def __str__(self) -> str:
        return print_type(self)


_TVARS: dict[str, _Entry] = {}
_MULTIS: dict[tuple, _Entry] = {}
_ARROWS: dict[tuple, _Entry] = {}


class TVar(Type):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> "TVar":
        node = _live(_TVARS, name)
        if node is None:
            node = _new(cls, _TVARS, name, name=name, _key=(0, name), _depth=1)
        return node


_sort_key = attrgetter("_key")


class Multi(Type):
    __slots__ = ("elems",)
    __match_args__ = ("elems",)

    def __new__(cls, elems: Sequence[Type] = ()) -> "Multi":
        if type(elems) is not tuple:
            elems = tuple(elems)
        node = _live(_MULTIS, elems)  # found only if elems is in order already
        if node is None:
            elems = tuple(sorted(elems, key=_sort_key))
            node = _live(_MULTIS, elems)
            if node is None:
                node = _new(cls, _MULTIS, elems, elems=elems,
                            _key=(1, *[e._key for e in elems]),
                            _depth=1 + max([e._depth for e in elems], default=0))
        return node

    def __len__(self):
        return len(self.elems)


class Arrow(Type):
    __slots__ = ("dom", "cod")
    __match_args__ = ("dom", "cod")

    def __new__(cls, dom: Multi, cod: Type) -> "Arrow":
        node = _live(_ARROWS, (dom, cod))
        if node is None:
            node = _new(cls, _ARROWS, (dom, cod), dom=dom, cod=cod,
                        _key=(2, dom._key, cod._key), _depth=1 + max(dom._depth, cod._depth))
        return node


EMPTY_MULTI = Multi(())


def multi(*elems: Type) -> Multi:
    return Multi(tuple(elems))


def arrow(*types: Type) -> Type:
    """Right-associated arrow chain: arrow(M1, M2, sigma) = M1 -> M2 -> sigma."""
    *doms, cod = types
    for d in reversed(doms):
        if not isinstance(d, Multi):
            raise TypeError("arrow domain must be a multitype")
        cod = Arrow(d, cod)
    return cod


def rename_tvars(t: Type, mapping: dict[str, str]) -> Type:
    match t:
        case TVar(name):
            return TVar(mapping.get(name, name))
        case Multi(elems):
            return Multi(tuple(rename_tvars(e, mapping) for e in elems))
        case Arrow(dom, cod):
            return Arrow(rename_tvars(dom, mapping), rename_tvars(cod, mapping))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Type concrete syntax:  T := ident | M | M -> T ;  M := '[' (T (',' T)*)? ']'


def parse_type(src: str) -> Type:
    toks = _type_tokens(src)
    ty, pos = _parse_arrow(toks, 0)
    if toks[pos][0] != "eof":
        raise ValueError(f"trailing input in type: {src!r}")
    return ty


def _type_tokens(src: str) -> list[tuple[str, str]]:
    toks = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
        elif c in "[],":
            toks.append((c, c))
            i += 1
        elif src.startswith("->", i):
            toks.append(("->", "->"))
            i += 2
        elif c.isalpha() or c == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            toks.append(("ident", src[i:j]))
            i = j
        else:
            raise ValueError(f"unexpected character {c!r} in type")
    toks.append(("eof", ""))
    return toks


def _parse_arrow(toks, pos):
    left, pos = _parse_atom_ty(toks, pos)
    if toks[pos][0] == "->":
        if not isinstance(left, Multi):
            raise ValueError("arrow domain must be a multitype")
        right, pos = _parse_arrow(toks, pos + 1)
        return Arrow(left, right), pos
    return left, pos


def _parse_atom_ty(toks, pos):
    kind, val = toks[pos]
    if kind == "ident":
        return TVar(val), pos + 1
    if kind == "[":
        pos += 1
        elems = []
        if toks[pos][0] != "]":
            while True:
                ty, pos = _parse_arrow(toks, pos)
                elems.append(ty)
                if toks[pos][0] == ",":
                    pos += 1
                else:
                    break
        if toks[pos][0] != "]":
            raise ValueError("expected ']' in multitype")
        return Multi(tuple(elems)), pos + 1
    raise ValueError(f"unexpected {val!r} in type")


def print_type(t: Type) -> str:
    match t:
        case TVar(name):
            return name
        case Multi(elems):
            return "[" + ", ".join(print_type(e) for e in elems) + "]"
        case Arrow(dom, cod):
            return f"{print_type(dom)} -> {print_type(cod)}"
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Environments


_ENVS: dict[tuple, _Entry] = {}


class Env(_Interned):
    """Finite map from variable names to multitypes; empty bindings
    dropped, the others sorted by name.  `_width` is the largest binding
    cardinality."""

    __slots__ = ("items", "_width")
    __match_args__ = ("items",)

    def __new__(cls, items: Sequence[tuple[str, Multi]] = ()) -> "Env":
        if type(items) is not tuple:
            items = tuple(items)
        node = _live(_ENVS, items)  # found only if items is clean and sorted already
        if node is None:
            items = sorted(items, key=_name)
            for (n, _), (later, _) in zip(items, items[1:]):
                if n == later:
                    raise ValueError(f"env binds {n} more than once")
            node = _env(tuple([(n, m) for n, m in items if m.elems]))
        return node

    @staticmethod
    def of(mapping: dict[str, Multi]) -> "Env":
        return Env(tuple(mapping.items()))

    def get(self, name: str) -> Multi:
        for n, m in self.items:
            if n == name:
                return m
        return EMPTY_MULTI

    def domain(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.items)

    def without(self, name: str) -> "Env":
        for i, (n, _) in enumerate(self.items):
            if n == name:
                return _env(self.items[:i] + self.items[i + 1:])
        return self

    def add(self, name: str, m: Multi) -> "Env":
        merged = dict(self.items)
        merged[name] = Multi(merged.get(name, EMPTY_MULTI).elems + m.elems)
        return Env.of(merged)

    def __str__(self):
        return ", ".join(f"{n}: {print_type(m)}" for n, m in self.items) or "{}"


_name = itemgetter(0)


def _env(items: tuple[tuple[str, Multi], ...]) -> Env:
    """The interned env with these clean, name-sorted items."""
    node = _live(_ENVS, items)
    if node is None:
        node = _new(Env, _ENVS, items, items=items,
                    _width=max([len(m.elems) for _, m in items], default=0))
    return node


EMPTY_ENV = Env()


def env_sum(envs: Sequence[Env], card: Optional[int] = None) -> Optional[Env]:
    """Pointwise multiset union; the empty list gives the empty env.  Given
    `card`, None as soon as a binding of the sum would have more than
    `card` elements: sums only grow, so no larger sum fits either."""
    bound = math.inf if card is None else card
    first, merged = EMPTY_ENV, None
    for e in envs:
        if not e.items:
            continue
        if e._width > bound:
            return None
        if first is EMPTY_ENV:
            first = e
            continue
        if merged is None:
            merged = {n: m.elems for n, m in first.items}
        for n, m in e.items:
            es = merged.get(n)
            if es is None:
                merged[n] = m.elems
            else:
                es += m.elems
                if len(es) > bound:
                    return None
                merged[n] = es
    if merged is None:
        return first
    return _env(tuple(sorted([(n, Multi(es)) for n, es in merged.items()], key=_name)))


# ---------------------------------------------------------------------------
# Observable types and argument multitypes


def observable(sys: str, t: Type) -> bool:
    """Types of observable terms: all multitypes in B and V; identity
    types [sigma] -> sigma in N."""
    if sys in (B, V):
        return isinstance(t, Multi)
    if sys == N:
        return isinstance(t, Arrow) and t.dom.elems == (t.cod,)
    raise ValueError(sys)


def args(sys: str, t: Type) -> list[Multi]:
    """Multitypes left of arrows, down to the first observable type."""
    out: list[Multi] = []
    while not observable(sys, t) and isinstance(t, Arrow):
        if t.dom not in out:
            out.append(t.dom)
        t = t.cod
    return out


# ---------------------------------------------------------------------------
# Judgments and derivations


@dataclass(frozen=True)
class Judgment:
    env: Env
    subject: Term
    type: Type

    def __str__(self):
        return f"{self.env} |- {self.subject} : {print_type(self.type)}"

    @property
    def typing(self) -> tuple[Env, Type]:
        return (self.env, self.type)


@dataclass(frozen=True)
class Derivation:
    system: str
    rule: str
    conclusion: Judgment
    premises: tuple["Derivation", ...] = ()
    binder: Optional[str] = None  # opening variable for abs/es nodes

    def to_json(self) -> dict:
        return {
            "system": self.system,
            "rule": self.rule,
            "env": {n: print_type(m) for n, m in self.conclusion.env.items},
            "term": print_term(self.conclusion.subject),
            "type": print_type(self.conclusion.type),
            "premises": [p.to_json() for p in self.premises],
        }


class RuleViolation(Exception):
    pass


def check_derivation(d: Derivation) -> Optional[str]:
    """Validate every node against its system's rule schema.

    Returns None if the derivation is locally valid everywhere, else a
    report naming the offending node and clause.
    """
    try:
        _check(d, path="root")
        return None
    except RuleViolation as e:
        return str(e)


def _fail(path: str, msg: str):
    raise RuleViolation(f"{path}: {msg}")


def _fresh_opening(d: Derivation, path: str) -> str:
    b = d.binder
    if b is None:
        _fail(path, "abs/es node must record its opening variable")
    if b in free_vars(d.conclusion.subject):
        _fail(path, f"opening variable {b} collides with a free variable")
    if d.conclusion.env.get(b).elems:
        _fail(path, f"opening variable {b} collides with the environment")
    return b


def _check(d: Derivation, path: str):
    c = d.conclusion
    sys, rule = d.system, d.rule
    if sys not in (B, N, V):
        _fail(path, f"unknown system {sys!r}")
    for i, p in enumerate(d.premises):
        if p.system != sys:
            _fail(f"{path}.{i}", "premise belongs to a different system")
        _check(p, f"{path}.{i}")

    match rule:
        case "var":
            if d.premises:
                _fail(path, "var axiom takes no premises")
            if not isinstance(c.subject, Var):
                _fail(path, "var axiom subject must be a variable")
            x = c.subject.name
            if sys == V:
                if not isinstance(c.type, Multi):
                    _fail(path, "V var axiom types variables with multitypes")
                if c.env != Env(((x, c.type),)):
                    _fail(path, "V var axiom env must be x : M for the conclusion M")
            else:
                if c.env != Env(((x, multi(c.type)),)):
                    _fail(path, "var axiom env must be x : [sigma]")

        case "app":
            if not isinstance(c.subject, App):
                _fail(path, "app subject must be an application")
            fun, arg = c.subject.fun, c.subject.arg
            if sys == N:
                if not d.premises:
                    _fail(path, "N app needs the function premise")
                pf, *family = d.premises
                if pf.conclusion.subject != fun:
                    _fail(path, "function premise subject mismatch")
                ft = pf.conclusion.type
                if not isinstance(ft, Arrow):
                    _fail(path, "function premise must have an arrow type")
                if Multi(tuple(p.conclusion.type for p in family)) != ft.dom:
                    _fail(path, "argument family types must gather to the arrow domain")
                for p in family:
                    if p.conclusion.subject != arg:
                        _fail(path, "argument family subject mismatch")
                if c.type != ft.cod:
                    _fail(path, "conclusion type must be the arrow codomain")
                if c.env != env_sum([pf.conclusion.env] + [p.conclusion.env for p in family]):
                    _fail(path, "conclusion env must be the sum of premise envs")
            else:
                if len(d.premises) != 2:
                    _fail(path, "app takes two premises")
                pf, pa = d.premises
                if pf.conclusion.subject != fun or pa.conclusion.subject != arg:
                    _fail(path, "premise subjects mismatch")
                ft = pf.conclusion.type
                if sys == V:
                    if not (isinstance(ft, Multi) and len(ft) == 1
                            and isinstance(ft.elems[0], Arrow)):
                        _fail(path, "V app function premise must have a singleton arrow multitype")
                    ft = ft.elems[0]
                if not isinstance(ft, Arrow):
                    _fail(path, "function premise must have an arrow type")
                if pa.conclusion.type != ft.dom:
                    _fail(path, "argument premise type must equal the arrow domain")
                if c.type != ft.cod:
                    _fail(path, "conclusion type must be the arrow codomain")
                if c.env != env_sum([pf.conclusion.env, pa.conclusion.env]):
                    _fail(path, "conclusion env must be the sum of premise envs")

        case "abs":
            if not isinstance(c.subject, Abs):
                _fail(path, "abs subject must be an abstraction")
            b = _fresh_opening(d, path)
            opened = open_var(c.subject.body, b)
            if sys == V:
                if not isinstance(c.type, Multi):
                    _fail(path, "V abs conclusion must be a multitype of arrows")
                arrows = []
                for p in d.premises:
                    if p.conclusion.subject != opened:
                        _fail(path, "family premise subject mismatch")
                    arrows.append(Arrow(p.conclusion.env.get(b), p.conclusion.type))
                if Multi(tuple(arrows)) != c.type:
                    _fail(path, "V abs gathers one arrow per premise")
                if c.env != env_sum([p.conclusion.env.without(b) for p in d.premises]):
                    _fail(path, "conclusion env must be the sum of premise envs minus the binder")
            else:
                if len(d.premises) != 1:
                    _fail(path, "abs takes one premise")
                p = d.premises[0].conclusion
                if p.subject != opened:
                    _fail(path, "premise subject must be the opened body")
                if c.type != Arrow(p.env.get(b), p.type):
                    _fail(path, "conclusion type must be M -> sigma for the premise")
                if c.env != p.env.without(b):
                    _fail(path, "conclusion env must be the premise env minus the binder")

        case "es":
            if not isinstance(c.subject, Sub):
                _fail(path, "es subject must be a closure")
            b = _fresh_opening(d, path)
            opened = open_var(c.subject.body, b)
            arg = c.subject.arg
            if not d.premises:
                _fail(path, "es needs a body premise")
            pb, *rest = d.premises
            if pb.conclusion.subject != opened:
                _fail(path, "body premise subject must be the opened body")
            m = pb.conclusion.env.get(b)
            if sys == N:
                if Multi(tuple(p.conclusion.type for p in rest)) != m:
                    _fail(path, "argument family types must gather to the binder multitype")
                for p in rest:
                    if p.conclusion.subject != arg:
                        _fail(path, "argument family subject mismatch")
            else:
                if len(rest) != 1:
                    _fail(path, "es takes two premises")
                if rest[0].conclusion.subject != arg:
                    _fail(path, "argument premise subject mismatch")
                if rest[0].conclusion.type != m:
                    _fail(path, "argument premise type must equal the binder multitype")
            if c.type != pb.conclusion.type:
                _fail(path, "conclusion type must be the body premise type")
            if c.env != env_sum([pb.conclusion.env.without(b)] + [p.conclusion.env for p in rest]):
                _fail(path, "conclusion env must be the sum of premise envs minus the binder")

        case "bang":
            if sys != B:
                _fail(path, "bang rule only exists in system B")
            if not isinstance(c.subject, Bang):
                _fail(path, "bang subject must be a bang")
            inner = c.subject.inner
            for p in d.premises:
                if p.conclusion.subject != inner:
                    _fail(path, "bang premises must type the banged subterm")
            if c.type != Multi(tuple(p.conclusion.type for p in d.premises)):
                _fail(path, "bang gathers premise types into the conclusion multitype")
            if c.env != env_sum([p.conclusion.env for p in d.premises]):
                _fail(path, "conclusion env must be the sum of premise envs")

        case "der":
            if sys != B:
                _fail(path, "der rule only exists in system B")
            if not isinstance(c.subject, Der):
                _fail(path, "der subject must be a dereliction")
            if len(d.premises) != 1:
                _fail(path, "der takes one premise")
            p = d.premises[0].conclusion
            if p.subject != c.subject.inner:
                _fail(path, "premise subject mismatch")
            if p.type != multi(c.type):
                _fail(path, "der premise must have the singleton multitype [sigma]")
            if c.env != p.env:
                _fail(path, "der preserves the environment")

        case _:
            _fail(path, f"unknown rule {rule!r}")


# ---------------------------------------------------------------------------
# Bounded enumeration


@dataclass(frozen=True)
class Bounds:
    """Enumeration bounds: multisets of at most `card` elements, axiom
    types of depth at most `depth` over `pool` type variables.  Bounds
    whose type universe would hold more than MAX_UNIVERSE types are
    refused, since type_universe builds it whole."""

    card: int = 2
    pool: int = 2
    depth: int = 3

    def __post_init__(self):
        for name in ("card", "pool", "depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.pool > len(_POOL_NAMES):
            raise ValueError(f"pool must be at most {len(_POOL_NAMES)} (the built-in type "
                             f"variable names), got {self.pool}")
        size, depth = _universe_size(self.card, self.pool, self.depth)
        if size > MAX_UNIVERSE:
            raise ValueError(
                f"the type universe of card {self.card}, pool {self.pool} and depth "
                f"{self.depth} has {size:,} types up to depth {depth}, more than the "
                f"{MAX_UNIVERSE:,} allowed: lower the depth or the card")


_POOL_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
MAX_UNIVERSE = 1_000_000  # the most types a Bounds may ask type_universe for


def _universe_size(card: int, pool: int, depth: int) -> tuple[int, int]:
    """The number of types type_universe builds up to `depth`, counted by
    its recurrence without building them, and the depth counted to: the
    count stops at the first depth past MAX_UNIVERSE.

    Depth 1 holds the pool variables and [].  The types up to depth d+1
    are the variables, the multisets of at most `card` types up to depth
    d, the empty one included, and the arrows from a multitype up to
    depth d to a type up to depth d."""
    size, multis = pool + 1, 1
    for d in range(1, depth):
        if size > MAX_UNIVERSE:
            return size, d
        fresh = math.comb(size + card, card)
        size, multis = pool + fresh + multis * size, fresh
    return size, depth


@lru_cache(maxsize=None)
def type_universe(bounds: Bounds) -> tuple[Type, ...]:
    """All axiom types within the bounds, by structural depth."""
    names = _POOL_NAMES[: bounds.pool]
    levels: list[list[Type]] = [[TVar(n) for n in names] + [EMPTY_MULTI]]
    for _ in range(bounds.depth - 1):
        below = [t for level in levels for t in level]
        multis_below = [t for t in below if isinstance(t, Multi)]
        fresh: list[Type] = []
        for k in range(1, bounds.card + 1):
            for combo in itertools.combinations_with_replacement(below, k):
                m = Multi(combo)
                if m not in below and m not in fresh:
                    fresh.append(m)
        for dom in multis_below:
            for cod in below:
                a = Arrow(dom, cod)
                if a not in below and a not in fresh:
                    fresh.append(a)
        levels.append(fresh)
    return tuple(t for level in levels for t in level)


def _universe_multis(bounds: Bounds) -> tuple[Multi, ...]:
    return tuple(t for t in type_universe(bounds) if isinstance(t, Multi))


def _value_var_multis(bounds: Bounds) -> tuple[Multi, ...]:
    """Base axiom multitypes for V variables: the universe multitypes
    plus singleton wrappers of universe arrows (function-position
    premises need those).  Demanded argument positions accept any
    card-bounded multiset over the universe via _rules_at, mirroring how
    the bang-calculus side reaches the same environments through one
    axiom per occurrence."""
    uni = type_universe(bounds)
    out: dict[Multi, None] = {m: None for m in _universe_multis(bounds)}
    for ty in uni:
        if isinstance(ty, Arrow):
            out[Multi((ty,))] = None
    return tuple(out)


@lru_cache(maxsize=None)
def _var_axioms(sys: str, x: str, bounds: Bounds) -> tuple[Pair, ...]:
    """The conclusions (env, type) of the var axioms for x, built once per
    variable and bounds: x : [ty] |- x : ty in B and N, for ty in
    type_universe order, and x : M |- x : M in V."""
    if sys == V:
        return tuple((Env(((x, m),)), m) for m in _value_var_multis(bounds))
    return tuple((Env(((x, multi(ty)),)), ty) for ty in type_universe(bounds))


@lru_cache(maxsize=None)
def _var_axioms_at(sys: str, x: str, bounds: Bounds) -> dict[Type, tuple[Pair]]:
    """_var_axioms(sys, x, bounds) by type, each type's one row: the
    typed lookup of a variable in the full tables (see _at), built once
    per variable and bounds."""
    return {p[1]: (p,) for p in _var_axioms(sys, x, bounds)}


def _acceptable_var_multi(m: Multi, bounds: Bounds) -> bool:
    uni = type_universe(bounds)
    return len(m) <= bounds.card and all(e in uni for e in m.elems)


Pair = tuple[Env, Type]


def _env_profile(e: Env) -> tuple[tuple[str, int], ...]:
    return tuple((n, len(m)) for n, m in e.items)


def _profile_sums(profiles: Sequence[tuple[tuple[str, int], ...]], counts: Sequence[int],
                  card: int) -> bool:
    total: dict[str, int] = {}
    for prof, k in zip(profiles, counts):
        for n, c in prof:
            total[n] = total.get(n, 0) + c * k
            if total[n] > card:
                return False
    return True


def _grouped_multisets(items: Iterable, card: int) -> Iterator[tuple]:
    """Multisets of at most `card` items whose summed environment (each
    item's first entry) stays within the per-variable cardinality bound.
    The empty multiset comes first, before a single item is read; then
    the items are bucketed by env profile, so infeasible regions are
    skipped wholesale."""
    yield ()
    buckets: dict[tuple, list] = {}
    for it in items:
        buckets.setdefault(_env_profile(it[0]), []).append(it)
    keys = sorted(buckets)

    def assignments(i: int, left: int, counts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == len(keys):
            yield counts
            return
        for k in range(0, left + 1):
            trial = counts + (k,)
            if k > 0 and not _profile_sums(keys[: i + 1], trial, card):
                return  # larger counts only increase the sums
            yield from assignments(i + 1, left - k, trial)

    # the first assignment is all zeros: the empty multiset, yielded above
    for counts in itertools.islice(assignments(0, card, ()), 1, None):
        pools = [
            list(itertools.combinations_with_replacement(buckets[keys[i]], k)) if k else [()]
            for i, k in enumerate(counts)
        ]
        for choice in itertools.product(*pools):
            yield tuple(it for combo in choice for it in combo)


def _families(lookup: Callable[[Type], Iterable], m: Multi, card: int
              ) -> Iterator[tuple[Env, tuple]]:
    """Premise families with one premise per element of m, each an item
    from lookup(element type): equal element types are grouped and drawn
    as combinations with replacement, the groups combined by product.
    Yields (summed env, premises) for the families within the card bound;
    a group's draws over the bound are dropped before the product.  The
    combinations need a group's whole candidate list, so each lookup is
    read to its end, in element order, stopping at the first empty one."""
    groups: dict[Type, int] = {}
    for ty in m.elems:
        groups[ty] = groups.get(ty, 0) + 1
    options = []
    for ty, count in groups.items():
        cands = tuple(lookup(ty))
        if not cands:
            return
        draws = []
        for combo in itertools.combinations_with_replacement(cands, count):
            env = env_sum([it[0] for it in combo], card)
            if env is not None:
                draws.append((combo, env))
        options.append(draws)
    for choice in itertools.product(*options):
        env = env_sum([e for _, e in choice], card)
        if env is not None:
            yield env, tuple(it for combo, _ in choice for it in combo)


def _demand_driven(sys: str, t: Term) -> bool:
    """Arguments typed from the wanted multitype down (see _rules_at)
    instead of looked up in their own enumeration: B bangs and V
    variables, so deep element types stay reachable there."""
    return (sys == B and isinstance(t, Bang)) or (sys == V and isinstance(t, Var))


def _lookup(sys: str, u: Term, items, at) -> Callable[[Type], Iterable]:
    """A function from a type to the items typing u exactly at it, in
    table order: `at(u)` for a demand-driven u, and for a variable where
    `at` has a lookup for it, else a reader of that type over one shared
    reader of u's items.  The shared reader files each item under its
    type as it reads, and a reader of type ty yields ty's filed items,
    then reads on only as far as ty's next item, so a lookup reads no
    further into u's table than its queries need, and none of it if it
    is never queried.  Once the shared reader is at its end, a query
    returns the filed list itself."""
    typed = at(u) if _demand_driven(sys, u) or isinstance(u, Var) else None
    if typed is not None:
        return typed
    filed: defaultdict[Type, list] = defaultdict(list)
    reader: Optional[Iterator] = None  # opened on the first query
    done = False

    def read_to(ty: Type) -> bool:
        """Read on to the next item of type ty; False at the end."""
        nonlocal reader, done
        if reader is None:
            reader = iter(items(u))
        for it in reader:
            filed[it[1]].append(it)
            if it[1] is ty:
                return True
        done = True
        return False

    def reading(ty: Type) -> Iterator:
        rows = filed[ty]
        i = 0
        while i < len(rows) or read_to(ty):
            yield rows[i]
            i += 1

    return lambda ty: filed.get(ty, ()) if done else reading(ty)


def _is_opened(name: str) -> bool:
    """Whether name has the form of a binder name `_opening` makes: `%`
    followed by digits."""
    return name[:1] == "%" and name[1:].isdecimal()


def _opening(t: Term) -> str:
    """The name an abs/es node t opens its binder with: one past the
    largest %k free in t, or %0.  No typing of t mentions it, since the
    rules drop the binder from every env."""
    ks = [int(n[1:]) for n in free_vars(t) if _is_opened(n)]
    return f"%{max(ks, default=-1) + 1}"


def _rules(sys: str, t: Term, bounds: Bounds, items, at, top=math.inf
           ) -> Iterator[tuple[Env, Type, str, tuple, Optional[str]]]:
    """Every last-rule instance (env, type, rule, premises, binder) of
    system `sys` typing t within the bounds at a type of depth at most
    `top` (math.inf: any depth), in one fixed order; an abs/es t opens
    its binder with _opening(t).

    An item is any sequence whose first two entries are an env and a
    type; premises are items of the immediate subterms.  `items(u, cap)`
    gives the items of a subterm u whose type has depth at most `cap`
    (`items(u)`: all of them), and `at(u)`, for a demand-driven u, a
    function from a type to the items typing u exactly at it; for a
    variable, such a function or None, to read its items by type.  The
    instances are produced lazily, so a consumer that looks for one
    conclusion (`_first_derivation`) stops at the first that matches.

    The cap is pushed down into every premise the conclusion type passes
    through, so no table on that path builds a row its reader drops, as
    magic sets push a query's bindings into bottom-up evaluation
    (Bancilhon, Maier, Sagiv and Ullman, PODS 1986); _table reads
    nothing below 1, the least depth of a type.  By rule:

    - var checks each axiom's type against `top`;
    - B/N abs concludes M -> sigma, one level deeper than the deeper of
      the two, so the body is read at `top - 1`, and M must be shallower
      than `top`;
    - V abs concludes a multiset of such arrows, each one level below
      it, so the body is read at `top - 2` and each arrow is checked
      against `top - 1` (and the depth bound, as uncapped);
    - es concludes its body's type: the body is read at `top`;
    - B bang concludes the multiset of its premises' types: `top - 1`;
    - B der concludes sigma from [sigma], one level deeper: `top + 1`;
    - app concludes the codomain of the function's arrow, checked
      against `top` before the argument is read.

    The function of an app and the argument of an app or es are read
    uncapped: an arrow's domain, and the binder multitype an argument is
    matched against, can be as deep as the universe allows, whatever the
    conclusion's depth.  A check the premise's cap implies is not made
    again.
    """
    card = bounds.card
    match t:
        case Var(x):
            for env, ty in _var_axioms(sys, x, bounds):
                if ty._depth <= top:
                    yield env, ty, "var", (), None
        case Idx():
            raise ValueError("enumeration requires a locally closed subject")
        case Abs(_, body):
            name = _opening(t)
            opened = open_var(body, name)
            if sys == V:
                # Fold the binder into the arrow before combining, so the
                # card bound applies to the residual environments only.
                limit = min(bounds.depth, top - 1)
                arrows = ((it, Arrow(it[0].get(name), it[1])) for it in items(opened, top - 2))
                folded = ((it[0].without(name), a, it) for it, a in arrows
                          if a._depth <= limit)
                for fam in _grouped_multisets(folded, card):
                    yield (env_sum([f[0] for f in fam]), Multi(tuple(f[1] for f in fam)),
                           "abs", tuple(f[2] for f in fam), name)
            else:
                for it in items(opened, top - 1):
                    m = it[0].get(name)
                    if m._depth < top:
                        yield it[0].without(name), Arrow(m, it[1]), "abs", (it,), name
        case App(fun, arg):
            arg_at = _arg_premises(sys, arg, bounds, items, at)
            for f in items(fun):
                fty = f[1]
                if sys == V:
                    if not (isinstance(fty, Multi) and len(fty) == 1
                            and isinstance(fty.elems[0], Arrow)):
                        continue
                    fty = fty.elems[0]
                if not isinstance(fty, Arrow) or fty.cod._depth > top:
                    continue
                for aenv, fam in arg_at(fty.dom):
                    env = env_sum([f[0], aenv], card)
                    if env is not None:
                        yield env, fty.cod, "app", (f, *fam), None
        case Sub(_, body, arg):
            name = _opening(t)
            arg_at = _arg_premises(sys, arg, bounds, items, at)
            for b in items(open_var(body, name), top):
                rest = b[0].without(name)
                for aenv, fam in arg_at(b[0].get(name)):
                    env = env_sum([rest, aenv], card)
                    if env is not None:
                        yield env, b[1], "es", (b, *fam), name
        case Bang(inner):
            if sys == B:
                sub = (it for it in items(inner, top - 1) if it[1]._depth < bounds.depth)
                for fam in _grouped_multisets(sub, card):
                    yield (env_sum([it[0] for it in fam]), Multi(tuple(it[1] for it in fam)),
                           "bang", fam, None)
        case Der(inner):
            if sys == B:
                for it in items(inner, top + 1):
                    ty = it[1]
                    if isinstance(ty, Multi) and len(ty) == 1:
                        yield it[0], ty.elems[0], "der", (it,), None
        case _:
            raise TypeError(t)


def _arg_premises(sys: str, arg: Term, bounds: Bounds, items, at):
    """A function from a multitype m to the ways (env, premises) of typing
    the argument of an app or es node at m, produced lazily: in N a family
    with one premise per element of m (see _families), in B and V one
    premise of type m, read from the argument's lookup (see _lookup) as
    the rule takes it."""
    lookup = _lookup(sys, arg, items, at)
    if sys == N:
        return lambda m: _families(lookup, m, bounds.card)
    return lambda m: ((a[0], (a,)) for a in lookup(m))


def _rules_at(sys: str, t: Term, want: Type, bounds: Bounds, inner
              ) -> Iterator[tuple[Env, Type, str, tuple, Optional[str]]]:
    """The rule instances typing a demand-driven t exactly at `want`: the
    V var axiom at any card-bounded multiset over the universe, or the B
    bang rule with one premise per element of `want`, drawn from
    `inner`, a function from a type to the items typing the bang's body
    at it."""
    if not isinstance(want, Multi):
        return
    if sys == V:
        if _acceptable_var_multi(want, bounds):
            yield Env(((t.name, want),)), want, "var", (), None
    else:
        for env, fam in _families(inner, want, bounds.card):
            yield env, want, "bang", fam, None


_TABLES: dict = {}  # the process-wide memo of _table and _envs_at


def _table(memo: dict, sys: str, t: Term, bounds: Bounds, grid: bool = False,
           top=math.inf) -> Iterator[Pair]:
    """A reader over the distinct (env, type) typings of t within the
    bounds whose type has depth at most `top` (math.inf: uncapped), drawn
    lazily and memoised in `memo`: it keeps one tee iterator
    over t's producer that never advances and hands each reader a copy,
    so every row is produced once, and kept for all readers.  A producer
    reads only the tables of strict subterms, so none re-enters itself,
    and the completion step of general tabled resolution (Tamaki and
    Sato, "OLD Resolution with Tabulation", ICLP 1986) is not needed.
    The full table of a variable is its var axioms, `_var_axioms`, built
    once per process, so it takes no memo entry, and a table capped below
    1, the least depth of a type, is empty and takes none either.

    A capped table is the uncapped one less its rows deeper than `top`,
    in the same order: _rules reads each premise the conclusion type
    passes through at the cap the rule allows it, and the function and
    argument tables of app and es uncapped (see _rules).  Only
    grid_typing_set reads a capped root, at `bounds.depth - 1`, since it
    keeps nothing deeper; every other reader reads uncapped tables, so
    their rows and order do not depend on the caps.

    With `grid`, the table grid_typing_set reads: only the typings whose
    env binds no name outside _is_opened at a multitype deeper than
    `bounds.depth - 1` (see _pruned).  Its subterms' tables are pruned
    too, so what is dropped never reaches a rule instance above it."""
    if top < 1:
        return iter(())
    if not grid and isinstance(t, Var) and top == math.inf:
        return iter(_var_axioms(sys, t.name, bounds))
    key = (sys, t, bounds, grid, top)
    start = memo.get(key)
    if start is None:
        start = memo[key] = itertools.tee(_produce(memo, key), 1)[0]
    return start.__copy__()


def _produce(memo: dict, key: tuple) -> Iterator[Pair]:
    sys, t, bounds, grid, top = key
    if sys == B and untypable_certificate(t):
        return

    def items(u: Term, cap=math.inf) -> Iterator[Pair]:
        return _table(memo, sys, u, bounds, grid, cap)

    def at(u: Term):
        if grid and not _demand_driven(sys, u):
            return None  # a grid table reads a variable's grid table by type
        return _at(memo, sys, u, bounds, grid)

    rows = ((r[0], r[1]) for r in _rules(sys, t, bounds, items, at, top))
    seen = set()
    try:
        for row in _pruned(rows, bounds) if grid else rows:
            if row not in seen:
                seen.add(row)
                yield row
    except GeneratorExit:
        raise
    except BaseException:
        # a producer that raised is finished, and its tee would end the
        # table there for every later reader: drop it (and, as the
        # exception passes up, the tables reading it), to be drawn again
        memo.pop(key, None)
        raise


def _envs_at(memo: dict, sys: str, t: Term, want: Type, bounds: Bounds, grid: bool
             ) -> tuple[Pair, ...]:
    """The (env, want) typings of t, deduplicated and memoised in `memo`
    whole, as each reader reads them: from _rules_at for a demand-driven
    t, else filtered from its table; with `grid`, from the pruned tables,
    and pruned as they are."""
    key = (sys, t, want, bounds, grid)
    rows = memo.get(key)
    if rows is None:
        if _demand_driven(sys, t):
            inner = _at(memo, sys, t.inner, bounds, grid) if sys == B else None
            found = ((r[0], r[1]) for r in _rules_at(sys, t, want, bounds, inner))
            rows = tuple(dict.fromkeys(_pruned(found, bounds) if grid else found))
        else:
            rows = tuple(p for p in _table(memo, sys, t, bounds, grid) if p[1] == want)
        memo[key] = rows
    return rows


def _at(memo: dict, sys: str, u: Term, bounds: Bounds, grid: bool
        ) -> Callable[[Type], Sequence[Pair]]:
    """A function from a type to the (env, type) typings of u at it: in
    the full tables, one probe of `_var_axioms_at` for a variable that is
    not demand-driven, which takes no memo entry; else `_envs_at`."""
    if not grid and isinstance(u, Var) and not _demand_driven(sys, u):
        rows = _var_axioms_at(sys, u.name, bounds)
        return lambda want: rows.get(want, ())
    return lambda want: _envs_at(memo, sys, u, want, bounds, grid)


def _pairs(sys: str, t: Term, bounds: Bounds, grid: bool = False, top=math.inf
           ) -> tuple[Pair, ...]:
    """All (env, type) typings of t within the bounds (deduplicated) at a
    type of depth at most `top`: its process-wide table (see _table), read
    to its end."""
    return tuple(_table(_TABLES, sys, t, bounds, grid, top=top))


def _pruned(rows: Iterator[Pair], bounds: Bounds) -> Iterator[Pair]:
    """The rows whose env binds every name outside _is_opened at depth at
    most `bounds.depth - 1`.  This is exact: the grid table of a root is
    its full table less the rows dropped here, and on_grid keeps the same
    typings of either.

    - every rule builds its conclusion's env as a sum of premise envs,
      less the binder of an abs/es node;
    - that binder is always a name _opening makes, one this test keeps;
    - env_sum only grows bindings and drops the empty ones;
    - so the binding of any other name in a premise is a sub-multiset of
      its binding in every conclusion above it, and no shallower.

    So a dropped row lies under no on-grid typing of the root, and each
    premise of a kept row is kept.  The types of subterms cannot be
    pruned this way, since app and es drop the argument's multitype.  A
    free name of the root that has a binder's form is kept as well,
    which only prunes less."""
    limit = bounds.depth - 1
    for env, ty in rows:
        if all(m._depth <= limit or _is_opened(n) for n, m in env.items):
            yield env, ty


def typing_pairs(sys: str, t: Term, bounds: Bounds = Bounds()) -> frozenset[Pair]:
    """The set of bounded typings of t, deduplicated."""
    return frozenset(_pairs(sys, t, bounds))


def on_grid(pair: Pair, limit: int) -> bool:
    """Whether every component of the typing has depth <= limit.

    grid_typing_set compares typing sets on the grid one level below the
    enumeration depth (limit = depth - 1): at the boundary itself, one
    side of a reduction step may need types the bounded enumeration
    cannot reach."""
    env, ty = pair
    return ty._depth <= limit and all(m._depth <= limit for _, m in env.items)


def grid_typing_set(sys: str, t: Term, bounds: Bounds = Bounds()) -> frozenset[Pair]:
    """The canonical typings of t on the grid below the depth bound, read
    from the grid tables (`_pairs` with `grid`), which drop while they
    are built what cannot reach the grid: the root's table is capped at
    the grid's depth, and _rules pushes the cap down into every premise
    the conclusion type passes through, by the depth each rule adds or
    removes (see _rules).  The function and argument tables of app and
    es stay uncapped, since an arrow's domain and a binder's multitype
    may lie past the grid under an on-grid conclusion.  on_grid still
    checks the env, since a `%k` name free at the root is never pruned."""
    limit = bounds.depth - 1
    return frozenset(canon_typing(p)
                     for p in _pairs(sys, t, bounds, True, limit) if on_grid(p, limit))


@lru_cache(maxsize=None)
def canon_typing(pair: Pair) -> Pair:
    """Rename type variables to the pool prefix in first-occurrence order,
    so typing sets are comparable across terms."""
    env, ty = pair
    order: list[str] = []

    def visit(t: Type):
        match t:
            case TVar(name):
                if name not in order:
                    order.append(name)
            case Multi(elems):
                for e in elems:
                    visit(e)
            case Arrow(dom, cod):
                visit(dom)
                visit(cod)

    for _, m in env.items:
        visit(m)
    visit(ty)
    mapping = {n: _POOL_NAMES[i] for i, n in enumerate(order)}
    if all(k == v for k, v in mapping.items()):
        return pair
    return (Env(tuple((n, rename_tvars(m, mapping)) for n, m in env.items)),
            rename_tvars(ty, mapping))


# ---------------------------------------------------------------------------
# Derivations: the first rule instance concluding a typing, over the tables


def typings_enumerate(sys: str, t: Term, bounds: Bounds = Bounds()
                      ) -> Iterator[tuple[Pair, Callable[[], Derivation]]]:
    """Every distinct bounded typing of t, lazily, in table order, each
    paired with a zero-argument function that builds its derivation (see
    _first_derivation).  The call owns its tables (see _table), drawn as
    far as its reader goes, and clears them when the stream ends or is
    closed, since their producers refer back to them: call a derivation
    function while the stream is open.  Sound (each derivation passes
    check_derivation) and complete relative to the bounds: axiom types
    come from the bounded universe and each formed multiset has at most
    `card` elements."""
    memo: dict = {}
    try:
        for env, ty in _table(memo, sys, t, bounds):
            yield (env, ty), partial(_first_derivation, memo, sys, (env, ty, t, False), bounds)
    finally:
        memo.clear()


def find_derivation(sys: str, t: Term, typing: Pair, bounds: Bounds = Bounds()
                    ) -> Optional[Derivation]:
    """A derivation with the given conclusion typing, if one exists in
    bounds (compared up to canonical type-variable renaming): the
    derivation typings_enumerate pairs with the first typing of t that
    matches."""
    target = canon_typing(typing)
    return next((derivation() for pair, derivation in typings_enumerate(sys, t, bounds)
                 if canon_typing(pair) == target), None)


def _first_derivation(memo: dict, sys: str, item: tuple, bounds: Bounds) -> Derivation:
    """The first derivation of an item (env, type, term, demanded): the
    first rule instance concluding its typing, then at each premise the
    same, over the tables in `memo`.  Its premises are items of the
    _table and _envs_at tables, tagged with their subterm; `demanded`
    marks an item of a demand-driven subterm (see _demand_driven), whose
    instances come from _rules_at instead of _rules.

    `memo` also keeps, per term (and wanted type, if demanded), one scan
    of its rule instances, resumed where the last search stopped, and the
    first instance of each conclusion passed so far, made a derivation
    once, when asked for: deriving every typing of a table reads each
    rule instance once."""
    env, ty, u, demanded = item
    key = (u, ty) if demanded else u  # no table key is a term or a pair
    scan = memo.get(key)
    if scan is None:
        def items(v: Term, cap=math.inf) -> Iterator[tuple]:
            return ((e, vt, v, False) for e, vt in _table(memo, sys, v, bounds, top=cap))

        def at(v: Term):
            demand, typed = _demand_driven(sys, v), _at(memo, sys, v, bounds, False)
            return lambda want: [(e, want, v, demand) for e, _ in typed(want)]

        if demanded:
            inner = _lookup(sys, u.inner, items, at) if sys == B else None
            instances = _rules_at(sys, u, ty, bounds, inner)
        else:
            instances = _rules(sys, u, bounds, items, at)
        scan = memo[key] = (instances, {})
    instances, first = scan
    try:
        while (env, ty) not in first:
            r = next(instances, None)
            if r is None:
                raise AssertionError(f"no {sys} rule instance concludes a tabled typing of {u!r}")
            first.setdefault((r[0], r[1]), r)
    except BaseException:
        del memo[key]  # a scan that raised is finished
        raise
    d = first[env, ty]
    if not isinstance(d, Derivation):
        d = first[env, ty] = Derivation(
            sys, d[2], Judgment(env, u, ty),
            tuple([_first_derivation(memo, sys, p, bounds) for p in d[3]]), d[4])
    return d


# ---------------------------------------------------------------------------
# Sound untypability certificates (system B), and the canonical B derivation
# of a clash-free normal form: one structural recursion, `_canon`

_SH_TVAR, _SH_ARROW, _SH_M0, _SH_MPOS = "tvar", "arrow", "m0", "m+"
_ALL_SHAPES = frozenset((_SH_TVAR, _SH_ARROW, _SH_M0, _SH_MPOS))


@lru_cache(maxsize=None)
def type_shapes(t: Term) -> frozenset[str]:
    """Over-approximation of the possible B-type shapes of t, ignoring
    environments.  An empty result certifies that t is untypable in B
    at any bounds."""
    match t:
        case Var() | Idx():
            return _ALL_SHAPES
        case Bang(inner):
            inner_ok = bool(type_shapes(inner))
            return frozenset((_SH_M0, _SH_MPOS)) if inner_ok else frozenset((_SH_M0,))
        case Der(inner):
            return _ALL_SHAPES if _SH_MPOS in type_shapes(inner) else frozenset()
        case Abs(_, body):
            return frozenset((_SH_ARROW,)) if type_shapes(body) else frozenset()
        case App(fun, arg):
            if _SH_ARROW in type_shapes(fun) and type_shapes(arg) & {_SH_M0, _SH_MPOS}:
                return _ALL_SHAPES
            return frozenset()
        case Sub(_, body, arg):
            if type_shapes(arg) & {_SH_M0, _SH_MPOS}:
                return type_shapes(body)
            return frozenset()
    raise TypeError(t)


def untypable_certificate(t: Term) -> bool:
    """True when the shape analysis refutes every possible B-derivation."""
    return not type_shapes(t)


def canonical_nf_derivation(t: Term) -> Derivation:
    """A concrete B-derivation for a surface clash-free normal form.

    Neutral terms get a head-driven typing (arguments typed with the
    empty multitype), bangs the zero-premise typing, abstractions the
    arrow induced by the body.  The result passes check_derivation; no
    enumeration bounds are involved.
    """
    cls = reduction.classify(t)
    if not cls.in_no_s:
        raise ValueError("subject must be a surface clash-free normal form")
    return _canon(t)


def _canon(t: Term, want: Type = EMPTY_MULTI) -> Derivation:
    """The canonical derivation of t, at `want` where t is neutral: a
    head variable takes `want`, each function position `[] -> want`,
    each argument the empty multitype, each closure argument what the
    body asks of its binder."""
    match t:
        case Var(x):
            return Derivation(B, "var", Judgment(Env(((x, multi(want)),)), t, want))
        case App(fun, arg):
            fd = _canon(fun, Arrow(EMPTY_MULTI, want))
            ad = _canon(arg)
            env = env_sum([fd.conclusion.env, ad.conclusion.env])
            return Derivation(B, "app", Judgment(env, t, want), (fd, ad))
        case Der(inner):
            pd = _canon(inner, multi(want))
            return Derivation(B, "der", Judgment(pd.conclusion.env, t, want), (pd,))
        case Bang(_):
            return Derivation(B, "bang", Judgment(EMPTY_ENV, t, EMPTY_MULTI))
        case Abs(_, body):
            name = _opening(t)
            bd = _canon(open_var(body, name))
            m = bd.conclusion.env.get(name)
            return Derivation(
                B, "abs",
                Judgment(bd.conclusion.env.without(name), t, Arrow(m, bd.conclusion.type)),
                (bd,), binder=name)
        case Sub(_, body, arg):
            name = _opening(t)
            bd = _canon(open_var(body, name), want)
            m = bd.conclusion.env.get(name)
            ad = _canon(arg, m)
            env = env_sum([bd.conclusion.env.without(name), ad.conclusion.env])
            return Derivation(B, "es", Judgment(env, t, bd.conclusion.type),
                              (bd, ad), binder=name)
    raise ValueError(f"not a normal form: {t!r}")


# ---------------------------------------------------------------------------
# Normalization-based typability (system B)


def typable(t: Term, fuel: int = 1000) -> str:
    """Decide B-typability via surface normalization: typable iff the
    term surface-reduces to a clash-free normal form."""
    out = reduction.normalize(t, reduction.SURFACE, fuel)
    if not out.normalized:
        return "unknown"
    cls = reduction.classify(out.term)
    return "yes" if cls.in_no_s else "no"


def typing_transport_check(t: Term, u: Term, bounds: Bounds = Bounds()) -> bool:
    """For a one-step full reduct u of t, bounded typing sets coincide
    (compared on the grid one depth level below the bounds)."""
    return grid_typing_set(B, t, bounds) == grid_typing_set(B, u, bounds)
