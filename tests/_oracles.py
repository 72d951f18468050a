"""Reference functions that the tests compare the library against.

The library itself does not use them: the index-map laws, substitution
compatibility of `pot_mult`, subterm positions, walk lengths and the JSON
round trip are stated through them.
"""

from banglab.reduction import CBN, CBV, FULL, SURFACE
from banglab.syntax import (Abs, App, Bang, Der, Idx, Position, Sub, Term, Var,
                            children, esub, lam)


def max_free_index(t: Term, depth: int = 0) -> int:
    """Largest dangling de Bruijn index (negative if locally closed)."""
    found, stack = [], [(t, depth)]
    while stack:
        u, d = stack.pop()
        kind = type(u)
        if kind is Var:
            found.append(-1)
        elif kind is Idx:
            found.append(u.k - d)
        elif kind is Abs or kind is Sub:
            body, *rest = children(u)
            stack.append((body, d + 1))
            stack += [(c, d) for c in rest]
        else:
            stack += [(c, d) for c in children(u)]
    return max(found)


def loose_of(t: Term) -> int:
    """What t.loose must be: one past the largest dangling index, 0 if
    there is none."""
    return max(max_free_index(t) + 1, 0)


def term_size(t: Term) -> int:
    size, stack = 0, [t]
    while stack:
        size += 1
        stack.extend(children(stack.pop()))
    return size


def visit_every_leaf(t: Term, leaf, depth: int = 0) -> Term:
    """`syntax.map_leaves` without its skip and its sharing: every Var and
    Idx leaf is replaced by leaf(node, d), d being `depth` plus the
    binders above it, and every other node is built anew by its
    constructor.  The walk keeps its own stack."""
    done, todo = [], [(t, depth)]
    while todo:
        u, d = todo.pop()
        kind = type(u)
        if d is None:  # the rebuilt children of u are on top of `done`
            if kind is App:
                arg = done.pop()
                done.append(App(done.pop(), arg))
            elif kind is Sub:
                arg = done.pop()
                done.append(Sub(u.hint, done.pop(), arg))
            elif kind is Abs:
                done.append(Abs(u.hint, done.pop()))
            else:
                done.append(kind(done.pop()))
        elif kind is Var or kind is Idx:
            done.append(leaf(u, d))
        else:
            todo.append((u, None))
            if kind is App:
                todo += ((u.arg, d), (u.fun, d))
            elif kind is Sub:
                todo += ((u.arg, d), (u.body, d + 1))
            elif kind is Abs:
                todo.append((u.body, d + 1))
            else:
                todo.append((u.inner, d))
    return done[0]


def shift_free_ref(t: Term, delta: int, cutoff: int = 0) -> Term:
    return visit_every_leaf(
        t, lambda n, d: Idx(n.k + delta) if type(n) is Idx and n.k >= d else n, cutoff)


def open_var_ref(t: Term, name: str, depth: int = 0) -> Term:
    return visit_every_leaf(
        t, lambda n, d: Var(name) if type(n) is Idx and n.k == d else n, depth)


def subst_bound_ref(body: Term, u: Term, layers: int, depth: int = 0) -> Term:
    """A fresh copy of `u` at every occurrence, as the substitution was
    first written."""
    def leaf(n: Term, d: int) -> Term:
        if type(n) is Idx:
            if n.k == d:
                return shift_free_ref(u, d)
            if n.k > d:
                return Idx(n.k + layers - 1)
        return n

    return visit_every_leaf(body, leaf, depth)


def msubst(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding meta-level substitution t{x:=u}.

    `u` must be locally closed; index binders cannot capture its free
    names, so no renaming is ever needed.
    """
    return visit_every_leaf(t, lambda n, d: u if type(n) is Var and n.name == x else n)


def subterms(t: Term, closure: str = SURFACE):
    """(position, subterm) for every position the closure reaches, in
    preorder, each position built as its own tuple: what the scans of
    `reduction.redexes` and `static_clashes` filter.  Surface reaches
    everything outside bangs, full everything; CBN enters abstraction
    bodies but no argument, CBV arguments but no abstraction body, and
    neither enters a bang or a dereliction."""
    stack = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        kind = type(u)
        if kind is App or kind is Sub:
            if closure != CBN:
                stack.append((pos + (1,), u.arg))
            stack.append((pos + (0,), children(u)[0]))
        elif ((kind is Abs and closure != CBV)
              or (kind is Der and closure in (SURFACE, FULL))
              or (kind is Bang and closure == FULL)):
            stack.append((pos + (0,), children(u)[0]))


def grammar_flags_ref(t: Term) -> tuple[bool, bool, bool]:
    """(ne, na, nb) membership in the surface clash-free normal-form
    grammar, by recursion on its rules (small terms only)."""
    kind = type(t)
    if kind is Var or kind is Idx:
        return True, True, True
    if kind is App:
        ok = grammar_flags_ref(t.fun)[0] and grammar_flags_ref(t.arg)[1]
        return ok, ok, ok
    if kind is Der:
        ok = grammar_flags_ref(t.inner)[0]
        return ok, ok, ok
    if kind is Bang:
        return False, True, False
    if kind is Abs:
        _, na, nb = grammar_flags_ref(t.body)
        return False, False, na or nb
    if not grammar_flags_ref(t.arg)[0]:  # Sub
        return False, False, False
    return grammar_flags_ref(t.body)


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        t = children(t)[i]
    return t


def term_from_json(obj: dict) -> Term:
    match obj["k"]:
        case "var":
            return Var(obj["name"])
        case "abs":
            return lam(obj["binder"], term_from_json(obj["body"]))
        case "app":
            return App(term_from_json(obj["fun"]), term_from_json(obj["arg"]))
        case "sub":
            return esub(obj["binder"], term_from_json(obj["body"]), term_from_json(obj["arg"]))
        case "bang":
            return Bang(term_from_json(obj["inner"]))
        case "der":
            return Der(term_from_json(obj["inner"]))
    raise ValueError(f"unknown node kind {obj['k']!r}")
