"""Reference functions that the tests compare the library against.

The library itself does not use them: the index-map laws, substitution
compatibility of `pot_mult`, subterm positions, walk lengths and the JSON
round trip are stated through them.
"""

from banglab.syntax import (Abs, App, Bang, Der, Idx, Position, Sub, Term, Var,
                            children, esub, lam, with_child)


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
    """`syntax.map_leaves` without its skip: every Var and Idx leaf is
    replaced by leaf(node, d), d being `depth` plus the binders above it.
    Unchanged subterms are shared; the walk keeps its own stack."""
    done, todo = [], [(t, depth)]
    while todo:
        u, d = todo.pop()
        kind = type(u)
        if d is None:  # the rebuilt children of u are on top of `done`
            kids = children(u)
            new = done[-len(kids):]
            del done[-len(kids):]
            for i, kid in enumerate(new):
                u = with_child(u, i, kid)
            done.append(u)
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
