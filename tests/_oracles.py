"""Reference functions that the tests compare the library against.

The library itself does not use them: the index-map laws, substitution
compatibility of `pot_mult`, subterm positions and the JSON round trip
are stated through them.
"""

from banglab.syntax import (Abs, App, Bang, Der, Idx, Position, Sub, Term, Var,
                            children, esub, lam, map_leaves)


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


def msubst(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding meta-level substitution t{x:=u}.

    `u` must be locally closed; index binders cannot capture its free
    names, so no renaming is ever needed.
    """
    return map_leaves(t, lambda n, d: u if type(n) is Var and n.name == x else n)


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
