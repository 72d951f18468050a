"""The benchmark's three workloads: their inputs, one timed item each, and
the checks that the program's outputs are right.

    meaning   600 fixed `gen_term` terms through `meaning.meaningful`
    transfer  every bang-free term of size <= 5 over {x, y}, typing sets
              compared across the CBN and CBV embeddings
    rewrite   Church arithmetic embedded by CBN and CBV, normalized under
              the full and the surface closure

Each workload is a fixed set of items.  In meaning the seed fixes their
order, and with it which items find the caches that earlier items filled;
transfer keeps enumeration order, and rewrite keeps no cache, so order does
not matter there.  The checks run outside the timed phase and never print
or measure a term recursively: the rewrite normal forms are about 500
levels deep, where `print_term` and `term_size` fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from banglab.cbnv import CBN, CBV, c_meaningful, embed, unembed
from banglab.meaning import (MEANINGFUL, MEANINGLESS, UNKNOWN, meaningful,
                             search_testing_context)
from banglab.reduction import FULL, SURFACE, normalize
from banglab.syntax import (TESTING, Abs, AbsBody, App, AppFun, Bang, Der,
                            Idx, Sub, Var, children, enum_terms, gen_term,
                            parse_term, plug)
from banglab.typesys import B, N, V, check_derivation, grid_typing_set, typable


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list]          # seed -> inputs (set-up, untimed)
    run: Callable[[Any], Any]             # one timed item
    decided: Callable[[Any], bool]        # whether an output is a definite result
    check: Callable[[Any, Any], Optional[str]]  # failure message, or None
    digest: Callable[[Any], str]          # compares the outputs of two rounds


# ---------------------------------------------------------------------------
# Iterative term walks (safe at any depth)


def same_term(t, u) -> bool:
    """Alpha-equivalence: structural equality of the locally nameless
    terms, ignoring binder hints."""
    stack = [(t, u)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Var) and a.name != b.name:
            return False
        if isinstance(a, Idx) and a.k != b.k:
            return False
        stack.extend(zip(children(a), children(b)))
    return True


def node_count(t) -> int:
    n, stack = 0, [t]
    while stack:
        n += 1
        stack.extend(children(stack.pop()))
    return n


def church_value(t) -> Optional[int]:
    """Read a (possibly embedded) Church numeral: the number of applications
    headed by the variable that the outermost abstraction binds.

    The abstraction is looked for below bangs, derelictions and closure
    bodies, so the CBV image `!(\\f. ...)` is read like the CBN image."""
    depth = 0
    while not isinstance(t, Abs):
        if isinstance(t, (Bang, Der)):
            t = t.inner
        elif isinstance(t, Sub):
            t, depth = t.body, depth + 1
        else:
            return None
    f_level = depth
    count, stack = 0, [(t.body, depth + 1)]
    while stack:
        u, d = stack.pop()
        if isinstance(u, App):
            head = u
            while isinstance(head, App):
                head = head.fun
            if isinstance(head, Idx) and head.k == d - f_level - 1:
                count += 1
        if isinstance(u, Abs):
            stack.append((u.body, d + 1))
        elif isinstance(u, Sub):
            stack += [(u.body, d + 1), (u.arg, d)]
        else:
            stack.extend((c, d) for c in children(u))
    return count


# ---------------------------------------------------------------------------
# meaning: gen_term terms through meaningful() with default Budgets
#
# The terms are gen_term's seeds 0-14 for every size and profile, not a draw
# from the benchmark seed: in such draws a few items take seconds each, so
# two seeds differed by 3x in total time and by 26 vs 42 MB in peak RSS.

PROFILES = ("bang", "raw", "cbn-image", "cbv-image")
SIZES = range(3, 13)
PER_CELL = 15          # gen_term seeds per (profile, size) cell: 600 items
CHECK_FUEL = 10_000    # surface steps allowed when replaying evidence


@dataclass(frozen=True)
class MeaningItem:
    profile: str
    term: Any


def build_meaning(seed: int) -> list[MeaningItem]:
    items = [MeaningItem(p, gen_term(k, size, p))
             for size in SIZES for p in PROFILES for k in range(PER_CELL)]
    random.Random(f"meaning:{seed}").shuffle(items)
    return items


def is_testing_context(ctx) -> bool:
    """T ::= [] | T s | (\\x.T) s, read from the root: each layer is an
    application frame, optionally followed by an abstraction frame."""
    frames = list(ctx.frames)
    i = 0
    while i < len(frames):
        if not isinstance(frames[i], AppFun):
            return False
        i += 1
        if i < len(frames) and isinstance(frames[i], AbsBody):
            i += 1
    return ctx.kind == TESTING


def check_meaning(item: MeaningItem, v) -> Optional[str]:
    t = item.term
    if v.status == MEANINGFUL:
        ev = v.evidence
        if ev is None:
            return "meaningful verdict without evidence"
        if not is_testing_context(ev.context):
            return "evidence context is not a testing context"
        out = normalize(plug(ev.context, t), SURFACE, CHECK_FUEL)
        if not (out.normalized and isinstance(out.term, Bang)):
            return "evidence context does not send the term to a bang"
        if ev.derivation is None or check_derivation(ev.derivation) is not None:
            return "evidence derivation fails check_derivation"
        if typable(t) == "no":
            return "meaningful term is untypable"
    elif v.status == MEANINGLESS:
        if search_testing_context(t) is not None:
            return "a testing context sends the meaningless term to a bang"
    elif v.status != UNKNOWN:
        return f"unexpected verdict {v.status!r}"
    if item.profile in ("cbn-image", "cbv-image") and v.status != UNKNOWN:
        tag = CBN if item.profile == "cbn-image" else CBV
        src = unembed(tag, t)
        if src is None:
            return "image term has no source"
        c = c_meaningful(tag, src)
        if c.status != UNKNOWN and c.status != v.status:
            return f"bang verdict {v.status} but {tag} verdict {c.status}"
    return None


def _meaning_digest(v) -> str:
    ctx = v.evidence.context.frames if v.evidence is not None else None
    return repr((v.status, v.reason, ctx))


def run_meaning(item: MeaningItem):
    return meaningful(item.term)


MEANING = Workload(build_meaning, run_meaning, lambda v: v.status != UNKNOWN,
                   check_meaning, _meaning_digest)


# ---------------------------------------------------------------------------
# transfer: typing sets across the CBN/CBV embeddings

# The items run in enumeration order, smallest first, as criterion 10 runs
# them.  They share subterms, so the order decides which item pays for a
# shared typing table: shuffled by seed, p90 ranged from 74 to 147 ms.

TRANSFER_SIZE = 5


def build_transfer(seed: int) -> list:
    return list(enum_terms(TRANSFER_SIZE, ("x", "y"), bang_free=True))


def run_transfer(t):
    return (grid_typing_set(N, t), grid_typing_set(B, embed(CBN, t)),
            grid_typing_set(V, t), grid_typing_set(B, embed(CBV, t)))


def check_transfer(t, sets) -> Optional[str]:
    n, bn, v, bv = sets
    if n != bn:
        return "N typing set differs from the B typing set of the CBN image"
    if v != bv:
        return "V typing set differs from the B typing set of the CBV image"
    return None


TRANSFER = Workload(build_transfer, run_transfer, lambda sets: True,
                    check_transfer, lambda sets: repr([len(s) for s in sets]))


# ---------------------------------------------------------------------------
# rewrite: Church arithmetic, full and surface normalization

_OPS = {
    "add": (parse_term("\\m.\\n.\\f.\\x.m f (n f x)"), lambda a, b: a + b),
    "mul": (parse_term("\\m.\\n.\\f.m (n f)"), lambda a, b: a * b),
    "pow": (parse_term("\\b.\\e.e b"), lambda a, b: a ** b),
}
MAX_VALUE = 256        # 2^9 overflows the recursive redex walk
REWRITE_FUEL = 10_000


def church(n: int):
    body = Idx(0)
    for _ in range(n):
        body = App(Idx(1), body)
    return Abs("f", Abs("x", body))


def arithmetic_pairs() -> list[tuple[str, int, int]]:
    """Every power a^b <= 256 with a, b >= 2, products of even numerals up to
    16 and sums over {16, 32, 48, 64}."""
    evens = range(2, 17, 2)
    pairs = [("pow", a, b) for a in range(2, 17) for b in range(2, 9)
             if a ** b <= MAX_VALUE]
    pairs += [("mul", a, b) for a in evens for b in evens]
    pairs += [("add", a, b) for a in (16, 32, 48, 64) for b in (16, 32, 48, 64)]
    return pairs


@dataclass(frozen=True)
class RewriteItem:
    op: str
    a: int
    b: int
    tag: str
    value: int
    term: Any


def build_rewrite(seed: int) -> list[RewriteItem]:
    items = []
    for op, a, b in arithmetic_pairs():
        combinator, value = _OPS[op]
        src = App(App(combinator, church(a)), church(b))
        for tag in (CBN, CBV):
            items.append(RewriteItem(op, a, b, tag, value(a, b), embed(tag, src)))
    return items


def run_rewrite(item: RewriteItem):
    return (normalize(item.term, FULL, REWRITE_FUEL),
            normalize(item.term, SURFACE, REWRITE_FUEL))


def check_rewrite(item: RewriteItem, outs) -> Optional[str]:
    full, surface = outs
    if not (full.normalized and surface.normalized):
        return "normalization ran out of fuel"
    got = church_value(full.term)
    if got != item.value:
        return f"{item.op} {item.a} {item.b} ({item.tag}) reads {got}, expected {item.value}"
    again = normalize(surface.term, FULL, REWRITE_FUEL)
    if not (again.normalized and same_term(again.term, full.term)):
        return "full normal form of the surface normal form differs"
    return None


REWRITE = Workload(build_rewrite, run_rewrite, lambda outs: True, check_rewrite,
                   lambda outs: repr([(o.status, o.steps, node_count(o.term))
                                      for o in outs]))


WORKLOADS = {"meaning": MEANING, "transfer": TRANSFER, "rewrite": REWRITE}
