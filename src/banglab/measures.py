"""Termination certificates for the substitution rule: potential
multiplicities, the multiset measure, and the Dershowitz-Manna order.

Every s! step strictly decreases the multiset measure, so pure s!
reduction terminates; the property suites replay this on enumerated and
sampled terms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union

from .syntax import Abs, App, Bang, Der, Idx, Sub, Term, Var

Target = Union[str, int]  # free name, or dangling de Bruijn level


@dataclass(frozen=True)
class NatMultiset:
    """Finite multiset of naturals in canonical descending order."""

    elems: tuple[int, ...] = ()

    @staticmethod
    def of(items: Iterable[int]) -> "NatMultiset":
        return NatMultiset(tuple(sorted(items, reverse=True)))

    def union(self, other: "NatMultiset") -> "NatMultiset":
        return NatMultiset.of(self.elems + other.elems)

    def scale(self, n: int) -> "NatMultiset":
        return NatMultiset.of(n * e for e in self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __str__(self):
        return "{" + ", ".join(map(str, self.elems)) + "}"


EMPTY = NatMultiset()


def _shift_target(target: Target) -> Target:
    return target + 1 if isinstance(target, int) else target


def _pm(t: Term, target: Target) -> int:
    match t:
        case Var(n):
            return 1 if target == n else 0
        case Idx(k):
            return 1 if target == k else 0
        case Abs(_, body):
            return _pm(body, _shift_target(target))
        case App(fun, arg):
            return _pm(fun, target) + _pm(arg, target)
        case Sub(_, body, arg):
            bound = _pm(body, 0)
            return _pm(body, _shift_target(target)) + max(1, bound) * _pm(arg, target)
        case Bang(inner) | Der(inner):
            return _pm(inner, target)
    raise TypeError(t)


def pot_mult(x: str, t: Term) -> int:
    """Potential multiplicity of the free variable x in t: occurrences of
    x in the unfolding of all pending substitutions, counting erased
    positions once."""
    return _pm(t, x)


def multi_size(t: Term) -> NatMultiset:
    """Multiset measure: one entry per closure, recording its binder's
    potential multiplicity, with argument measures scaled by sharing."""
    match t:
        case Var() | Idx():
            return EMPTY
        case Abs(_, body):
            return multi_size(body)
        case App(fun, arg):
            return multi_size(fun).union(multi_size(arg))
        case Sub(_, body, arg):
            bound = _pm(body, 0)
            return (NatMultiset.of((bound,))
                    .union(multi_size(body))
                    .union(multi_size(arg).scale(max(1, bound))))
        case Bang(inner) | Der(inner):
            return multi_size(inner)
    raise TypeError(t)


def ms_gt(a: NatMultiset, b: NatMultiset) -> bool:
    """Dershowitz-Manna strict order: a > b iff a != b and every element
    that b gained is dominated by some element a lost."""
    ca, cb = Counter(a.elems), Counter(b.elems)
    lost = ca - cb
    gained = cb - ca
    if not lost and not gained:
        return False
    if not lost:
        return False
    top = max(lost)
    return all(top > g for g in gained)
