"""Which banglab functions the traced run wraps, and the per-layer metrics
derived from their spans.

Each function is wrapped in the module that calls it, under the name that
module looks it up by: `reduction.redexes` catches the per-step scans of
`normalize`, `meaning.testable` the testability calls of `meaningful`, and
`workloads.meaningful` the benchmark's own top-level call.  `measures`,
`suites` and `cli` are not on any workload's path.
"""

from __future__ import annotations

from collections import defaultdict

import workloads
from banglab import cbnv, inhabitation, meaning, reduction, typesys
from banglab.reduction import FULL, SURFACE
from banglab.syntax import Bang, children

# (calling module, name it looks up, span key)
CALLS = [
    (reduction, "subst_bound", "syntax.subst_bound"),
    (reduction, "shift_free", "syntax.shift_free"),
    (reduction, "replace_at", "syntax.replace_at"),
    (cbnv, "subst_bound", "syntax.subst_bound"),
    (cbnv, "shift_free", "syntax.shift_free"),
    (meaning, "plug", "syntax.plug"),
    (cbnv, "plug", "syntax.plug"),
    (reduction, "apply_redex", "reduction.apply_redex"),
    (reduction, "normalize", "reduction.normalize"),
    (reduction, "classify", "reduction.classify"),
    (meaning, "normalize", "reduction.normalize"),
    (workloads, "normalize", "reduction.normalize"),
    (typesys, "canon_typing", "typesys.canon_typing"),
    (inhabitation, "find_derivation", "typesys.find_derivation"),
    (workloads, "grid_typing_set", "typesys.grid_typing_set"),
    (inhabitation, "inhabit", "inhabitation.inhabit"),
    (workloads, "meaningful", "meaning.meaningful"),
    (workloads, "embed", "cbnv.embed"),
]
SUBST = ("syntax.subst_bound", "syntax.shift_free", "syntax.replace_at")


def _caches(module):
    """The module's own lru_caches (discovered before any wrapping)."""
    return [f for f in vars(module).values()
            if hasattr(f, "cache_info") and getattr(f, "__module__", None) == module.__name__]


def _cache_stats(caches) -> tuple[int, float]:
    infos = [f.cache_info() for f in caches]
    hits = sum(i.hits for i in infos)
    lookups = hits + sum(i.misses for i in infos)
    return sum(i.currsize for i in infos), (hits / lookups if lookups else 0.0)


def _scanned(t, full: bool, memo: dict) -> int:
    """Nodes that `reduction.redexes` visits in t: all of them under the
    full closure, none below a bang under the surface closure.  A subterm
    shared between scans is counted at every scan but walked once, through
    a memo on identity."""
    stack = [(t, False)]
    while stack:
        u, expanded = stack.pop()
        if id(u) in memo:
            continue
        kids = () if isinstance(u, Bang) and not full else children(u)
        if expanded:
            memo[id(u)] = 1 + sum(memo[id(c)] for c in kids)
        else:
            stack.append((u, True))
            stack.extend((c, False) for c in kids if id(c) not in memo)
    return memo[id(t)]


class Instrumentation:
    """Installs the wrappers on construction; `metrics` reads them out."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.typesys_caches = _caches(typesys)
        self.inhabitation_caches = _caches(inhabitation)
        self.counts: dict[str, int] = defaultdict(int)
        self.tried: set = set()
        self.scans: list = []
        for module, name, key in CALLS:
            tracer.patch(module, name, key)
        tracer.patch(reduction, "redexes", "reduction.redexes", self._on_redexes)
        tracer.patch(typesys, "typing_pairs", "typesys.typing_pairs", self._on_pairs)
        tracer.patch(inhabitation, "typing_pairs", "typesys.typing_pairs", self._on_pairs)
        tracer.patch(meaning, "canon_typing", "typesys.canon_typing", self._on_canon)
        tracer.patch(meaning, "typings_enumerate", "typesys.typings_enumerate",
                     generator=True)
        tracer.patch(meaning, "testable", "inhabitation.testable", self._on_testable)
        tracer.patch(meaning, "replay", "meaning.replay", self._on_replay)

    def _on_redexes(self, args, result):
        closure = args[1] if len(args) > 1 else SURFACE
        self.scans.append((args[0], closure == FULL))

    def _on_pairs(self, args, result):
        self.counts["typings"] += len(result)

    def _on_canon(self, args, result):
        self.tried.add((self.tracer.item_id, result))

    def _on_testable(self, args, result):
        self.counts["testable_yes"] += result.verdict == "yes"

    def _on_replay(self, args, result):
        self.counts["replay_steps"] += result[1] if result is not None else 0

    def after_item(self):
        """Counts the nodes the item's redex scans visited, between items
        so that the scanned terms need not be kept alive for the round."""
        memos = {False: {}, True: {}}
        self.counts["nodes_scanned"] += sum(_scanned(t, full, memos[full])
                                            for t, full in self.scans)
        self.scans.clear()

    def metrics(self, outputs) -> dict[str, float]:
        m = self.tracer.layer_metrics()
        c = self.counts

        def get(key):
            return m.get(key, 0)

        testable_calls = get("inhabitation.testable.calls")
        typesys_entries, typesys_hits = _cache_stats(self.typesys_caches)
        inh_entries, inh_hits = _cache_stats(self.inhabitation_caches)
        statuses = [getattr(o, "status", None) for o in outputs]
        out = {
            "reduction.steps": get("reduction.apply_redex.calls"),
            "reduction.redex_scans": get("reduction.redexes.calls"),
            "reduction.nodes_scanned": c["nodes_scanned"],
            "reduction.redexes_s": get("reduction.redexes.s"),
            "reduction.normalize_s": get("reduction.normalize.s"),
            "syntax.subst_calls": sum(get(k + ".calls") for k in SUBST),
            "syntax.subst_s": sum(get(k + ".s") for k in SUBST),
            "syntax.plug_s": get("syntax.plug.s"),
            "typesys.typing_pairs_s": get("typesys.typing_pairs.s"),
            "typesys.typings": c["typings"],
            "typesys.canon_s": get("typesys.canon_typing.s"),
            "typesys.cache_entries": typesys_entries,
            "typesys.cache_hit_ratio": typesys_hits,
            "typesys.enumerate_s": get("typesys.typings_enumerate.s"),
            "typesys.derivations": self.tracer.counts["typesys.typings_enumerate.yielded"],
            "typesys.find_derivation_calls": get("typesys.find_derivation.calls"),
            "typesys.find_derivation_s": get("typesys.find_derivation.s"),
            "inhabitation.testable_calls": testable_calls,
            "inhabitation.testable_s": get("inhabitation.testable.s"),
            "inhabitation.testable_yes_ratio":
                c["testable_yes"] / testable_calls if testable_calls else 0.0,
            "inhabitation.inhabit_s": get("inhabitation.inhabit.s"),
            "inhabitation.cache_entries": inh_entries,
            "inhabitation.cache_hit_ratio": inh_hits,
            "meaning.typings_tried": len(self.tried),
            "meaning.replay_s": get("meaning.replay.s"),
            "meaning.replay_steps": c["replay_steps"],
            "meaning.meaningful": statuses.count(meaning.MEANINGFUL),
            "meaning.meaningless": statuses.count(meaning.MEANINGLESS),
            "meaning.unknown": statuses.count(meaning.UNKNOWN),
            "cbnv.embed_calls": get("cbnv.embed.calls"),
            "cbnv.embed_s": get("cbnv.embed.s"),
            "trace.spans": m["trace.spans"],
        }
        out.update({k: v for k, v in m.items() if k.endswith(".self_s")})
        return out
