"""Tests of the benchmark's own decoder, output checks and span accounting.

    python3 -m pytest bench/test_bench.py   (conftest.py puts src/ on the path)
"""

import dataclasses

import pytest

import workloads as wl
from banglab.cbnv import CBN, CBV, embed
from banglab.meaning import MEANINGFUL, MEANINGLESS, meaningful
from banglab.reduction import ReduceOutcome
from banglab.syntax import parse_term
from spans import Tracer


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 256])
def test_church_decoder_reads_numerals(n):
    c = wl.church(n)
    assert wl.church_value(c) == n
    assert wl.church_value(embed(CBN, c)) == n
    assert wl.church_value(embed(CBV, c)) == n


def test_church_decoder_refuses_a_non_numeral():
    assert wl.church_value(parse_term("x y")) is None


def test_walks_are_iterative_at_depth():
    deep, deeper = wl.church(5000), wl.church(5001)
    assert wl.same_term(deep, wl.church(5000))
    assert not wl.same_term(deep, deeper)
    assert wl.node_count(deep) == 5000 * 2 + 3


def _rewrite_item(op, a, b, tag):
    return next(i for i in wl.build_rewrite(0) if (i.op, i.a, i.b, i.tag) == (op, a, b, tag))


@pytest.mark.parametrize("tag", [CBN, CBV])
def test_rewrite_check_rejects_an_off_by_one_numeral(tag):
    item = _rewrite_item("mul", 4, 4, tag)
    full, surface = wl.run_rewrite(item)
    assert wl.check_rewrite(item, (full, surface)) is None
    off = ReduceOutcome("normalized", embed(tag, wl.church(item.value + 1)), full.steps)
    assert "reads 17, expected 16" in wl.check_rewrite(item, (off, surface))


def test_rewrite_check_rejects_a_foreign_surface_normal_form():
    item = _rewrite_item("add", 16, 32, CBN)
    other = _rewrite_item("add", 16, 48, CBN)
    full, _ = wl.run_rewrite(item)
    _, foreign = wl.run_rewrite(other)
    assert "differs" in wl.check_rewrite(item, (full, foreign))


def test_meaning_check_rejects_flipped_verdicts():
    x = wl.MeaningItem("raw", parse_term("x"))
    xx = wl.MeaningItem("raw", parse_term("x x"))
    vx, vxx = meaningful(x.term), meaningful(xx.term)
    assert (vx.status, vxx.status) == (MEANINGFUL, MEANINGLESS)
    assert wl.check_meaning(x, vx) is None
    assert wl.check_meaning(xx, vxx) is None
    flipped = dataclasses.replace(vx, status=MEANINGLESS, evidence=None)
    assert wl.check_meaning(x, flipped) is not None
    borrowed = dataclasses.replace(vxx, status=MEANINGFUL, evidence=vx.evidence)
    assert wl.check_meaning(xx, borrowed) is not None


def test_meaning_check_compares_with_the_source_calculus():
    src = parse_term("\\z.z")
    item = wl.MeaningItem("cbn-image", embed(CBN, src))
    v = meaningful(item.term)
    assert v.status == MEANINGFUL and wl.check_meaning(item, v) is None


@pytest.mark.parametrize("side", [1, 3])
def test_transfer_check_rejects_a_missing_pair(side):
    t = parse_term("x")
    sets = list(wl.run_transfer(t))
    assert wl.check_transfer(t, tuple(sets)) is None
    assert sets[side]
    sets[side] = frozenset(sorted(sets[side], key=repr)[1:])
    assert wl.check_transfer(t, tuple(sets)) is not None


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    traced_leaf = tracer.wrap(leaf, "syntax.leaf")

    def middle():
        return traced_leaf() + traced_leaf()

    root = tracer.wrap(tracer.wrap(middle, "reduction.middle"), "bench.item")
    root()
    m = tracer.layer_metrics()
    total = tracer.end[0] - tracer.start[0]
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert m["syntax.leaf.calls"] == 2 and m["trace.spans"] == 4
    assert self_sum == pytest.approx(total, rel=1e-9)
    assert m["syntax.self_s"] == pytest.approx(m["syntax.leaf.s"])
