import hashlib
import itertools
import json

import pytest

from banglab.inhabitation import inhabit, inhabit_env
from banglab.inhabitation import testable as is_testable
from banglab.syntax import Bang, parse_term, print_term
from banglab.typesys import (Arrow, B, Bounds, EMPTY_ENV, EMPTY_MULTI, Env,
                             Multi, N, TVar, V, check_derivation, multi,
                             print_type, type_universe, typing_pairs)

p = parse_term
a, b = TVar("a"), TVar("b")


def test_empty_multitype_inhabited():
    r = inhabit(B, EMPTY_MULTI)
    assert r.inhabited and r.witness == Bang(p("\\z.z"))


def test_identity_arrow_inhabited():
    r = inhabit(B, Arrow(multi(a), multi(a)))
    assert r.inhabited and r.witness == p("\\x.!x")
    assert r.derivation is not None and check_derivation(r.derivation) is None


def test_arrow_multitype_conflict_not_inhabited():
    r = inhabit(B, multi(Arrow(multi(a), b), multi(a)))
    assert r.status == "not-inhabited"
    assert "abstraction" in r.reason and "bang" in r.reason


def test_type_variable_not_inhabited():
    assert inhabit(B, a).status == "not-inhabited"
    assert inhabit(B, multi(a)).status == "not-inhabited"


def test_nested_empty_inhabited():
    r = inhabit(B, multi(EMPTY_MULTI))
    assert r.inhabited and r.witness == p("!!(\\z.z)")
    assert inhabit(B, multi(EMPTY_MULTI, EMPTY_MULTI)).inhabited


def test_witnesses_recheck_closed():
    goals = [EMPTY_MULTI, Arrow(multi(a), multi(a)), multi(EMPTY_MULTI),
             Arrow(EMPTY_MULTI, EMPTY_MULTI),
             Arrow(multi(a), Arrow(multi(b), multi(a, b)))]
    for g in goals:
        r = inhabit(B, g)
        if r.inhabited:
            assert (EMPTY_ENV, g) in typing_pairs(B, r.witness)


def test_n_multitype_shared_witness():
    # identity types ask one witness for every element
    arr = Arrow(multi(a), a)
    r = inhabit(N, Arrow(multi(arr), arr))
    assert r.inhabited and r.witness == p("\\z.z")
    r = inhabit(N, multi(arr))
    assert r.inhabited
    assert inhabit(N, EMPTY_MULTI).inhabited
    assert inhabit(N, multi(a)).status == "not-inhabited"
    assert inhabit(N, multi(multi(a))).status == "not-inhabited"


def test_v_inhabitation():
    assert inhabit(V, EMPTY_MULTI).inhabited
    assert inhabit(V, a).status == "not-inhabited"
    assert inhabit(V, Arrow(multi(a), a)).status == "not-inhabited"
    r = inhabit(V, multi(Arrow(EMPTY_MULTI, EMPTY_MULTI)))
    assert r.inhabited
    assert inhabit(V, multi(a)).status == "not-inhabited"


def test_inhabit_env():
    assert inhabit_env(B, EMPTY_ENV) == {}
    out = inhabit_env(B, Env.of({"x": multi(Arrow(multi(a), b), multi(a))}))
    assert out["x"].status == "not-inhabited"


def test_testable_examples():
    assert is_testable(B, (EMPTY_ENV, EMPTY_MULTI)).verdict == "yes"
    mix = Arrow(multi(Arrow(multi(a), b), multi(a)), b)
    assert is_testable(B, (EMPTY_ENV, mix)).verdict == "no"
    # args [a] is not inhabited, so the typing is untestable
    assert is_testable(B, (Env.of({"x": EMPTY_MULTI}), Arrow(multi(a), multi(a)))
                    ).verdict == "no"
    ok = is_testable(B, (EMPTY_ENV, Arrow(multi(EMPTY_MULTI), EMPTY_MULTI)))
    assert ok.verdict == "yes" and ok.args_witnesses[0] is not None


# sha256 of (system, goal, status, reason, witness, derivation) over the
# goals below, in B, N and V
INHABIT_DIGEST = "5ec6224c318a565208844df6317be7ea1470aff42a95d62bd4fadd9d00cc00d5"


def test_inhabit_is_pinned():
    # the 288 universe types, and the multitypes of one or two of the
    # first 64 of them: 2,432 goals per system
    uni = type_universe(Bounds())
    goals = list(uni) + [Multi(c) for k in (1, 2)
                         for c in itertools.combinations_with_replacement(uni[:64], k)]
    h = hashlib.sha256()
    for sys in (B, N, V):
        for g in goals:
            r = inhabit(sys, g)
            row = [sys, print_type(g), r.status, r.reason,
                   print_term(r.witness) if r.witness is not None else None,
                   r.derivation.to_json() if r.derivation is not None else None]
            h.update(json.dumps(row).encode() + b"\n")
    assert h.hexdigest() == INHABIT_DIGEST
