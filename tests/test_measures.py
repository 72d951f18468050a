import hypothesis
import hypothesis.strategies as st

from banglab.measures import EMPTY, NatMultiset, ms_gt, multi_size, pot_mult
from banglab.reduction import SBANG_ONLY, restricted_step
from banglab.syntax import Var, enum_terms, free_vars, gen_term, parse_term

p = parse_term
M = NatMultiset.of


def test_pot_mult_examples():
    assert pot_mult("x", p("x !x")) == 2
    assert pot_mult("x", p("y[y<-x]")) == 1
    assert pot_mult("x", p("\\y.z")) == 0


def test_pot_mult_sharing_factor():
    # two occurrences of y multiply the argument's count
    assert pot_mult("x", p("(y !y)[y<-x]")) == 2
    # erased binder still counts the argument once
    assert pot_mult("x", p("z[y<-x]")) == 1


def test_multi_size_examples():
    assert multi_size(Var("y")) == EMPTY
    assert multi_size(p("y[y<-x]")) == M([1])
    assert multi_size(p("\\x.x !x")) == EMPTY
    # {M_y(y !y)} u 2*{1} = {2} u {2}
    assert multi_size(p("(y !y)[y<-x[x<-z]]")) == M([2, 2])


def test_ms_gt_examples():
    assert ms_gt(M([2]), M([1, 1, 1]))
    assert not ms_gt(M([1]), M([1]))
    assert ms_gt(M([1, 0]), M([1]))
    assert not ms_gt(M([1]), M([2]))
    assert ms_gt(M([3, 1]), M([3, 0, 0]))


@hypothesis.given(st.lists(st.integers(0, 6), max_size=5),
                  st.lists(st.integers(0, 6), max_size=5))
def test_ms_gt_antisymmetric(a, b):
    ma, mb = M(a), M(b)
    assert not (ms_gt(ma, mb) and ms_gt(mb, ma))
    assert not ms_gt(ma, ma)


@hypothesis.given(st.lists(st.integers(0, 4), max_size=4),
                  st.lists(st.integers(0, 4), max_size=4),
                  st.lists(st.integers(0, 4), max_size=4))
def test_ms_gt_transitive(a, b, c):
    ma, mb, mc = M(a), M(b), M(c)
    if ms_gt(ma, mb) and ms_gt(mb, mc):
        assert ms_gt(ma, mc)


def test_union_scale_laws():
    a, b = M([2, 1]), M([3])
    assert a.union(b) == b.union(a) == M([3, 2, 1])
    assert M([2, 1]).scale(3) == M([6, 3])
    assert EMPTY.scale(5) == EMPTY


def test_measure_decreases_exhaustively():
    for t in enum_terms(6):
        for u in restricted_step(t, SBANG_ONLY):
            assert ms_gt(multi_size(t), multi_size(u))
            for x in free_vars(t):
                assert pot_mult(x, t) >= pot_mult(x, u)


def test_substitution_compatibility():
    # pot_mult of an unrelated variable is invariant under substitution
    from _oracles import msubst

    for seed in range(60):
        t = gen_term(seed, 5 + seed % 4, "bang")
        u = gen_term(seed + 1000, 3, "bang")
        if "y" in free_vars(u):
            continue
        assert pot_mult("y", t) == pot_mult("y", msubst(t, "x", u))


def test_pure_sbang_reduction_terminates():
    # the measure bounds the number of s! steps
    for seed in range(40):
        t = gen_term(seed, 7, "bang")
        steps = 0
        current = t
        while True:
            rs = restricted_step(current, SBANG_ONLY)
            if not rs:
                break
            current = rs[0]
            steps += 1
            assert steps <= 200, "s! reduction failed to terminate"
