import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxplus1 import (Classification, DiophantineEq, MapParams, ParityVector,
                     T3, T5, classify, cycle_candidate, equation_of_vector,
                     find_cycles, iterate, parity_vector, residue_of_vector,
                     solve, step)


def _vec(bits):
    return ParityVector(tuple(bits))


def _all_vectors(k):
    for pattern in range(1 << k):
        yield _vec((pattern >> j) & 1 for j in range(k))


def test_solve_examples():
    s = solve(DiophantineEq(a=3, b=2, c=1))
    assert (s.x0, s.y0, s.x_step, s.y_step) == (1, 2, 2, 3)
    s = solve(DiophantineEq(a=1, b=2, c=0))
    assert (s.x0, s.y0) == (0, 0)
    # the (2 + 2q, 1 + q) family is the same one, shifted by q = 1
    assert s.at(1) == (2, 1)
    s = solve(DiophantineEq(a=3, b=4, c=1))
    assert (s.x0, s.y0) == (1, 1)


def test_solve_rejects_common_factor():
    with pytest.raises(ValueError):
        solve(DiophantineEq(a=6, b=4, c=2))


def test_equation_of_vector_examples():
    eq = equation_of_vector(T3, _vec([1]))
    assert (eq.a, eq.b, eq.c) == (3, 2, 1)
    eq = equation_of_vector(T3, _vec([0, 0]))
    assert (eq.a, eq.b, eq.c) == (1, 4, 0)
    eq = equation_of_vector(T3, _vec([1, 1]))
    assert (eq.a, eq.b, eq.c) == (9, 4, 5)
    with pytest.raises(ValueError):
        equation_of_vector(T3, _vec([]))


def test_residue_examples():
    assert residue_of_vector(T3, _vec([1, 1])) == 3
    assert residue_of_vector(T3, _vec([1, 0])) == 1
    assert residue_of_vector(T3, _vec([0] * 7)) == 0
    with pytest.raises(ValueError):
        residue_of_vector(T3, _vec([]))


def test_classify_examples():
    assert classify(DiophantineEq(3, 2, 1)) is Classification.RISING
    assert classify(DiophantineEq(1, 2, 0)) is Classification.FALLING
    assert classify(DiophantineEq(9, 4, 5)) is Classification.RISING
    with pytest.raises(ValueError):
        classify(DiophantineEq(3, 3, 1))


def test_cycle_candidate_examples():
    assert cycle_candidate(T3, _vec([1, 0])) == 1
    assert cycle_candidate(T3, _vec([0])) == 0
    assert cycle_candidate(T3, _vec([1])) == -1
    # (1,1): c=5, b-a=-5, so x=-1 again
    assert cycle_candidate(T3, _vec([1, 1])) == -1
    # (0,1) fixes x=2, the even element of the <1,2> loop
    assert cycle_candidate(T3, _vec([0, 1])) == 2
    with pytest.raises(ValueError):
        cycle_candidate(T3, _vec([]))


def test_find_cycles_m3_k1():
    assert [c.values for c in find_cycles(T3, 1)] == [(-1,), (0,)]


def test_find_cycles_m3_census():
    got = [c.values for c in find_cycles(T3, 12)]
    assert got == [
        (-1,),
        (0,),
        (1, 2),
        (-5, -7, -10),
        (-17, -25, -37, -55, -82, -41, -61, -91, -136, -68, -34),
    ]


def test_find_cycles_m5_includes_positive_loop():
    got = [c.values for c in find_cycles(T5, 12)]
    assert (1, 3, 8, 4, 2) in got
    assert (0,) in got and (-1, -2) in got
    assert (13, 33, 83, 208, 104, 52, 26) in got


def test_find_cycles_close_and_are_distinct():
    for p in (T3, T5):
        for c in find_cycles(p, 12):
            assert len(set(c.values)) == c.length
            traj = iterate(p, c.start, c.length)
            assert traj.values[-1] == c.start
            assert traj.values[:-1] == c.values


def _reference_cycles(p, k_max):
    """Cycles from the fixed point of every vector of length <= k_max,
    closed by plain iteration and rotated to start at the element of
    least magnitude (ties toward the smaller)."""
    cycles = set()
    for k in range(1, k_max + 1):
        for bits in itertools.product((0, 1), repeat=k):
            x = cycle_candidate(p, ParityVector(bits))
            if x is None:
                continue
            values = [x]
            while (v := step(p, values[-1])) != x:
                values.append(v)
                assert len(values) <= k
            pivot = values.index(min(values, key=lambda t: (abs(t), t)))
            cycles.add(tuple(values[pivot:] + values[:pivot]))
    return sorted(cycles, key=lambda v: (len(v), v[0]))


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_find_cycles_matches_vector_enumeration(m):
    # k_max runs past the depth below which subtrees are expanded level
    # by level, so both the node-by-node walk and the batches are covered.
    p = MapParams(m)
    for k_max in range(1, 15):
        assert [c.values for c in find_cycles(p, k_max)] == _reference_cycles(p, k_max)


def test_find_cycles_budget():
    with pytest.raises(ValueError):
        find_cycles(T3, 29)
    with pytest.raises(ValueError):
        find_cycles(T3, 0)


@pytest.mark.parametrize("m", [3, 5, 7, 2**40 + 1])
def test_residue_roundtrip_exhaustive(m):
    # Every vector of length <= 14 (<= 10 for the 41-bit multiplier) is
    # regenerated by its residue class; the +2**k shift keeps the
    # representative positive.
    p = MapParams(m)
    for k in range(1, 15 if m < 2**40 else 11):
        for w in _all_vectors(k):
            r = residue_of_vector(p, w)
            assert 0 <= r < (1 << k)
            assert parity_vector(p, r + (1 << k), k).bits == w.bits


@given(m=st.sampled_from([3, 5]),
       n=st.integers(min_value=1, max_value=10**6),
       k=st.integers(min_value=1, max_value=24),
       q=st.integers(min_value=-100, max_value=100))
@settings(max_examples=200, deadline=None)
def test_solution_family(m, n, k, q):
    p = MapParams(m)
    eq = equation_of_vector(p, parity_vector(p, n, k))
    s = solve(eq)
    x, y = s.at(q)
    assert eq.b * y - eq.a * x == eq.c


@given(m=st.sampled_from([3, 5]),
       n=st.integers(min_value=1, max_value=10**6),
       k=st.integers(min_value=1, max_value=24))
@settings(max_examples=200, deadline=None)
def test_family_contains_trajectory_endpoints(m, n, k):
    p = MapParams(m)
    eq = equation_of_vector(p, parity_vector(p, n, k))
    s = solve(eq)
    q, r = divmod(n - s.x0, s.x_step)
    assert r == 0
    assert s.at(q) == (n, iterate(p, n, k).values[-1])


def test_rising_vectors_rise():
    rng = random.Random(7)
    p = T3
    for k in range(1, 11):
        for w in _all_vectors(k):
            eq = equation_of_vector(p, w)
            if classify(eq) is not Classification.RISING:
                continue
            r = residue_of_vector(p, w)
            for _ in range(3):
                n = r + (1 << k) * rng.randrange(0, 50)
                if n < 1:
                    continue
                assert iterate(p, n, k).values[-1] > n


def test_candidate_closes_under_iteration():
    # every integral fixed point returned by cycle_candidate really is
    # periodic with period dividing the vector length
    for p in (T3, T5):
        for k in range(1, 11):
            for w in _all_vectors(k):
                x = cycle_candidate(p, w)
                if x is None:
                    continue
                v = x
                for _ in range(k):
                    v = step(p, v)
                assert v == x
