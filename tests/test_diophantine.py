import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxplus1 import (Classification, DiophantineEq, MapParams, ParityVector,
                     T3, T5, classify, equation_of_vector, find_cycles,
                     iterate, parity_vector, residue_of_vector, solve, step)
from mxplus1 import diophantine
from mxplus1.diophantine import MAX_CYCLE_SEARCH_K
import reference
from reference import cycle_candidate, lyndon_cycles


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


def test_find_cycles_where_the_divisor_is_a_unit(monkeypatch):
    # |2**t - m**k2| = 1 at t=1 (k2 = 0, and k2 = 1 for m=3), at t=2 with
    # k2=1 (the loop <1, 2>) and at t=3 with k2=2 (9 - 8, the loop through
    # -5): every half-word pair there is a fixed point, and at k_max = 3
    # these loops come from no other word.  For m=7, 8 - 7 = 1 gives <1 4 2>.
    # With s = 1 only 0 is stepped, so the loops come from the join.
    monkeypatch.setattr(diophantine, "_SMALL", 1)
    got = [c.values for c in find_cycles(T3, 3)]
    assert got == [(-1,), (0,), (1, 2), (-5, -7, -10)]
    assert (1, 4, 2) in [c.values for c in find_cycles(MapParams(7), 3)]


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



def test_find_cycles_closes_each_cycle_once(monkeypatch):
    # The join finds every rotation of a cycle's word, but only the first
    # element found is iterated: one close per cycle, where closing every
    # hit took 18 closes for the 5 cycles of m=3 at k_max = 20.
    closes, close = [], diophantine._close_cycle

    def spy(p, x, k_max):
        closes.append(x)
        return close(p, x, k_max)

    monkeypatch.setattr(diophantine, "_close_cycle", spy)
    for p in (T3, T5, MapParams(7)):
        closes.clear()
        assert len(find_cycles(p, 20)) == len(closes)

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


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 2**40 + 1])
def test_find_cycles_matches_vector_enumeration(m):
    p = MapParams(m)
    for k_max in range(1, 15):
        assert [c.values for c in find_cycles(p, k_max)] == _reference_cycles(p, k_max)


def test_find_cycles_memory_is_bounded_by_k_max():
    # The folds of the half-words hold about 2**(k_max / 2 + 1) offsets:
    # about 26 KiB at k_max = 18 and 1.0 MiB at the budget, where a search
    # that held 2**k_max of anything would not fit.  m=5 folds nothing,
    # since no pair is in its window: about 5 KiB at the budget.
    for p, k_max, bound in ((T3, 18, 64 << 10), (T3, MAX_CYCLE_SEARCH_K, 4 << 20),
                            (T5, MAX_CYCLE_SEARCH_K, 64 << 10)):
        tracemalloc.start()
        try:
            find_cycles(p, k_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


@pytest.mark.parametrize("m, k_top", [(3, 20), (5, 20), (7, 20), (11, 20), (2**40 + 1, 14)])
def test_meet_in_the_middle_matches_lyndon_walk(m, k_top):
    p = MapParams(m)
    for k_max in range(1, k_top + 1):
        assert find_cycles(p, k_max) == lyndon_cycles(p, k_max)


@pytest.mark.parametrize("s", [1, 2, 14])
@pytest.mark.parametrize("m", [3, 5, 7, 11, 181])
def test_find_cycles_with_fewer_stepped_starts_matches_lyndon_walk(monkeypatch, m, s):
    # At s = 1 only 0 is stepped and the window (m +- 1)**k2 alone admits
    # the joins; for m=3, -1 and <1, 2> sit on its two ends.  At s = 2,
    # -1 and 1 are the ends of the stepped range and m=3's loops through
    # them lie outside the window.  At 14, m=5's loop through 17 and
    # m=181's through 27 and 35 come from the join.
    monkeypatch.setattr(diophantine, "_SMALL", s)
    p = MapParams(m)
    for k_max in range(1, 21):
        assert find_cycles(p, k_max) == lyndon_cycles(p, k_max)


@pytest.mark.parametrize("s", [1, 14, 27])
def test_the_join_alone_finds_the_cycles_clear_of_the_stepped_starts(monkeypatch, s):
    # With no start stepped, every cycle whose odd elements all have
    # |x| >= s must still come from the joins inside the window.
    monkeypatch.setattr(diophantine, "_SMALL", s)
    monkeypatch.setattr(diophantine, "_returns", lambda p, x, k_max: False)
    clear = 0
    for m in (3, 5, 7, 11, 181):
        p = MapParams(m)
        got, want = set(find_cycles(p, 20)), set(lyndon_cycles(p, 20))
        assert got <= want
        for c in want - got:
            assert c.values == (0,) or min(abs(x) for x in c.values if x % 2) < s
        clear += len(got)
    assert clear > 0


def test_cycles_obey_their_product_identity():
    # Over one period 2**t = prod(m + 1/x) over the odd elements x, so
    # (t, k2) lies in the window of s = the least odd |x|.
    checked = 0
    for m in (3, 5, 7, 181):
        for c in find_cycles(MapParams(m), 20):
            if c.values == (0,):
                continue
            odd = [x for x in c.values if x % 2]
            t, k2, s = c.length, len(odd), min(abs(x) for x in odd)
            assert 2**t == math.prod(m + Fraction(1, x) for x in odd)
            assert (s * m - 1)**k2 <= s**k2 * 2**t <= (s * m + 1)**k2
            checked += 1
    assert checked == 11


def _lyndon_levels(monkeypatch, m, k_max):
    """(t, Lyndon nodes of length t) for t = 1..k_max, recorded by a spy
    on reference._walk: every call below the root starts one Lyndon
    word, of length `period`.  The seed word 0 is walked by the root."""
    walk, calls = reference._walk, []

    def spy(m, pow_m, k_max, found, t, c, k2, period, bits):
        calls.append((c, k2, period, bits))
        walk(m, pow_m, k_max, found, t, c, k2, period, bits)

    monkeypatch.setattr(reference, "_walk", spy)
    lyndon_cycles(MapParams(m), k_max)
    levels = {1: [(0, 0, 1, 0)]}
    for node in calls[1:]:
        levels.setdefault(node[2], []).append(node)
    for t in range(1, k_max + 1):
        yield t, levels.get(t, [])


def _moebius(n):
    mu, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            mu = -mu
        q += 1
    return -mu if n > 1 else mu


def test_expansion_tests_exactly_the_lyndon_words(monkeypatch):
    # A node holds step j in bit j of its bits; c and k2 are checked too.
    for t, nodes in _lyndon_levels(monkeypatch, 5, 14):
        words = [tuple(bits >> j & 1 for j in range(1, t + 1)) for *_, bits in nodes]
        want = {w for w in itertools.product((0, 1), repeat=t)
                if all(w < w[r:] + w[:r] for r in range(1, t))}
        assert len(words) == len(want) and set(words) == want
        for (c, k2, _, _), w in zip(nodes, words):
            eq = equation_of_vector(T5, _vec(w))
            assert (c, 5**k2, 1 << t) == (eq.c, eq.a, eq.b)


def test_expansion_counts_lyndon_words_by_moreau(monkeypatch):
    for t, nodes in _lyndon_levels(monkeypatch, 3, 20):
        count, r = divmod(sum(_moebius(d) << (t // d)
                              for d in range(1, t + 1) if t % d == 0), t)
        assert r == 0 and len(nodes) == count
    assert count == 52377


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
       k=st.integers(min_value=1, max_value=40))
@settings(max_examples=300, deadline=None)
def test_affine_identity(m, n, k):
    p = MapParams(m)
    eq = equation_of_vector(p, parity_vector(p, n, k))
    end = iterate(p, n, k).values[-1]
    assert eq.b * end == eq.a * n + eq.c


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
