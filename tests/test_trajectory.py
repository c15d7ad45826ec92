import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxplus1 import (MapParams, ParityVector, StoppingTimeResult, T3, T5,
                     affine_of_vector, iterate, parity_vector, step,
                     stopping_time_actual, stopping_time_coefficient)


def test_map_params_validation():
    MapParams(7)
    with pytest.raises(ValueError):
        MapParams(4)
    with pytest.raises(ValueError):
        MapParams(1)


def test_step_examples():
    assert step(T3, 3) == 5
    assert step(T3, 4) == 2
    assert step(T5, 1) == 3
    assert step(T3, -5) == -7


def test_iterate_examples():
    assert iterate(T3, 6, 2).values == (6, 3, 5)
    assert iterate(T3, 7, 0).values == (7,)
    assert iterate(T3, 7, 2).values == (7, 11, 17)
    assert iterate(T3, 6, 2).start == 6
    assert len(iterate(T3, 6, 2)) == 3


def test_parity_vector_examples():
    assert parity_vector(T3, 3, 2).bits == (1, 1)
    assert parity_vector(T3, 5, 2).bits == (1, 0)
    assert parity_vector(T3, 8, 3).bits == (0, 0, 0)
    w = parity_vector(T3, 3, 4)
    assert (w.k, w.k1, w.k2) == (4, 2, 2)


def test_parity_vector_validation():
    with pytest.raises(ValueError):
        ParityVector((0, 2))


def test_affine_examples():
    f = affine_of_vector(T3, ParityVector((1, 0)))
    assert (f.a, f.b, f.c) == (3, 4, 1)
    f = affine_of_vector(T3, ParityVector((0,)))
    assert (f.a, f.b, f.c) == (1, 2, 0)
    f = affine_of_vector(T3, ParityVector((1, 1)))
    assert (f.a, f.b, f.c) == (9, 4, 5)
    # fold check: T^2(3) = 8 and 4*8 == 9*3 + 5
    assert f.apply(3) == 8
    with pytest.raises(ValueError):
        f.apply(4)  # 4 is not in the class generating (1,1)


def test_affine_empty_vector_is_identity():
    f = affine_of_vector(T3, ParityVector(()))
    assert (f.a, f.b, f.c, f.k) == (1, 1, 0, 0)


def test_stopping_actual_examples():
    assert stopping_time_actual(T3, 4, 100).k == 1
    assert stopping_time_actual(T3, 5, 100).k == 2
    r = stopping_time_actual(T3, 1, 100)
    assert not r.found and r.cap == 100
    assert str(r) == "exceeded cap 100"


def test_stopping_coefficient_examples():
    assert stopping_time_coefficient(T3, 4, 100).k == 1
    assert stopping_time_coefficient(T3, 1, 100).k == 2
    assert stopping_time_coefficient(T3, 3, 100).k == 4


def test_stopping_rejects_nonpositive():
    for fn in (stopping_time_actual, stopping_time_coefficient):
        with pytest.raises(ValueError):
            fn(T3, 0, 10)
        with pytest.raises(ValueError):
            fn(T3, -4, 10)
        with pytest.raises(ValueError):
            fn(T3, 5, 0)


@given(m=st.sampled_from([3, 5]),
       n=st.integers(min_value=1, max_value=10**6),
       k=st.integers(min_value=1, max_value=40))
@settings(max_examples=300, deadline=None)
def test_affine_identity(m, n, k):
    p = MapParams(m)
    w = parity_vector(p, n, k)
    f = affine_of_vector(p, w)
    end = iterate(p, n, k).values[-1]
    assert f.b * end == f.a * n + f.c
    assert f.apply(n) == end


@given(m=st.sampled_from([3, 5, 7]),
       n=st.integers(min_value=-(1 << 70), max_value=1 << 70),
       k=st.integers(min_value=0, max_value=40))
@settings(max_examples=300, deadline=None)
def test_parity_vector_reads_trajectory_parities(m, n, k):
    p = MapParams(m)
    assert parity_vector(p, n, k).bits == tuple(v % 2 for v in iterate(p, n, k).values[:k])


@given(m=st.sampled_from([3, 5]),
       n=st.integers(min_value=1, max_value=10**9),
       k=st.integers(min_value=1, max_value=16))
@settings(max_examples=300, deadline=None)
def test_periodicity_shift(m, n, k):
    p = MapParams(m)
    assert parity_vector(p, n, k).bits == parity_vector(p, n + (1 << k), k).bits


@pytest.mark.parametrize("start", [1, 97, 12345])
def test_vectors_distinct_in_window(start):
    for k in range(1, 9):
        seen = {parity_vector(T3, n, k).bits for n in range(start, start + (1 << k))}
        assert len(seen) == 1 << k


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
def test_odd_only_closed_form(k):
    # The all-odd trajectory: starting at 2**k - 1, step j lands on
    # 3**j * 2**(k-j) - 1.
    traj = iterate(T3, (1 << k) - 1, k)
    for j, v in enumerate(traj.values):
        assert v == 3**j * 2 ** (k - j) - 1


@given(m=st.sampled_from([3, 5]), n=st.integers(min_value=2, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_coefficient_drop_no_later_than_actual(m, n):
    p = MapParams(m)
    cap = 120
    actual = stopping_time_actual(p, n, cap)
    coeff = stopping_time_coefficient(p, n, cap)
    if actual.found:
        assert coeff.found and coeff.k <= actual.k


@given(m=st.sampled_from([3, 5, 7]),
       n=st.integers(min_value=1, max_value=2**80),
       cap=st.integers(min_value=1, max_value=60))
@settings(max_examples=300, deadline=None)
def test_stopping_times_follow_the_definitions(m, n, cap):
    # Both stopping times, read straight off the trajectory and the
    # parity vector; None when the first cap steps show no drop.
    p = MapParams(m)
    values = iterate(p, n, cap).values
    bits = parity_vector(p, n, cap).bits
    actual = next((j for j in range(1, cap + 1) if values[j] < n), None)
    coeff = next((j for j in range(1, cap + 1) if m ** sum(bits[:j]) < 2**j), None)
    assert stopping_time_actual(p, n, cap) == StoppingTimeResult(actual, cap)
    assert stopping_time_coefficient(p, n, cap) == StoppingTimeResult(coeff, cap)
