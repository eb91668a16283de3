"""Invariant checks: hypothesis-driven random pairs plus exhaustive
small-modulus sweeps."""

import math

from hypothesis import given, settings
import hypothesis.strategies as st

from modinv import (
    ModPair,
    baghdad_inverse,
    euclid_inverse,
    ffim_exact_inverse,
    gordon_inverse,
    sequential_inverse,
    stein_inverse,
    verify_inverse,
    witness_k,
)

EXACT = (
    sequential_inverse,
    euclid_inverse,
    stein_inverse,
    gordon_inverse,
    baghdad_inverse,
    ffim_exact_inverse,
)

FAST = (euclid_inverse, stein_inverse, gordon_inverse)


def coprime_pairs(max_n):
    return (
        st.integers(min_value=2, max_value=max_n)
        .flatmap(lambda n: st.tuples(st.integers(min_value=1, max_value=n - 1), st.just(n)))
        .filter(lambda en: math.gcd(en[0], en[1]) == 1)
    )


@given(coprime_pairs(2000))
@settings(max_examples=300)
def test_all_algorithms_agree_with_oracle(en):
    e, n = en
    p = ModPair(e, n)
    expected = sequential_inverse(p).d
    for func in EXACT:
        o = func(p)
        assert o.d == expected
        assert verify_inverse(p, o.d)
        assert p.e * o.d == 1 + o.k * p.n
        assert 0 <= o.k < p.e or p.e == 1


@given(coprime_pairs(10**9))
@settings(max_examples=200)
def test_log_time_algorithms_agree_on_large_pairs(en):
    e, n = en
    p = ModPair(e, n)
    d = euclid_inverse(p).d
    for func in FAST:
        o = func(p)
        assert o.d == d
        assert 1 <= o.d < n


KEY_BITS = (64, 256, 1024, 2048, 4096)


def key_size_pairs():
    """Coprime pairs with an n of exactly one of KEY_BITS bits."""
    return (
        st.sampled_from(KEY_BITS)
        .flatmap(lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
        .flatmap(lambda n: st.tuples(st.integers(min_value=1, max_value=n - 1), st.just(n)))
        .filter(lambda en: math.gcd(en[0], en[1]) == 1)
    )


def assert_pow_oracle(p, o):
    # the second oracle at sizes where the sequential scan cannot run
    assert o.d == pow(p.e, -1, p.n)
    assert p.e * o.d == 1 + o.k * p.n
    assert 0 <= o.k < p.e


@given(key_size_pairs())
@settings(max_examples=30, deadline=None)
def test_euclid_at_key_sizes(en):
    p = ModPair(*en)
    o = euclid_inverse(p)
    assert_pow_oracle(p, o)
    ops, its = o.ops, o.iterations
    assert ops.divisions == its
    assert ops.subtractions == ops.multiplications == 2 * its
    assert ops.comparisons == its + 1
    assert ops.additions == ops.shifts == 0


@given(key_size_pairs())
@settings(max_examples=30, deadline=None)
def test_stein_at_key_sizes(en):
    p = ModPair(*en)
    o = stein_inverse(p)
    assert_pow_oracle(p, o)
    ops, its = o.ops, o.iterations
    assert ops.multiplications == ops.divisions == 0
    assert ops.shifts % 3 == 0
    assert ops.comparisons == 2 * ops.shifts // 3 + 4 * its
    assert 3 * its <= ops.subtractions - ops.additions <= 4 * its


@given(key_size_pairs())
@settings(max_examples=30, deadline=None)
def test_gordon_at_key_sizes(en):
    p = ModPair(*en)
    o = gordon_inverse(p)
    assert_pow_oracle(p, o)
    ops, its = o.ops, o.iterations
    assert ops.multiplications == ops.divisions == 0
    assert ops.shifts == ops.additions + ops.subtractions
    assert ops.comparisons == 2 * its + ops.subtractions // 2 + ops.additions + 1


@given(coprime_pairs(2000))
@settings(max_examples=200)
def test_baghdad_iteration_law(en):
    e, n = en
    p = ModPair(e, n)
    o = baghdad_inverse(p)
    if p.e > 1:
        assert o.iterations == witness_k(p, o.d)


@given(coprime_pairs(2000))
@settings(max_examples=200)
def test_ffim_r_law(en):
    e, n = en
    p = ModPair(e, n)
    o = ffim_exact_inverse(p)
    if p.e > 1 and (p.n + 1) % p.e != 0:
        a = (p.n + 1) % p.e
        b = p.n % p.e
        r = o.k - 1
        i = o.iterations
        assert i * p.e == r * b + a


@given(coprime_pairs(10**6))
@settings(max_examples=100)
def test_gordon_uses_no_multiply_or_divide(en):
    e, n = en
    o = gordon_inverse(ModPair(e, n))
    assert o.ops.multiplications == 0
    assert o.ops.divisions == 0


@given(coprime_pairs(10**6))
@settings(max_examples=100)
def test_euclid_division_count_equals_iterations(en):
    e, n = en
    o = euclid_inverse(ModPair(e, n))
    assert o.ops.divisions == o.iterations


def test_witness_minimality_exhaustive():
    # no i in [1, k-1] makes (1 + i*n)/e an integer; checked for n <= 160
    for n in range(2, 161):
        for e in range(2, n):
            if math.gcd(e, n) != 1:
                continue
            p = ModPair(e, n)
            k = witness_k(p, euclid_inverse(p).d)
            for i in range(1, k):
                assert (1 + i * n) % e != 0, (e, n, i, k)


def test_opcounts_nonnegative_exhaustive():
    for n in range(2, 80):
        for e in range(1, n):
            if math.gcd(e, n) != 1:
                continue
            p = ModPair(e, n)
            for func in EXACT:
                ops = func(p).ops
                assert min(
                    ops.additions,
                    ops.subtractions,
                    ops.multiplications,
                    ops.divisions,
                    ops.shifts,
                    ops.comparisons,
                ) >= 0


@given(st.one_of(coprime_pairs(2000), key_size_pairs()))
@settings(max_examples=60, deadline=None)
def test_stein_rows_keep_bezout_invariants(en):
    # stein_inverse carries one cofactor per vector and rebuilds the other
    # for its rows; each rebuilt row must still satisfy x1*e + x2*n = x3
    e, n = en
    p = ModPair(e, n)
    e = p.e
    rows = []
    stein_inverse(p, rows.append)
    for u1, u2, u3, v1, v2, v3, t1, t2, t3 in rows:
        assert u1 * e + u2 * n == u3
        assert v1 * e + v2 * n == v3
        assert t1 * e + t2 * n == t3
