"""The shared residue scan behind sequential, baghdad and ffim_exact.

Outcomes are compared with a frozen copy of the three literal loops as they
were before the scans moved into one helper: exhaustively for n <= 512, and
on constructed pairs whose first hit lands on either side of the untraced
literal limit SCAN_PREFIX, well past it and at the cap, and with 2048-bit
operands. The path tests check which of the literal scan, the closed form and
the refusal of a trace past MAX_TRACE_ROWS each run takes.
"""

import math
import pickle
import random
import time

import pytest

from modinv import ModPair, baghdad_inverse, core, ffim_exact_inverse, sequential_inverse
from modinv.core import (
    MAX_TRACE_ROWS,
    SCAN_PREFIX,
    SEQUENTIAL_BUDGET,
    DomainError,
    InternalConsistencyError,
    OpCounts,
    ScanBudgetError,
    TraceTooLongError,
    _outcome,
    _scan,
    _scan_closed,
    run_exhaustive_validation,
)


# ----------------------------------------------------------------------------
# Frozen reference: the three literal loops before the shared scan, with the
# limit past which baghdad and ffim_exact then took the closed form, and
# their own copies of the closed forms of that time.

LITERAL_SCAN_LIMIT = 1 << 20


def frozen_smallest_k(e, n):
    """Smallest k >= 1 with e dividing 1 + k*n."""
    return -pow(n, -1, e) % e


def frozen_ffim_index(e, n, a, b):
    """r = k - 1 for the smallest witness k, and i*e - a = r*b."""
    return ((frozen_smallest_k(e, n) - 1) * b + a) // e


def frozen_sequential(p):
    e, n = p.e, p.n
    m = e
    for d in range(1, n):
        if m == 1:
            break
        m += e
        if m >= n:
            m -= n
    else:
        raise InternalConsistencyError("sequential scan passed n - 1 candidates")
    ops = OpCounts(additions=d - 1, multiplications=d, divisions=d, comparisons=d)
    return _outcome(p, d, d, ops)


def frozen_baghdad(p):
    e, n = p.e, p.n
    if e > LITERAL_SCAN_LIMIT:
        k = frozen_smallest_k(e, n)
        if k > LITERAL_SCAN_LIMIT:
            ops = OpCounts(additions=k, divisions=k, comparisons=k)
            return _outcome(p, (1 + k * n) // e, k, ops)
    step = n % e
    m = (1 + step) % e
    for k in range(1, e + 1):
        if not m:
            break
        m += step
        if m >= e:
            m -= e
    else:
        raise InternalConsistencyError("numerator scan passed e steps")
    ops = OpCounts(additions=k, divisions=k, comparisons=k)
    return _outcome(p, (1 + k * n) // e, k, ops)


def frozen_ffim_exact(p):
    e, n = p.e, p.n
    a = (n + 1) % e
    b = n % e
    if a == 0:
        return _outcome(p, (n + 1) // e, 0, OpCounts())
    i = None
    if e > LITERAL_SCAN_LIMIT:
        i_exact = frozen_ffim_index(e, n, a, b)
        if i_exact > LITERAL_SCAN_LIMIT:
            i = i_exact
    if i is None:
        step = e % b
        m = (e - a) % b
        for i in range(1, e + 1):
            if not m:
                break
            m += step
            if m >= b:
                m -= b
        else:
            raise InternalConsistencyError("fraction-integer scan passed e steps")
    num = i * e - a
    if num % b:
        raise InternalConsistencyError("terminating index does not divide evenly")
    d_num = n * (num // b + 1) + 1
    if d_num % e:
        raise InternalConsistencyError("closing formula numerator not divisible by e")
    ops = OpCounts(additions=i, subtractions=i, divisions=i, comparisons=i)
    return _outcome(p, d_num // e, i, ops)


PAIRS = (
    (sequential_inverse, frozen_sequential),
    (baghdad_inverse, frozen_baghdad),
    (ffim_exact_inverse, frozen_ffim_exact),
)


def assert_same(new, frozen, p, iterations=None):
    outcome = new(p)
    assert outcome == frozen(p), (new.__name__, p)
    if iterations is not None:
        assert outcome.iterations == iterations, (new.__name__, p)


# ----------------------------------------------------------------------------
# Pairs whose scan first hits at a chosen index j.


def sequential_pair(j, n):
    """d = j, so the scan stops at candidate j (needs gcd(j, n) = 1)."""
    return ModPair(pow(j, -1, n), n)


def baghdad_pair(j, e, t=7):
    """k = j, so the numerator scan stops at step j (needs j < e)."""
    return ModPair(e, e * t + -pow(j, -1, e) % e)


def ffim_pair(j, b, t=3, s=5):
    """b = n mod e and a = b + 1, so i*e = 1 (mod b) first at i = j < b."""
    e = b * t + pow(j, -1, b)
    return ModPair(e, e * s + b)


# both sides of the untraced literal limit, then hits well past it, where
# untraced baghdad and ffim_exact take the closed form and sequential scans on
EDGES = [SCAN_PREFIX - 1, SCAN_PREFIX, SCAN_PREFIX + 1]
EDGES += [c * SCAN_PREFIX + o for c in (9, 17) for o in (0, 1)]
PRIME = 100003  # above every edge


def test_exhaustive_small_moduli():
    for n in range(2, 513):
        for e in range(1, n):
            if math.gcd(e, n) == 1:
                p = ModPair(e, n)
                for new, frozen in PAIRS:
                    assert new(p) == frozen(p), (new.__name__, e, n)


@pytest.mark.parametrize("j", EDGES + [PRIME - 2, PRIME - 1])
def test_sequential_hits_at_edges(j):
    assert_same(sequential_inverse, frozen_sequential, sequential_pair(j, PRIME), j)


@pytest.mark.parametrize("j", EDGES + [PRIME - 1])
def test_baghdad_hits_at_edges(j):
    assert_same(baghdad_inverse, frozen_baghdad, baghdad_pair(j, PRIME), j)


@pytest.mark.parametrize("j", EDGES + [PRIME - 1])
def test_ffim_exact_hits_at_edges(j):
    # the hit index is below b = n mod e; its largest value is b - 1
    assert_same(ffim_exact_inverse, frozen_ffim_exact, ffim_pair(j, PRIME), j)


def brute_scan(m, step, mod, cap):
    return next((j for j in range(1, cap + 1) if (m + (j - 1) * step) % mod == 0), None)


@pytest.mark.parametrize("j", EDGES + [PRIME - 3, PRIME - 2, PRIME - 1])
@pytest.mark.parametrize("cap", [PRIME - 2, PRIME - 1])
def test_scan_hit_and_miss_at_cap(j, cap):
    step = 12345
    m = -(j - 1) * step % PRIME  # residue 0 first at index j
    assert _scan(m, step, PRIME, cap) == brute_scan(m, step, PRIME, cap)
    assert _scan(m, step, PRIME, cap) == (j if j <= cap else None)


def refuse(*args):
    raise AssertionError("this path must not run")


def test_validation_never_takes_the_closed_form(monkeypatch):
    monkeypatch.setattr(core, "_scan_closed", refuse)
    assert run_exhaustive_validation(64) == (1259, None)


def test_validation_domain_is_the_literal_prefix(monkeypatch):
    # n_max is bounded by SCAN_PREFIX itself: at a smaller prefix validate
    # still reaches its bound without a closed form, and refuses past it
    monkeypatch.setattr(core, "SCAN_PREFIX", 64)
    monkeypatch.setattr(core, "_scan_closed", refuse)
    assert run_exhaustive_validation(64) == (1259, None)
    with pytest.raises(DomainError, match=r"n_max must be in \[2, 64\], got 65"):
        run_exhaustive_validation(65)


def test_scan_closed_matches_scan():
    for mod in range(1, 65):
        for step in range(mod):
            if math.gcd(step, mod) == 1:
                for m in range(mod):
                    assert _scan_closed(m, step, mod) == _scan(m, step, mod, mod), (
                        m, step, mod,
                    )


@pytest.mark.parametrize("j", [SCAN_PREFIX - 1, SCAN_PREFIX])
def test_untraced_scans_within_the_prefix_are_literal(monkeypatch, j):
    hits = []
    scan = core._scan

    def recording(*args):
        hits.append(scan(*args))
        return hits[-1]

    monkeypatch.setattr(core, "_scan", recording)
    assert_same(baghdad_inverse, frozen_baghdad, baghdad_pair(j, PRIME), j)
    assert_same(ffim_exact_inverse, frozen_ffim_exact, ffim_pair(j, PRIME), j)
    assert hits == [j, j]


def test_untraced_scans_past_the_prefix_take_the_closed_form(monkeypatch):
    monkeypatch.setattr(core, "_scan", refuse)
    j = SCAN_PREFIX + 1
    assert_same(baghdad_inverse, frozen_baghdad, baghdad_pair(j, PRIME), j)
    assert_same(ffim_exact_inverse, frozen_ffim_exact, ffim_pair(j, PRIME), j)


def test_literal_branch_with_2048_bit_operands():
    rng = random.Random(2048)
    for j in (1, SCAN_PREFIX, SCAN_PREFIX + 1, 9 * SCAN_PREFIX + 7, LITERAL_SCAN_LIMIT):
        big = rng.getrandbits(2048) | (1 << 2047) | 1
        while math.gcd(j, big) != 1:
            big += 2
        for new, frozen, p in (
            (baghdad_inverse, frozen_baghdad, baghdad_pair(j, big)),
            (ffim_exact_inverse, frozen_ffim_exact, ffim_pair(j, big)),
        ):
            assert_same(new, frozen, p, j)
            if j == SCAN_PREFIX + 1:  # past the untraced limit, a sink keeps it literal
                rows = []
                assert new(p, rows.append) == frozen(p) and len(rows) == j
    for _ in range(20):  # random operands: the closed forms
        n = rng.getrandbits(2048) | 1
        e = rng.randrange(2, n)
        if math.gcd(e, n) == 1:
            for new, frozen in PAIRS[1:]:
                assert_same(new, frozen, ModPair(e, n))


# The literal scans against the closed forms, on pairs whose k (baghdad) or
# i (ffim_exact) lands just below, at and just above LITERAL_SCAN_LIMIT.
# The moduli exceed the limit, so the frozen copies switch path across it.
STRADDLE = [LITERAL_SCAN_LIMIT - 1, LITERAL_SCAN_LIMIT, LITERAL_SCAN_LIMIT + 1]
BIG_E = 2 * LITERAL_SCAN_LIMIT + 11  # coprime to every STRADDLE index
BIG_B = LITERAL_SCAN_LIMIT + 7  # the ffim_exact hit lies below b


@pytest.mark.parametrize("j", STRADDLE)
def test_baghdad_literal_scan_matches_closed_form(j):
    p = baghdad_pair(j, BIG_E)
    e, n = p.e, p.n
    step = n % e
    m = (1 + step) % e
    assert _scan(m, step, e, e) == frozen_smallest_k(e, n) == _scan_closed(m, step, e) == j
    assert_same(baghdad_inverse, frozen_baghdad, p, j)


@pytest.mark.parametrize("j", STRADDLE)
def test_ffim_literal_scan_matches_closed_form(j):
    p = ffim_pair(j, BIG_B)
    e, n = p.e, p.n
    a, b = (n + 1) % e, n % e
    assert e > LITERAL_SCAN_LIMIT
    m, step = (e - a) % b, e % b
    assert _scan(m, step, b, e) == frozen_ffim_index(e, n, a, b) == _scan_closed(m, step, b) == j
    assert_same(ffim_exact_inverse, frozen_ffim_exact, p, j)


def test_sequential_budget():
    assert SEQUENTIAL_BUDGET > MAX_TRACE_ROWS
    n = 3 * SEQUENTIAL_BUDGET + 1  # e = 3 gives d = 2*SEQUENTIAL_BUDGET + 1
    with pytest.raises(ScanBudgetError, match="SEQUENTIAL_BUDGET") as refusal:
        sequential_inverse(ModPair(3, n))
    assert isinstance(refusal.value, DomainError)
    n = SEQUENTIAL_BUDGET + 1  # d = SEQUENTIAL_BUDGET is still scanned
    assert sequential_inverse(ModPair(n - 1, n)).iterations == SEQUENTIAL_BUDGET


def test_sequential_refusal_pickles():
    refusal = pickle.loads(pickle.dumps(ScanBudgetError()))
    assert type(refusal) is ScanBudgetError
    assert str(refusal) == "sequential scan passed SEQUENTIAL_BUDGET = 16777216 steps"


def test_sequential_refuses_before_scanning(monkeypatch):
    monkeypatch.setattr(core, "_scan", refuse)
    n = 3 * SEQUENTIAL_BUDGET + 1  # d = 2*SEQUENTIAL_BUDGET + 1
    with pytest.raises(ScanBudgetError, match="SEQUENTIAL_BUDGET = 16777216"):
        sequential_inverse(ModPair(3, n))


# With a sink a scan runs at most MAX_TRACE_ROWS steps. A longer one refuses
# before its first row, at an index below the frozen copies' 2**20 limit as
# well as far past it.
PAST_ROWS = 1040000


@pytest.mark.parametrize("new, p", [
    (sequential_inverse, sequential_pair(PAST_ROWS, BIG_E)),
    (baghdad_inverse, baghdad_pair(PAST_ROWS, BIG_E)),
    (ffim_exact_inverse, ffim_pair(PAST_ROWS, BIG_B)),
], ids=["sequential", "baghdad", "ffim_exact"])
def test_traced_scan_past_row_cap_refuses_before_first_row(new, p):
    assert MAX_TRACE_ROWS < PAST_ROWS <= LITERAL_SCAN_LIMIT
    assert new(p).iterations == PAST_ROWS
    calls = []
    start = time.perf_counter()
    with pytest.raises(TraceTooLongError, match="would exceed 1000000 rows"):
        new(p, calls.append)
    assert time.perf_counter() - start < 0.5
    assert calls == []


@pytest.mark.parametrize("new", [baghdad_inverse, ffim_exact_inverse])
def test_traced_closed_form_scan_refuses(new):
    # the index is about 2.7e11, taken in closed form: no rows and no outcome
    rows = []
    with pytest.raises(TraceTooLongError):
        new(ModPair(2**40 + 15, 2**61 - 1), rows.append)
    assert rows == []


@pytest.mark.parametrize("new, frozen, pair", [
    (sequential_inverse, frozen_sequential, sequential_pair),
    (baghdad_inverse, frozen_baghdad, baghdad_pair),
    (ffim_exact_inverse, frozen_ffim_exact, ffim_pair),
], ids=["sequential", "baghdad", "ffim_exact"])
def test_row_cap_boundary(monkeypatch, new, frozen, pair):
    monkeypatch.setattr(core, "MAX_TRACE_ROWS", 50)
    p = pair(50, PRIME)
    rows = []
    assert new(p, rows.append) == frozen(p)
    assert len(rows) == 50
    rows = []
    with pytest.raises(TraceTooLongError, match="would exceed 50 rows"):
        new(pair(51, PRIME), rows.append)
    assert rows == []


# ----------------------------------------------------------------------------
# core.scan_plan against what each scan then does. The pairs stop at 50, 51,
# SCAN_PREFIX - 1, SCAN_PREFIX and SCAN_PREFIX + 1 on moduli above every limit,
# so each plan comes from the closed form; the row cap is patched to 50 and
# the sequential budget to SCAN_PREFIX, so the traced and the sequential scans
# cross their limits at these pairs too. ModPair(7, 13) is ffim_exact's a = 0.

PLAN_CASES = [
    (alg, new, frozen, pair(j, PRIME))
    for j in (50, 51, SCAN_PREFIX - 1, SCAN_PREFIX, SCAN_PREFIX + 1)
    for alg, (new, frozen), pair in zip(
        ("sequential", "baghdad", "ffim_exact"), PAIRS, (sequential_pair, baghdad_pair, ffim_pair)
    )
] + [("ffim_exact", ffim_exact_inverse, frozen_ffim_exact, ModPair(7, 13))]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_scan_plan_matches_each_scan(monkeypatch, traced):
    monkeypatch.setattr(core, "MAX_TRACE_ROWS", 50)
    monkeypatch.setattr(core, "SEQUENTIAL_BUDGET", SCAN_PREFIX)
    runs = []
    scan = core._scan

    def recording(*args):
        runs.append(args)
        return scan(*args)

    monkeypatch.setattr(core, "_scan", recording)
    paths = []
    for alg, new, frozen, p in PLAN_CASES:
        path, index = core.scan_plan(alg, p.e, p.n, traced)[:2]
        paths.append(path if isinstance(path, str) else type(path).__name__)
        # the index is the frozen literal loop's, refused call or not
        assert index == frozen(p).iterations, (alg, p)
        runs.clear()
        try:
            outcome = new(p, [].append if traced else None)
        except DomainError as refusal:
            assert type(refusal) is type(path) and refusal.args == path.args, (alg, p)
            assert runs == []
        else:
            assert isinstance(path, str), (alg, p)
            assert outcome.iterations == index
            assert (path == "literal") == (len(runs) == 1), (alg, p, path)
            assert len(runs) <= 1
    if traced:
        assert paths == 3 * ["literal"] + 12 * ["TraceTooLongError"] + ["closed"]
    else:
        assert paths == 12 * ["literal"] + ["ScanBudgetError", "closed", "closed", "closed"]


def test_scan_plan_of_a_log_time_loop_is_literal():
    for alg in ("euclid", "stein", "gordon"):
        assert core.scan_plan(alg, 7, 60) == ("literal", None, None, None, None)
