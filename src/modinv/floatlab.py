"""Round-off behaviour of the fraction-integer scan in 64-bit floats.

Runs the scan's recurrence in IEEE binary64, compares against the exact
integer method, measures the representation gaps of 1/e and n/e as exact
rationals, and scans seeded workloads for disagreement regions as the
witness k grows.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    DomainError,
    InverseOutcome,
    ModPair,
    OpCounts,
    _outcome,
    ffim_closed_form,
)

MAX_EXACT_FLOAT = 1 << 53  # integers below this are exact in binary64

VERDICT_AGREE = "agree"
VERDICT_WRONG_ANSWER = "wrong_answer"
VERDICT_MISSED_TERMINATION = "missed_termination"
VERDICT_EARLY_TERMINATION = "early_termination"

VERDICTS = (
    VERDICT_AGREE,
    VERDICT_WRONG_ANSWER,
    VERDICT_MISSED_TERMINATION,
    VERDICT_EARLY_TERMINATION,
)


class FloatInverseFailure(RuntimeError):
    """The float scan did not produce a confirmed inverse."""

    def __init__(self, message: str, i: Optional[int] = None):
        super().__init__(message)
        self.i = i


class MissedTermination(FloatInverseFailure):
    """No index within the cap made r look integral at the tolerance."""


class WrongAnswer(FloatInverseFailure):
    """The scan terminated, but the candidate failed the exact
    divisibility confirmation."""


def _check_float_domain(p: ModPair):
    if p.e == 1:
        raise DomainError("float scan requires e > 1")
    if p.n >= MAX_EXACT_FLOAT:
        raise DomainError(f"modulus must be below 2^53, got {p.n}")


# The candidate scan's safety factor on the rounding-error bound; the number
# of indices per candidate, and the number of progressions, past which
# _float_hit tests every index instead.
ERROR_SAFETY = 8
CANDIDATE_SPARSITY = 4
MAX_PROGRESSIONS = 1 << 20
UNIT_ROUNDOFF = 2.0**-53


def _threshold(e: int, b: int, d_f: float, epsilon: float) -> int:
    """T = floor((epsilon + ERROR_SAFETY*u*e/d_f)*b) + 1, capped at b."""
    bound = (epsilon + ERROR_SAFETY * UNIT_ROUNDOFF * e / d_f) * b
    return int(bound) + 1 if bound < b else b


def _falls_back(b: int, t: int) -> bool:
    """Whether _float_hit tests every index instead of the candidates for
    threshold t."""
    return CANDIDATE_SPARSITY * (2 * t + 1) >= b or 2 * t + 1 > MAX_PROGRESSIONS


def _candidates(e: int, a: int, b: int, t: int):
    """Every i in [1, e] with (i*e - a) mod b in [-t, t], in increasing order;
    needs gcd(e, b) = 1 and 2t + 1 <= b."""
    e_inv = pow(e, -1, b)
    # one offset in [1, b] per progression i = (a + s)/e (mod b); b stands for 0
    offsets = sorted((a + s) * e_inv % b or b for s in range(-t, t + 1))
    for base in range(0, e, b):
        for off in offsets:
            if base + off > e:
                return
            yield base + off


def _float_hit(e: int, a: int, b: int, epsilon: float):
    """First i in [1, e] whose binary64 r = (float(i) - s_f)/d_f, with
    s_f = a/e and d_f = b/e, is within epsilon of an integer: returns (i, r)
    or None. One loop evaluates r, either at the candidates, the indices
    that can pass, or at every index (Fallback); r is elementwise, so both
    give the same (i, r).

    Error bound. The exact r_i = (i*e - a)/b lies rho_i/b from the nearest
    integer, where rho_i = min(m, b - m) and m = (i*e - a) mod b. In the
    standard rounding model (Higham, Accuracy and Stability of Numerical
    Algorithms, 2.2; Goldberg 1991) s_f, d_f, the subtraction and the
    division each carry one relative error of at most u = 2^-53, and
    float(i) is exact below 2^53, so

        r = (r_i - (a/b)*d1) * (1 + d3) * (1 + d4) / (1 + d2),  |dj| <= u,
        |r - r_i| <= (3*r_i + a/b) * u * (1 + O(u)) < 3*u*e^2/b * (1 + O(u)),

    because r_i <= (e^2 - a)/b for i <= e. r - round(r) is exact in binary64,
    so i passes only if rho_i/b <= epsilon + |r - r_i|, that is only if
    rho_i <= (epsilon + 3*u*e^2/b*(1 + O(u)))*b. The threshold
    T = floor((epsilon + c*u*e/d_f)*b) + 1, with c = ERROR_SAFETY = 8, bounds
    that: e/d_f is e^2/b to within a factor 1 + u, so c = 8 against the
    bound's 3 leaves a margin of about 5*e^2 in units of rho, which covers
    the O(u) terms and the roundings in computing T (relative 5u on a value
    below b/8 < 2^50); the + 1 covers the floor. Every passing index thus
    has rho_i < T.

    Candidates. gcd(e, b) = gcd(e, n) = 1, so each residue s in [-T, T] is
    one progression i = (a + s)*e^-1 (mod b) with step b. Their 2T + 1
    offsets in [1, b] are distinct, so sorted once they list every candidate
    in increasing order, one block of b indices at a time: about
    (2T + 1)*e/b evaluations instead of e.

    Fallback. The loop runs over every index instead (_falls_back) in two
    cases; costs are best of 3 on one CPU of a Xeon, Python 3.11.7. The
    first is CANDIDATE_SPARSITY*(2T + 1) >= b, that is at least one index
    in 4 is a candidate: every b <= 12 at T = 1, and a large epsilon. One
    index costs about 0.3 us. One candidate costs about 0.65 us: 0.4 us to
    list its offset, since all 2T + 1 are listed up front, and 0.23 us to
    evaluate it. Both loops stop at the first hit, which lies near the exact
    index, on average b/2, so they break even near 2T + 1 = b/3. Measured
    over seeded pairs, testing every index took 1.7-1.8 times as long as the
    candidates at b = 4*(2T + 1) with T in the tens or thousands, and about
    as long with T = 1, where pow and the generator add a fixed 2-3 us; at
    b = 32*(2T + 1) it took 3 to 16 times as long. The
    second is 2T + 1 > MAX_PROGRESSIONS = 2^20, that is a large e: with a
    small epsilon, T is about 8*u*e^2, which passes 2^19 near e = 2.4e10
    and reaches 9e8 at e = 1e12. At the cap the sorted offsets take 0.44 s
    and 44 MiB, and past it their number grows as e^2. Testing every index
    holds O(1) memory but costs about b/2 indices to the first hit, around
    half an hour at e = 2.4e10 and b = e/2, so the cap bounds only memory.
    """
    s_f = a / e
    d_f = b / e
    t = _threshold(e, b, d_f, epsilon)
    indices = range(1, e + 1) if _falls_back(b, t) else _candidates(e, a, b, t)
    for i in indices:
        r = (float(i) - s_f) / d_f
        if abs(r - round(r)) <= epsilon:
            return i, r
    return None


def ffim_float_inverse(p: ModPair, epsilon: float) -> InverseOutcome:
    """Fraction-integer scan with s_f, d_f and r computed in binary64.

    Termination is declared when |r - round(r)| <= epsilon; the resulting
    candidate is confirmed with an exact divisibility check, so a wrong
    float index raises WrongAnswer rather than returning garbage.
    """
    _check_float_domain(p)
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    e, n = p.e, p.n
    a = (n + 1) % e
    b = n % e
    if a == 0:
        # exact: a = 0 means e divides n + 1
        return _outcome(p, (n + 1) // e, 0, OpCounts())
    hit = _float_hit(e, a, b, epsilon)
    if hit is None:
        raise MissedTermination(
            f"no index up to e = {e} looked integral at epsilon = {epsilon}"
        )
    i, r = hit
    r_int = round(r)
    d_num = n * (r_int + 1) + 1
    if r_int < 0 or d_num % e:
        raise WrongAnswer(
            f"index {i} gave r = {r} but (n*(round(r)+1)+1)/e is not an integer",
            i=i,
        )
    ops = OpCounts(additions=i, subtractions=i, divisions=i, comparisons=i)
    return _outcome(p, d_num // e, i, ops)


@dataclass(frozen=True)
class UlpGap:
    """Exact rational gaps between 1/e, n/e and their binary64 roundings."""

    xi1: Fraction
    xi2: Fraction


def ulp_gap(p: ModPair) -> UlpGap:
    _check_float_domain(p)
    xi1 = abs(Fraction(1 / p.e) - Fraction(1, p.e))
    xi2 = abs(Fraction(p.n / p.e) - Fraction(p.n, p.e))
    return UlpGap(xi1=xi1, xi2=xi2)


@dataclass(frozen=True)
class FloatProbeResult:
    """Side-by-side outcome of one exact and one float scan."""

    e: int
    n: int
    epsilon: float
    k_exact: int
    i_float: Optional[int]
    d_float: Optional[int]
    r_error: float
    verdict: str


def probe(p: ModPair, epsilon: float) -> FloatProbeResult:
    """Run the exact and float scans side by side and classify the result.

    The exact side takes its terminating index in closed form, with the
    outcome ffim_exact_inverse would return."""
    _check_float_domain(p)
    exact = ffim_closed_form(p)
    i_exact = exact.iterations
    e, n = p.e, p.n
    a = (n + 1) % e
    b = n % e
    if i_exact == 0:
        r_error = 0.0
    else:
        r_f = (float(i_exact) - a / e) / (b / e)
        r_error = abs(r_f - round(r_f))
    try:
        fo = ffim_float_inverse(p, epsilon)
    except MissedTermination:
        return FloatProbeResult(
            e, n, epsilon, exact.k, None, None, r_error, VERDICT_MISSED_TERMINATION
        )
    except WrongAnswer as failure:
        return FloatProbeResult(
            e, n, epsilon, exact.k, failure.i, None, r_error, VERDICT_WRONG_ANSWER
        )
    if fo.d == exact.d and fo.iterations == i_exact:
        verdict = VERDICT_AGREE
    else:
        verdict = VERDICT_EARLY_TERMINATION
    return FloatProbeResult(
        e, n, epsilon, exact.k, fo.iterations, fo.d, r_error, verdict
    )


MAX_WITNESSES = 1000


@dataclass(frozen=True)
class FailureReport:
    """Aggregated probe results over a seeded sample of pairs."""

    epsilon: float
    pairs: int
    verdicts: dict
    decile_mean_r_error: tuple
    witnesses: tuple


def scan_failures(
    e_min: int,
    e_max: int,
    samples_per_e: int,
    n_bits: int,
    epsilon: float,
    seed: int,
) -> FailureReport:
    """Probe a deterministic pseudorandom sample of coprime pairs.

    For every e in [e_min, e_max], draws samples_per_e moduli of n_bits
    bits coprime to e (and above e); results are aggregated by verdict
    and by decile of the exact witness k.
    """
    if not 3 <= e_min <= e_max:
        raise DomainError(f"need 3 <= e_min <= e_max, got [{e_min}, {e_max}]")
    if samples_per_e < 1:
        raise DomainError("samples_per_e must be >= 1")
    if not 2 <= n_bits <= 52:
        raise DomainError(f"n_bits must be in [2, 52], got {n_bits}")
    rng = random.Random(seed)
    lo, hi = 1 << (n_bits - 1), 1 << n_bits
    results = []
    for e in range(e_min, e_max + 1):
        for _ in range(samples_per_e):
            for _attempt in range(200):
                n = rng.randrange(lo, hi)
                if n > e and math.gcd(e, n) == 1:
                    results.append(probe(ModPair(e, n), epsilon))
                    break
    if not results:
        raise DomainError("no coprime pairs found in the requested region")
    results.sort(key=lambda pr: (pr.e, pr.n))
    verdicts = {v: 0 for v in VERDICTS}
    for pr in results:
        verdicts[pr.verdict] += 1
    by_k = sorted(results, key=lambda pr: pr.k_exact)
    # Ten buckets split as np.array_split does: the first r hold q + 1
    # results, the rest q; an empty bucket has no mean.
    q, r = divmod(len(by_k), 10)
    deciles = []
    start = 0
    for b in range(10):
        bucket = by_k[start : start + q + (b < r)]
        start += len(bucket)
        deciles.append(
            sum(pr.r_error for pr in bucket) / len(bucket) if bucket else None
        )
    witnesses = tuple(
        {"e": str(pr.e), "n": str(pr.n), "k": str(pr.k_exact), "verdict": pr.verdict}
        for pr in results
        if pr.verdict != VERDICT_AGREE
    )[:MAX_WITNESSES]
    return FailureReport(
        epsilon=epsilon,
        pairs=len(results),
        verdicts=verdicts,
        decile_mean_r_error=tuple(deciles),
        witnesses=witnesses,
    )


def failure_report_to_json(r: FailureReport) -> str:
    return json.dumps(
        {
            "epsilon": r.epsilon,
            "pairs": r.pairs,
            "verdicts": r.verdicts,
            "decile_mean_r_error": list(r.decile_mean_r_error),
            "witnesses": list(r.witnesses),
        }
    )


def failure_report_from_json(text: str) -> FailureReport:
    obj = json.loads(text)
    return FailureReport(
        epsilon=obj["epsilon"],
        pairs=obj["pairs"],
        verdicts=obj["verdicts"],
        decile_mean_r_error=tuple(obj["decile_mean_r_error"]),
        witnesses=tuple(obj["witnesses"]),
    )
