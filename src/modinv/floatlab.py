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
    SCAN_CHUNK,
    DomainError,
    InverseOutcome,
    ModPair,
    OpCounts,
    ffim_exact_inverse,
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


def _float_scan(s_f: float, d_f: float, epsilon: float, cap: int):
    """First i in [1, cap] whose r = (i - s_f)/d_f is within epsilon of an
    integer, evaluated elementwise in binary64. Returns (i, r) or None.

    The array library is imported here, not at module level, so that only
    a float scan pays for loading it."""
    import numpy as np

    start = 1
    while start <= cap:
        stop = min(start + SCAN_CHUNK, cap + 1)
        idx = np.arange(start, stop, dtype=np.float64)
        r = (idx - s_f) / d_f
        hits = np.nonzero(np.abs(r - np.rint(r)) <= epsilon)[0]
        if hits.size:
            j = int(hits[0])
            return start + j, float(r[j])
        start = stop
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
    s_f = a / e
    d_f = b / e
    if s_f == 0.0:
        d = (n + 1) // e  # exact: a = 0 means e divides n + 1
        return InverseOutcome(d=d % n, k=(e * (d % n) - 1) // n, iterations=0, ops=OpCounts())
    hit = _float_scan(s_f, d_f, epsilon, e)
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
    d = (d_num // e) % n
    ops = OpCounts(additions=i, subtractions=i, divisions=i, comparisons=i)
    return InverseOutcome(d=d, k=(e * d - 1) // n, iterations=i, ops=ops)


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
    """Run the exact and float scans side by side and classify the result."""
    _check_float_domain(p)
    exact = ffim_exact_inverse(p)
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
