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
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, get_type_hints

from .core import (
    DomainError,
    InternalConsistencyError,
    InverseOutcome,
    ModPair,
    OpCounts,
    _outcome,
    _scan_closed,
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


def _check_epsilon(epsilon: float):
    # |r - round(r)| <= 1/2 always, so at epsilon >= 1/2 every index passes
    if not 0 < epsilon < 0.5:
        raise DomainError(f"epsilon must lie in (0, 1/2), got {epsilon}")


# The float scan's safety factor on the rounding-error bound.
ERROR_SAFETY = 8
UNIT_ROUNDOFF = 2.0**-53


def _threshold(e: int, b: int, d_f: float, epsilon: float) -> int:
    """T = floor((epsilon + ERROR_SAFETY*u*e/d_f)*b) + 1, capped at b."""
    bound = (epsilon + ERROR_SAFETY * UNIT_ROUNDOFF * e / d_f) * b
    return int(bound) + 1 if bound < b else b


def _first_in(c: int, b: int, lo: int, hi: int) -> int:
    """Least k >= 0 with k*c mod b in [lo, hi], for 1 <= lo <= hi < b and
    gcd(c, b) = 1. Unless a multiple of c lies in [lo, hi], k*c = b*y + v needs
    y*b mod c in [c - hi % c, c - lo % c]: the same problem on (b mod c, c)."""
    k = (lo - 1) // c + 1
    if c * k <= hi:
        return k
    return (b * _first_in(b % c, c, c - hi % c, c - lo % c) + lo - 1) // c + 1


def _gaps(c: int, b: int, w: int):
    """(g1, A, g2, B): the least g1 >= 1 with A = g1*c mod b below w, and
    the least g2 >= 1 with B = -g2*c mod b below w; for w >= 2 and
    gcd(c, b) = 1. (j, u) and (k, d) are the closest approaches to 0 from
    above and below; as in Euclid the farther moves by the nearer, and it
    stops where it first drops below w."""
    j, u, k, d = 1, c, 1, b - c
    while u >= w or d >= w:
        if u < d:
            q = min(d - 1, d - w + u) // u
            k, d = k + q * j, d - q * u
        else:
            q = min(u - 1, u - w + d) // d
            j, u = j + q * k, u - q * d
    return j, u, k, d


def _window_returns(e: int, a: int, b: int, t: int, i_exact: int):
    """Every i in [1, e] with (i*e - a) mod b within t - 1 of 0, in order;
    i_exact is the first i >= 1 with i*e = a (mod b). With
    x = (i*e - a + t - 1) mod b and W = 2t - 1 these are the returns of
    x -> x + e (mod b) to [0, W), and by the three-distance theorem (Sós
    1958; Slater 1967) the next one is g1, g2 or g1 + g2 on: g1 if
    x + A < W, g2 if x >= B (never both, as A + B >= W), else g1 + g2.
    W = 1 starts at i_exact with g1 = b; W >= b steps by 1 from i = 1."""
    w = 2 * t - 1
    if w == 1:
        i, x, g1, A, g2, B = i_exact, 0, b, 0, b, 0
    else:
        c = e % b
        g1, A, g2, B = _gaps(c, b, w)
        lo = (a - c - t + 1) % b
        k = _first_in(c, b, lo, lo + w - 1) if 0 < lo <= b - w else 0
        i, x = k + 1, (k * c - lo) % b
    while i <= e:
        yield i
        if x + A < w:
            i, x = i + g1, x + A
        elif x >= B:
            i, x = i + g2, x - B
        else:
            i, x = i + g1 + g2, x + A - B


def _float_hit(e: int, a: int, b: int, epsilon: float, i_exact: int):
    """First i in [1, e] whose binary64 r = (float(i) - s_f)/d_f, with
    s_f = a/e and d_f = b/e, is within epsilon of an integer: returns (i, r)
    or None. i_exact is the exact scan's index, the first i >= 1 with
    i*e = a (mod b). One loop evaluates r at the indices that can pass; r is
    elementwise, so it gives the same (i, r) as testing every index.

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
    below b/8 < 2^50). rho_i is an integer, so every passing index has
    rho_i <= floor(...) = T - 1: the + 1 in T is spare.

    Walk. gcd(e, b) = gcd(e, n) = 1, so the 2T - 1 residues |s| <= T - 1
    are progressions with step b. _window_returns(e, a, b, T) yields them in
    order, in O(1) memory after O(log b) seeds: about (2T - 1)*e/b indices.
    At T = 1 it is range(i_exact, e + 1, b), with no seed: probe has i_exact
    from its exact side, ffim_float_inverse from core._scan_closed.
    """
    s_f = a / e
    d_f = b / e
    for i in _window_returns(e, a, b, _threshold(e, b, d_f, epsilon), i_exact):
        r = (float(i) - s_f) / d_f
        if abs(r - round(r)) <= epsilon:
            return i, r
    return None


def _float_d(e: int, n: int, r: float) -> Optional[int]:
    """Close the float scan at its hit r: d = (n*(round(r)+1) + 1)/e reduced
    mod n, or None when e does not divide the numerator (a wrong answer).
    Raises InternalConsistencyError if the d it returns is not the inverse."""
    r_int = round(r)
    d_num = n * (r_int + 1) + 1
    if r_int < 0 or d_num % e:
        return None
    d = d_num // e % n
    if e * d % n != 1:
        raise InternalConsistencyError(
            f"float scan produced {d_num // e} which is not an inverse of {e} mod {n}"
        )
    return d


def ffim_float_inverse(p: ModPair, epsilon: float) -> InverseOutcome:
    """Fraction-integer scan with s_f, d_f and r computed in binary64.

    Termination is declared when |r - round(r)| <= epsilon, for epsilon in
    (0, 1/2); the resulting candidate is confirmed with an exact
    divisibility check, so a wrong float index raises WrongAnswer rather
    than returning garbage.
    """
    _check_float_domain(p)
    _check_epsilon(epsilon)
    e, n = p.e, p.n
    a = (n + 1) % e
    b = n % e
    if a == 0:
        # exact: a = 0 means e divides n + 1
        return _outcome(p, (n + 1) // e, 0, OpCounts())
    hit = _float_hit(e, a, b, epsilon, _scan_closed((e - a) % b, e % b, b))
    if hit is None:
        raise MissedTermination(
            f"no index up to e = {e} looked integral at epsilon = {epsilon}"
        )
    i, r = hit
    d = _float_d(e, n, r)
    if d is None:
        raise WrongAnswer(
            f"index {i} gave r = {r} but (n*(round(r)+1)+1)/e is not an integer",
            i=i,
        )
    ops = OpCounts(additions=i, subtractions=i, divisions=i, comparisons=i)
    return InverseOutcome(d, (e * d - 1) // n, i, ops)


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


# Fields go into __dict__ directly, as in core's result types: the generated
# frozen __init__ costs one object.__setattr__ per field on every probe.
@dataclass(frozen=True, init=False)
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

    def __init__(
        self,
        e: int,
        n: int,
        epsilon: float,
        k_exact: int,
        i_float: Optional[int],
        d_float: Optional[int],
        r_error: float,
        verdict: str,
    ):
        fields = self.__dict__
        fields["e"] = e
        fields["n"] = n
        fields["epsilon"] = epsilon
        fields["k_exact"] = k_exact
        fields["i_float"] = i_float
        fields["d_float"] = d_float
        fields["r_error"] = r_error
        fields["verdict"] = verdict


def probe(p: ModPair, epsilon: float) -> FloatProbeResult:
    """Run the exact and float scans side by side and classify the result.

    Each step runs once. epsilon is checked before either scan; the exact
    side is ffim_closed_form, the outcome ffim_exact_inverse would return with
    its terminating index in closed form; the float side is one _float_hit,
    closed by _float_d as ffim_float_inverse closes it. The verdict is the
    one ffim_float_inverse's outcome or failure gives: missed_termination,
    wrong_answer, agree when d and the index both equal the exact side's,
    else early_termination. r_error is |r - round(r)| at the exact index."""
    _check_float_domain(p)
    _check_epsilon(epsilon)
    exact = ffim_closed_form(p)
    e, n = p.e, p.n
    a = (n + 1) % e
    if a == 0:
        # both sides are solved at i = 0 with d = (n + 1)/e
        return FloatProbeResult(e, n, epsilon, exact.k, 0, exact.d, 0.0, VERDICT_AGREE)
    b = n % e
    i_exact = exact.iterations
    r_f = (float(i_exact) - a / e) / (b / e)
    r_error = abs(r_f - round(r_f))
    hit = _float_hit(e, a, b, epsilon, i_exact)
    if hit is None:
        return FloatProbeResult(
            e, n, epsilon, exact.k, None, None, r_error, VERDICT_MISSED_TERMINATION
        )
    i, r = hit
    d = _float_d(e, n, r)
    if d is None:
        verdict = VERDICT_WRONG_ANSWER
    elif d == exact.d and i == i_exact:
        verdict = VERDICT_AGREE
    else:
        verdict = VERDICT_EARLY_TERMINATION
    return FloatProbeResult(e, n, epsilon, exact.k, i, d, r_error, verdict)


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

    For every e in [e_min, e_max], draws samples_per_e n_bits-bit moduli
    above e and coprime to it, or refuses with DomainError; results are
    aggregated by verdict and by decile of the exact witness k.
    """
    if not 3 <= e_min <= e_max:
        raise DomainError(f"need 3 <= e_min <= e_max, got [{e_min}, {e_max}]")
    if samples_per_e < 1:
        raise DomainError("samples_per_e must be >= 1")
    if not 2 <= n_bits <= 52:
        raise DomainError(f"n_bits must be in [2, 52], got {n_bits}")
    _check_epsilon(epsilon)
    rng = random.Random(seed)
    lo, hi = 1 << (n_bits - 1), 1 << n_bits
    if e_max >= hi - 1:
        raise DomainError(f"e_max = {e_max} leaves no {n_bits}-bit modulus above it")
    results = []
    for e in range(e_min, e_max + 1):
        for _ in range(samples_per_e):
            for _attempt in range(200):
                n = rng.randrange(max(lo, e + 1), hi)
                if math.gcd(e, n) == 1:
                    results.append(probe(ModPair(e, n), epsilon))
                    break
            else:
                raise DomainError(f"no modulus coprime to e = {e} in 200 draws")
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
    return json.dumps(asdict(r))


def failure_report_from_json(text: str) -> FailureReport:
    obj = json.loads(text)
    fields = get_type_hints(FailureReport)  # JSON arrays become the tuple fields
    return FailureReport(**{f: tuple(obj[f]) if t is tuple else obj[f] for f, t in fields.items()})
