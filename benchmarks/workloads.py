"""Seeded inputs and one request function per workload.

A request function takes one input item and a span recorder, calls the
public API of ``modinv`` and checks every result against independent
oracles (the builtin ``pow(e, -1, n)``, the witness identity
``e*d == 1 + k*n`` and, where cheap, the ``sequential`` scan). A failed
check raises ``WrongResult``; any exception counts the request as failed.

With an inactive recorder (``NO_SPANS``) the spans cost one no-op context
manager each; with a ``Spans`` recorder every public call is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import selectors
import subprocess
import sys
import time
from pathlib import Path

from modinv import (
    AlgorithmId,
    ModPair,
    WorkloadSpec,
    baghdad_inverse,
    emit_report,
    euclid_inverse,
    ffim_exact_inverse,
    ffim_float_inverse,
    generate_workload,
    gordon_inverse,
    probe,
    render_trace,
    run_benchmark,
    scan_failures,
    sequential_inverse,
    stein_inverse,
    traced_inverse,
    verify_inverse,
    witness_k,
)
from modinv import cli as modinv_cli
from modinv.floatlab import FloatInverseFailure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"


class WrongResult(Exception):
    """A result disagreed with an oracle."""


# --------------------------------------------------------------------------
# spans


class NoSpans:
    """Recorder used by untraced runs: every hook is a no-op."""

    active = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass

    def request(self, request_id):
        return self._null


NO_SPANS = NoSpans()


class Spans:
    """In-memory span and count recorder.

    A span is ``(span_id, parent_id, request_id, name, start_ns, end_ns)``;
    a count is ``(request_id, name, value)``. Nothing is written until the
    run ends.
    """

    active = True

    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []
        self._request_id = None

    @contextlib.contextmanager
    def span(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self._request_id, name, start, end)

    def count(self, name, value):
        self.counts.append((self._request_id, name, value))

    @contextlib.contextmanager
    def request(self, request_id):
        self._request_id = request_id
        with self.span("request"):
            yield


# --------------------------------------------------------------------------
# shared checks


def random_coprime(rng, bits):
    lo = 1 << (bits - 1)
    while True:
        n = rng.randrange(lo, lo << 1)
        e = rng.randrange(2, n)
        if math.gcd(e, n) == 1:
            return e, n


def check_outcome(spans, p, outcome, d_ref, name):
    """Check one algorithm's outcome against pow and the witness identity."""
    with spans.span("core.verify"):
        ok = verify_inverse(p, outcome.d)
        k = witness_k(p, outcome.d)
    if not ok or outcome.d != d_ref or outcome.k != k or p.e * outcome.d != 1 + k * p.n:
        raise WrongResult(f"{name} gave d={outcome.d} k={outcome.k} for (e={p.e}, n={p.n})")


def run_checked(spans, p, d_ref, name, func, count_name):
    with spans.span(name):
        outcome = func(p)
    spans.count(count_name, outcome.iterations)
    check_outcome(spans, p, outcome, d_ref, name)
    return outcome


LOG_TIME = (
    ("core.euclid", euclid_inverse),
    ("core.stein", stein_inverse),
    ("core.gordon", gordon_inverse),
)
SCAN = (
    ("core.baghdad", baghdad_inverse),
    ("core.ffim_exact", ffim_exact_inverse),
)


def make_pair(spans, e, n):
    with spans.span("core.modpair"):
        p = ModPair(e, n)
    with spans.span("ref.pow"):
        d_ref = pow(e, -1, n)
    return p, d_ref


# --------------------------------------------------------------------------
# keysize: the log-time loops at key sizes


KEY_BITS = (64, 256, 2048)
KEY_POOL = 256  # pairs per size


def keysize_inputs(seed):
    rng = random.Random(seed)
    pools = [[random_coprime(rng, bits) for _ in range(KEY_POOL)] for bits in KEY_BITS]
    # request j has size KEY_BITS[j % 3], so every 3 requests hold equal shares
    return [pools[j % 3][j // 3] for j in range(3 * KEY_POOL)]


def keysize_request(pair, spans):
    p, d_ref = make_pair(spans, *pair)
    for name, func in LOG_TIME:
        run_checked(spans, p, d_ref, name, func, "core.log_iters")


# --------------------------------------------------------------------------
# exhaustive: all six exact algorithms on small moduli


EXH_N_MAX = 256
EXH_POOL = 16384


def exhaustive_inputs(seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < EXH_POOL:
        n = rng.randrange(2, EXH_N_MAX + 1)
        e = rng.randrange(1, n)
        if math.gcd(e, n) == 1:
            pairs.append((e, n))
    return pairs


def exhaustive_request(pair, spans):
    p, d_ref = make_pair(spans, *pair)
    # the sequential scan is the oracle; it must itself agree with pow
    run_checked(spans, p, d_ref, "core.sequential", sequential_inverse, "core.scan_steps")
    for name, func in LOG_TIME:
        run_checked(spans, p, d_ref, name, func, "core.log_iters")
    for name, func in SCAN:
        run_checked(spans, p, d_ref, name, func, "core.scan_steps")


# --------------------------------------------------------------------------
# floatscan: one float-lab probe per request


FLOAT_E_RANGE = (95_000, 105_000)
FLOAT_N_BITS = 48
FLOAT_EPSILON = 1e-11  # tight enough that some verdicts disagree
FLOAT_POOL = 2048


def floatscan_inputs(seed):
    rng = random.Random(seed)
    lo = 1 << (FLOAT_N_BITS - 1)
    pairs = []
    while len(pairs) < FLOAT_POOL:
        e = rng.randrange(FLOAT_E_RANGE[0], FLOAT_E_RANGE[1] + 1)
        n = rng.randrange(lo, lo << 1)
        if math.gcd(e, n) == 1:
            pairs.append((e, n))
    return pairs


class FloatScan:
    """Request function that also keeps each pair's verdict, so a pair seen
    twice must get the same verdict both times."""

    def __init__(self):
        self.verdicts = {}

    def tallies(self):
        out = {}
        for verdict in self.verdicts.values():
            out[verdict] = out.get(verdict, 0) + 1
        return dict(sorted(out.items()))

    def __call__(self, pair, spans):
        e, n = pair
        p, d_ref = make_pair(spans, e, n)
        with spans.span("floatlab.probe"):
            result = probe(p, FLOAT_EPSILON)
        k = result.k_exact
        if (1 + k * n) % e or (1 + k * n) // e != d_ref:
            raise WrongResult(f"probe gave k={k} for (e={e}, n={n})")
        seen = self.verdicts.setdefault(pair, result.verdict)
        if seen != result.verdict:
            raise WrongResult(f"verdict for (e={e}, n={n}) changed: {seen} -> {result.verdict}")
        spans.count("floatlab.agree", result.verdict == "agree")
        if spans.active:
            # probe's two scans, timed on their own for probe_overhead_us
            run_checked(spans, p, d_ref, "core.ffim_exact", ffim_exact_inverse, "core.scan_steps")
            with spans.span("floatlab.ffim_float"):
                try:
                    steps = ffim_float_inverse(p, FLOAT_EPSILON).iterations
                except FloatInverseFailure as failure:
                    steps = e if failure.i is None else failure.i
            spans.count("floatlab.float_steps", steps)


# --------------------------------------------------------------------------
# cli: one modinv command in a fresh interpreter per request


CLI_SMALL_BITS = 12
CLI_MID_BITS = 256
CLI_BIG_BITS = 2048
CLI_VALIDATE_N_MAX = 64
# sequential has no fallback at 64 bits, so bench leaves it out
CLI_BENCH_ALGS = ("euclid", "stein", "gordon", "baghdad", "ffim_exact")
CLI_BENCH = ("--bits", "64", "--samples", "20", "--reps", "3", "--algs", ",".join(CLI_BENCH_ALGS))
CLI_SCAN_E = 20  # exponents per scan-float command, one modulus each
CLI_EPSILON = "1e-9"
CLI_CYCLES = 8  # distinct operand sets; request j uses set (j // CLI_CYCLE_LEN) % 8
CLI_CYCLE_LEN = 9  # commands per cycle, as built by cli_inputs
TRACE_ALGS = ("euclid", "stein", "gordon")
SMALL_PRIMES = [q for q in range(1009, 5000) if all(q % f for f in range(2, int(q**0.5) + 1))]


def _coprime_totient_e(rng, totient):
    while True:
        e = rng.choice((3, 5, 7, 11, 13, 17, 257, 65537))
        if math.gcd(e, totient) == 1:
            return e


def cli_inputs(seed):
    """One list of (argv, expectation) requests: CLI_CYCLES cycles of the
    command mix, each with its own seeded operands."""
    rng = random.Random(seed)
    bench_out = str(WORK_DIR / "bench.json")
    coprime_pairs = sum(
        1 for n in range(2, CLI_VALIDATE_N_MAX + 1) for e in range(1, n) if math.gcd(e, n) == 1
    )
    requests = []
    for c in range(CLI_CYCLES):
        e_s, n_s = random_coprime(rng, CLI_SMALL_BITS)
        e_b, n_b = random_coprime(rng, CLI_BIG_BITS)
        e_m, n_m = random_coprime(rng, CLI_MID_BITS)
        p, q = rng.sample(SMALL_PRIMES, 2)
        tot = (p - 1) * (q - 1)
        e_k = _coprime_totient_e(rng, tot)
        e_min = rng.randrange(1000, 5000)
        requests.append(
            (["inverse", "--e", str(e_s), "--n", str(n_s)], ("inverse", pow(e_s, -1, n_s), 6))
        )
        requests.append(
            (
                ["inverse", "--alg", "euclid", "--e", str(e_b), "--n", str(n_b)],
                ("inverse", pow(e_b, -1, n_b), 1),
            )
        )
        d_m = pow(e_m, -1, n_m)
        for j, alg in enumerate(TRACE_ALGS):
            fmt = ("table", "json")[(c + j) % 2]
            argv = ["trace", "--alg", alg, "--format", fmt, "--e", str(e_m), "--n", str(n_m)]
            requests.append((argv, ("trace", d_m, fmt)))
        requests.append(
            (
                ["bench", *CLI_BENCH, "--seed", str(rng.randrange(1 << 30)),
                 "--format", "json", "--out", bench_out],
                ("bench", bench_out),
            )
        )
        requests.append((["validate", "--n-max", str(CLI_VALIDATE_N_MAX)], ("validate", coprime_pairs)))
        requests.append(
            (
                ["scan-float", "--e-min", str(e_min), "--e-max", str(e_min + CLI_SCAN_E - 1),
                 "--samples-per-e", "1", "--n-bits", "48", "--epsilon", CLI_EPSILON,
                 "--seed", str(rng.randrange(1 << 30))],
                ("scan-float", CLI_SCAN_E),
            )
        )
        requests.append(
            (
                ["keygen-demo", "--p", str(p), "--q", str(q), "--e", str(e_k)],
                ("keygen", f"n={p * q} e={e_k} d={pow(e_k, -1, tot)}"),
            )
        )
    assert len(requests) == CLI_CYCLES * CLI_CYCLE_LEN
    return requests


def check_cli_output(expect, out):
    kind = expect[0]
    lines = out.splitlines()
    if kind == "inverse":
        _, d, count = expect
        ds = [line.split(" d=")[1].split()[0] for line in lines if " d=" in line]
        ok = len(ds) == count and all(x == str(d) for x in ds)
    elif kind == "trace":
        _, d, fmt = expect
        if fmt == "json":
            ok = json.loads(out)["d"] == str(d)
        else:
            ok = lines[-1].startswith(f"d = {d} ")
    elif kind == "bench":
        with open(expect[1]) as fh:
            rows = json.load(fh)["rows"]
        ok = [row["algorithm"] for row in rows] == list(CLI_BENCH_ALGS) and all(
            row["samples"] == 20 for row in rows
        )
    elif kind == "validate":
        ok = lines == [f"checked {expect[1]} coprime pairs up to n = {CLI_VALIDATE_N_MAX}: no discrepancies"]
    elif kind == "scan-float":
        counts = [int(line.split(": ")[1]) for line in lines]
        ok = len(counts) == 4 and sum(counts) == expect[1]
    else:
        ok = lines == [expect[1]]
    if not ok:
        raise WrongResult(f"unexpected {kind} output: {out[:200]!r}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


CLI_TIMEOUT_S = 30


def run_child(argv, env):
    """Run one child to completion; return (exit code, stdout, its rusage).
    A child still running after CLI_TIMEOUT_S is killed."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    deadline = time.monotonic() + CLI_TIMEOUT_S
    chunks = []
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not sel.select(remaining):
                proc.kill()
                break
            data = os.read(proc.stdout.fileno(), 1 << 16)
            if not data:
                break
            chunks.append(data)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks).decode(), usage


class CliRun:
    """Request function that runs each command in a fresh interpreter and
    keeps the peak RSS over those children."""

    def __init__(self):
        self.env = child_env()
        self.peak_rss_kb = 0

    def __call__(self, request, spans):
        argv, expect = request
        with spans.span("cli.process"):
            code, out, usage = run_child([sys.executable, "-m", "modinv.cli", *argv], self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code != 0:
            raise WrongResult(f"{argv[0]} exited with {code}")
        check_cli_output(expect, out)
        if spans.active:
            cli_attribute(request, spans)


def cli_attribute(request, spans):
    """Split one command across layers: time cli.main in process, then the
    public calls the command makes, each on its own."""
    argv, expect = request
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with spans.span("cli.main"):
            code = modinv_cli.main(argv)
    if code != 0:
        raise WrongResult(f"in-process {argv[0]} returned {code}")
    check_cli_output(expect, out.getvalue())
    kind = expect[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if kind == "inverse":
        e, n = int(opts["--e"]), int(opts["--n"])
        if opts.get("--alg") == "euclid":
            p, d_ref = make_pair(spans, e, n)
            run_checked(spans, p, d_ref, "core.euclid", euclid_inverse, "core.log_iters")
        else:
            exhaustive_request((e, n), spans)
    elif kind == "trace":
        p, d_ref = make_pair(spans, int(opts["--e"]), int(opts["--n"]))
        with spans.span("instrumentation.traced_inverse"):
            outcome, trace = traced_inverse(AlgorithmId(opts["--alg"]), p)
        spans.count("instrumentation.trace_rows", len(trace.rows))
        if outcome.d != d_ref:
            raise WrongResult("traced_inverse disagrees with pow")
        with spans.span("instrumentation.render_trace"):
            render_trace(trace, opts["--format"])
    elif kind == "bench":
        reps = int(opts["--reps"])
        spec = WorkloadSpec(
            n_bits=int(opts["--bits"]), samples=int(opts["--samples"]),
            e_mode="random_coprime", seed=int(opts["--seed"]),
        )
        algs = [AlgorithmId(a) for a in opts["--algs"].split(",")]
        with spans.span("benchmark.generate_workload"):
            pairs = generate_workload(spec)
        with spans.span("benchmark.run_benchmark"):
            start = time.perf_counter_ns()
            report = run_benchmark(pairs, algs, spec=spec, repetitions=reps)
            wall = time.perf_counter_ns() - start
        with spans.span("benchmark.emit_report"):
            emit_report(report, "json")
        # harness overhead: reps x the same calls timed one by one, over the wall time
        funcs = {name.split(".")[1]: f for name, f in LOG_TIME + SCAN}
        calls = 0
        for alg in algs:
            for p in pairs:
                t0 = time.perf_counter_ns()
                funcs[alg.value](p)
                calls += time.perf_counter_ns() - t0
        spans.count("benchmark.harness_overhead_share", 1 - reps * calls / wall)
    elif kind == "scan-float":
        with spans.span("floatlab.scan_failures"):
            scan_failures(
                e_min=int(opts["--e-min"]), e_max=int(opts["--e-max"]),
                samples_per_e=int(opts["--samples-per-e"]), n_bits=int(opts["--n-bits"]),
                epsilon=float(opts["--epsilon"]), seed=int(opts["--seed"]),
            )


# --------------------------------------------------------------------------


WORKLOADS = {
    # name: (inputs(seed), request factory, requests per window); the pools
    # are large so that the tail does not hang on a few inputs, and a window
    # is a quarter or an eighth of one (one cycle of commands for cli)
    "keysize": (keysize_inputs, lambda: keysize_request, 3 * KEY_POOL // 4),
    "exhaustive": (exhaustive_inputs, lambda: exhaustive_request, EXH_POOL // 4),
    "floatscan": (floatscan_inputs, FloatScan, FLOAT_POOL // 8),
    "cli": (cli_inputs, CliRun, CLI_CYCLE_LEN),
}
