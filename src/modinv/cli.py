"""Command-line front end.

Exit codes: 0 success; 1 mathematical failure (no inverse, discrepancy,
non-coprime exponent) or an internal inconsistency; 2 usage or environment
error, a refusal (any DomainError) or a number past Python's digit limit.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__

# Only core is imported here: the trace, bench and scan-float handlers import
# their own module, so the other commands start without loading it.
from .core import (
    EXACT_ALGORITHMS,
    AlgorithmId,
    DomainError,
    InternalConsistencyError,
    ModPair,
    NoInverseError,
    ScanBudgetError,
    _sequential_refused,
    rsa_toy_keygen,
    run_exhaustive_validation,
)


# Python refuses int <-> decimal str conversions past sys.get_int_max_str_digits()
# digits with a ValueError. The limit is the interpreter's, and main may run
# inside another program, so the CLI refuses such a number and leaves the limit
# be. _digit_limit gives the refusal's text for that ValueError, else None.
def _digit_limit(err: ValueError) -> str | None:
    if "integer string conversion" in str(err):
        return f"more than {sys.get_int_max_str_digits()} decimal digits (PYTHONINTMAXSTRDIGITS)"
    return None


def parse_int(text: str) -> int:
    """Integer argument, decimal or 0x-prefixed hex, after one optional sign."""
    try:
        if text.strip().lstrip("+-")[:2].lower() == "0x":
            return int(text, 16)
        return int(text, 10)
    except ValueError as err:
        raise argparse.ArgumentTypeError(_digit_limit(err) or f"not an integer: {text!r}")


def _algorithm(name: str) -> AlgorithmId:
    """An exact algorithm by name; the float variant belongs to scan-float."""
    try:
        return AlgorithmId(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an exact algorithm: {name!r}") from None


def _algorithms(text: str) -> tuple:
    """Comma-separated exact algorithm names."""
    return tuple(_algorithm(name) for name in text.split(","))


def _e_list(text: str) -> tuple:
    return tuple(parse_int(part) for part in text.split(","))


def _cmd_inverse(args) -> int:
    p = ModPair(args.e, args.n)
    algs = args.alg
    if algs is EXACT_ALGORITHMS and _sequential_refused(p):
        # --alg all: the sequential oracle runs past its budget only when named
        print(f"note: sequential left out: {ScanBudgetError()}", file=sys.stderr)
        algs = tuple(a for a in algs if a is not AlgorithmId.SEQUENTIAL)
    results = [(alg, alg.func(p)) for alg in algs]
    if len({o.d for _, o in results}) != 1:
        print("error: algorithms disagree", file=sys.stderr)
        return 1
    for alg, o in results:
        print(f"{alg.value}: d={o.d} k={o.k} iterations={o.iterations}")
    return 0


def _cmd_trace(args) -> int:
    from .instrumentation import render_trace, traced_inverse

    _, trace = traced_inverse(args.alg, ModPair(args.e, args.n))
    print(render_trace(trace, args.format))
    return 0


def _cmd_validate(args) -> int:
    checked, discrepancy = run_exhaustive_validation(args.n_max)
    if discrepancy is not None:
        alg, e, n = discrepancy
        print(f"discrepancy: {alg} disagrees with sequential at (e={e}, n={n})")
        return 1
    print(f"checked {checked} coprime pairs up to n = {args.n_max}: no discrepancies")
    return 0


def _cmd_bench(args) -> int:
    from .benchmark import (
        RANDOM_COPRIME,
        WorkloadSpec,
        emit_report,
        generate_workload,
        run_benchmark,
    )

    e_mode = args.e_fixed if args.e_fixed is not None else RANDOM_COPRIME
    spec = WorkloadSpec(
        n_bits=args.bits, samples=args.samples, e_mode=e_mode, seed=args.seed
    )
    pairs = generate_workload(spec)
    report = run_benchmark(pairs, args.algs, spec=spec, repetitions=args.reps)
    text = emit_report(report, args.format)
    with open(args.out, "w") as fh:
        fh.write(text)
    for row in report.rows:
        print(
            f"{row.algorithm}: mean_iters={row.mean_iters:.2f} "
            f"mean_divs={row.mean_divs:.2f} mean_ns={row.mean_ns:.0f}"
        )
    print(f"report written to {args.out}")
    return 0


def _cmd_scan_float(args) -> int:
    from .floatlab import failure_report_to_json, scan_failures

    report = scan_failures(
        e_min=args.e_min,
        e_max=args.e_max,
        samples_per_e=args.samples_per_e,
        n_bits=args.n_bits,
        epsilon=args.epsilon,
        seed=args.seed,
    )
    for verdict, count in sorted(report.verdicts.items()):
        print(f"{verdict}: {count}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(failure_report_to_json(report))
        print(f"report written to {args.out}")
    return 0


def _cmd_keygen_demo(args) -> int:
    print(
        "warning: pedagogical demo only, not secure key generation",
        file=sys.stderr,
    )
    n, e, d = rsa_toy_keygen(args.p, args.q, args.e)
    print(f"n={n} e={e} d={d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modinv",
        description="Modular multiplicative inverse algorithms, traces, "
        "benchmarks, and float round-off scans.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    exact_names = [a.value for a in EXACT_ALGORITHMS]

    p_inv = sub.add_parser("inverse", help="compute an inverse")
    p_inv.add_argument("--e", type=parse_int, required=True)
    p_inv.add_argument("--n", type=parse_int, required=True)
    p_inv.add_argument(
        "--alg",
        default="all",
        type=lambda s: EXACT_ALGORITHMS if s == "all" else (_algorithm(s),),
        metavar="{" + ",".join(exact_names + ["all"]) + "}",
    )
    p_inv.set_defaults(func=_cmd_inverse)

    p_tr = sub.add_parser("trace", help="render a per-iteration trace")
    p_tr.add_argument("--e", type=parse_int, required=True)
    p_tr.add_argument("--n", type=parse_int, required=True)
    p_tr.add_argument(
        "--alg",
        required=True,
        type=_algorithm,
        metavar="{" + ",".join(exact_names) + "}",
    )
    p_tr.add_argument("--format", choices=("table", "json"), default="table")
    p_tr.set_defaults(func=_cmd_trace)

    p_val = sub.add_parser(
        "validate", help="exhaustively check all algorithms against the oracle"
    )
    p_val.add_argument("--n-max", type=parse_int, required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_bench = sub.add_parser("bench", help="run a seeded benchmark workload")
    p_bench.add_argument("--bits", type=parse_int, required=True)
    p_bench.add_argument("--samples", type=parse_int, required=True)
    p_bench.add_argument("--seed", type=parse_int, default=0)
    p_bench.add_argument(
        "--e-fixed",
        type=_e_list,
        default=None,
        help="comma-separated fixed exponents, e.g. 3,5,17,257,65537",
    )
    p_bench.add_argument(
        "--algs",
        # the sequential oracle refuses pairs past SEQUENTIAL_BUDGET, so it
        # runs only when named
        default=",".join(name for name in exact_names if name != "sequential"),
        type=_algorithms,
        help="comma-separated exact algorithm names (default: all but sequential)",
    )
    p_bench.add_argument("--reps", type=parse_int, default=5)
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=_cmd_bench)

    p_scan = sub.add_parser(
        "scan-float", help="scan the float scan for disagreement regions"
    )
    p_scan.add_argument("--e-min", type=parse_int, default=3)
    p_scan.add_argument("--e-max", type=parse_int, default=5000)
    p_scan.add_argument("--samples-per-e", type=parse_int, default=2)
    p_scan.add_argument("--n-bits", type=parse_int, default=48)
    p_scan.add_argument("--epsilon", type=float, required=True)
    p_scan.add_argument("--seed", type=parse_int, default=0)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=_cmd_scan_float)

    p_key = sub.add_parser("keygen-demo", help="toy RSA key generation")
    p_key.add_argument("--p", type=parse_int, required=True)
    p_key.add_argument("--q", type=parse_int, required=True)
    p_key.add_argument("--e", type=parse_int, required=True)
    p_key.set_defaults(func=_cmd_keygen_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except NoInverseError as err:
            print(f"no inverse: gcd={err.common_divisor}")
            return 1
        except (DomainError, OSError, InternalConsistencyError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1 if isinstance(err, InternalConsistencyError) else 2
    except SystemExit as exc:  # argparse's usage errors, --help and --version
        return 0 if exc.code in (0, None) else 2
    except ValueError as err:  # str() of a result's or a message's integer
        if (reason := _digit_limit(err)) is None:
            raise
        print(f"error: an integer to print has {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
