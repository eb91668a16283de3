"""Modular multiplicative inverse algorithms with instrumentation,
benchmarking, and a floating-point round-off lab."""

__version__ = "0.1.0"

import importlib

# The submodule that defines each public name. `import modinv` loads none of
# them: the module __getattr__ below (PEP 562) imports one on first use, so a
# command pays only for the modules it runs.
_SUBMODULE = {
    "AlgorithmId": "core",
    "BenchReport": "benchmark",
    "DomainError": "core",
    "FailureReport": "floatlab",
    "FloatProbeResult": "floatlab",
    "InternalConsistencyError": "core",
    "InverseOutcome": "core",
    "ModPair": "core",
    "NoInverseError": "core",
    "OpCounts": "core",
    "StepTrace": "instrumentation",
    "UlpGap": "floatlab",
    "WorkloadSpec": "benchmark",
    "baghdad_inverse": "core",
    "emit_report": "benchmark",
    "euclid_inverse": "core",
    "ffim_exact_inverse": "core",
    "ffim_float_inverse": "floatlab",
    "generate_workload": "benchmark",
    "gordon_inverse": "core",
    "knuth_expected_divisions": "instrumentation",
    "probe": "floatlab",
    "render_trace": "instrumentation",
    "run_benchmark": "benchmark",
    "scan_failures": "floatlab",
    "sequential_inverse": "core",
    "stein_inverse": "core",
    "traced_inverse": "instrumentation",
    "ulp_gap": "floatlab",
    "verify_inverse": "core",
    "witness_k": "core",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
