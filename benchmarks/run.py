"""The modinv benchmark: four seeded workloads against the public API.

One run::

    python3 benchmarks/run.py --workload keysize --seed 1 --seconds 20 --trace 0

runs one workload in a closed loop with one client for ``--seconds``
seconds (to the end of a window), checks every result, prints each metric
by name with its unit and sample count, and prints one JSON object as its
last line. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the workload untraced, then with spans around every
public call it makes, and reports the per-layer metrics and the tracing
overhead instead. ``--out FILE`` also writes the full result, with the
environment it ran in.

Every workload at seeds 1..10, one result file, and the median and
quartiles of each metric over the runs::

    python3 benchmarks/run.py --workload all --seed 1 --runs 10 --seconds 20 --out r.json

Compare a parent result file with a change result file::

    python3 benchmarks/run.py --compare parent.json change.json

The exit code is 1 when a request failed (or, for ``--compare``, when a
metric got worse), and 2 when ``src/modinv`` is not beside this directory.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_NAMES = ("keysize", "exhaustive", "floatscan", "cli")
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
SPAWN_PROBES = 5  # bare and importing interpreters per traced run
TRACE_SHARE = 0.6  # share of a traced run spent with spans on
TRACE_MAX_REQUESTS = 3000  # bounds the spans kept in memory and written
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_KEEP = 128  # largest latencies always kept, enough for any step down the ladder
# The tail percentile of each workload is fixed so that a faster program is
# measured at the same percentile; it steps down only when fewer than 10
# requests lie beyond it.
TAIL_PERCENTILE = {"keysize": 99.0, "exhaustive": 99.0, "floatscan": 99.0, "cli": 75.0}
# requests run by the sweep that fills per-layer metrics a workload never calls
SWEEP = {"keysize": 6, "exhaustive": 64, "floatscan": 8, "cli": 9}

# Host speed calibration. The shared host this benchmark was built on drifts
# by up to a third in speed, in phases that last from seconds to minutes,
# with CPU time tracking wall time. So a run pins itself (and the children
# it starts) to one CPU, times a fixed reference loop that does not touch
# modinv between groups of requests, and scales each request's time by
# REF_NOMINAL_S over the reference time measured around it: times read as
# if the host ran the reference loop in exactly REF_NOMINAL_S (its typical
# time on that host, an Intel Xeon with Python 3.11). A group takes about
# 0.1 s (one cli command takes 0.2 s); the reference costs ~1.5 ms a time.
# Raw wall times are kept in the result file beside the calibrated ones.
REF_NOMINAL_S = 0.00045
REF_EVERY = {"keysize": 24, "exhaustive": 512, "floatscan": 32, "cli": 1}  # requests per group
REF_BIG = tuple((3**k, 2 ** (k + 37) + 1) for k in (40, 160, 640))  # ~64, 256, 1024 bits
REF_SMALL = ((75025, 46368), (6765, 4181), (233, 144))


def reference_s():
    """Best of three timings of the reference loop: Euclid remainder steps
    on fixed big and small integers, and a plain arithmetic loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(2):
            for a, b in REF_BIG:
                while b:
                    a, b = b, a % b
        for _ in range(40):
            for a, b in REF_SMALL:
                while b:
                    a, b = b, a % b
        x = 0
        for i in range(2000):
            x = (x * 31 + i) % 1000003
        best = min(best, time.perf_counter() - t0)
    return best


UNCALIBRATED = (lambda: 1.0, 1.0)


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so the reference loop
    meets the same contention as the work it calibrates."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass


def load_workloads():
    src = ROOT / "src"
    if not (src / "modinv" / "__init__.py").is_file():
        print(f"error: {src / 'modinv'} not found; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import workloads

    return workloads


# --------------------------------------------------------------------------
# measuring


class Phase:
    """Streaming record of one closed-loop phase, window by window: the
    calibrated throughput, median and tail latency of each window, and only
    as many of the largest latencies as the run's tail needs, so memory
    does not grow with the request count (peak_rss_mb measures the
    program, not this record)."""

    def __init__(self, tail_cap):
        self.tail_cap = tail_cap
        self.count = self.failed = 0
        self.errors = []
        self.rates, self.medians, self.tails, self.refs = [], [], [], []
        self.raw = self.calibrated = 0.0  # summed request latencies, seconds
        self._largest = []  # min-heap of calibrated latencies

    def add_window(self, latencies):
        """Record one window of calibrated latencies."""
        self.count += len(latencies)
        busy = sum(latencies)
        self.calibrated += busy
        self.rates.append(len(latencies) / busy)
        self.medians.append(statistics.median(latencies))
        beyond = len(latencies) - math.ceil(len(latencies) * self.tail_cap / 100)
        if beyond >= 10:
            self.tails.append(sorted(latencies)[-beyond - 1])
            self.window_beyond = beyond
        keep = max(TAIL_KEEP, math.ceil(self.count * (1 - self.tail_cap / 100)) + 2)
        for latency in latencies:
            if len(self._largest) < keep:
                heapq.heappush(self._largest, latency)
            elif latency > self._largest[0]:
                heapq.heapreplace(self._largest, latency)

    def fail(self, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(exc))

    def throughput(self):
        return self.count / self.calibrated

    def tail(self):
        """(latency, percentile, requests beyond it, how): the median over
        windows of the workload's tail percentile when a window has at
        least 10 requests beyond it; else that percentile over the run, or
        the next lower one with at least 10 beyond."""
        if len(self.tails) >= 2:
            return (statistics.median(self.tails), self.tail_cap, self.window_beyond,
                    f"median over {len(self.tails)} windows, each with {self.window_beyond} requests beyond it")
        largest = sorted(self._largest, reverse=True)
        for pct in TAIL_LADDER:
            beyond = self.count - max(1, math.ceil(self.count * pct / 100))
            if pct <= self.tail_cap and 10 <= beyond < len(largest):
                return largest[beyond], pct, beyond, f"over {self.count} requests, {beyond} beyond it"
        return largest[0], 100.0, 0, f"over {self.count} requests, none beyond it"


def run_requests(request, items, spans, seconds, window, calibration, ref_every=None,
                 tail_cap=100.0, start=0, max_requests=None):
    """Closed loop with one client: run items[j % len(items)] one after
    another until the time is up at the end of a window. The calibration's
    reference is timed around every group of ref_every requests (default:
    a window)."""
    measure_ref, nominal = calibration
    ref_every = ref_every or window
    phase = Phase(tail_cap)
    j = start
    stop = time.perf_counter() + seconds
    ref = measure_ref()
    scaled = []
    while True:
        group = []
        for _ in range(ref_every):
            t0 = time.perf_counter()
            with spans.request(j):
                try:
                    request(items[j % len(items)], spans)
                except Exception as exc:  # a failed request is counted, not fatal
                    phase.fail(exc)
            group.append(time.perf_counter() - t0)
            j += 1
        ref_after = measure_ref()
        ref_mean = (ref + ref_after) / 2
        ref = ref_after
        phase.refs.append(ref_mean)
        phase.raw += sum(group)
        scaled.extend(latency * nominal / ref_mean for latency in group)
        if len(scaled) >= window:
            phase.add_window(scaled)
            scaled = []
            if time.perf_counter() >= stop or (max_requests and j - start >= max_requests):
                break
    phase.next = j
    return phase


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(name, m, window, setups, peak_rss_kb):
    n = m.count
    windows = len(m.rates)
    tail_s, pct, beyond, tail_how = m.tail()
    return {
        "throughput_per_s": {"value": statistics.median(m.rates), "unit": "1/s", "n": n,
                             "how": f"median of {windows} windows of {window} requests, "
                                    "each its requests over their summed latency"},
        "latency_p50_ms": {"value": statistics.median(m.medians) * 1e3, "unit": "ms", "n": n,
                           "how": f"median of the medians of {windows} windows"},
        "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms", "n": n, "percentile": pct,
                            "beyond": beyond, "how": f"p{pct:g} {tail_how}"},
        "error_rate": {"value": m.failed / n, "unit": "share", "n": n,
                       "how": f"{m.failed} of {n} requests failed"},
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups),
                    "how": f"median of {len(setups)} fresh interpreters to first request done"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB", "n": 1,
                        "how": "max RSS of the cli children" if name == "cli" else "max RSS of this process"},
    }


def setup_probe(name, seed):
    """Seconds from spawning a fresh interpreter until it has imported
    modinv, built the workload's inputs and finished its first request:
    (calibrated, raw)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    ref = reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe for {name} failed: {line!r}")
    return elapsed * REF_NOMINAL_S * 2 / (ref + reference_s()), elapsed


def run_setup_probe(wl, name, seed):
    inputs, factory, _ = wl.WORKLOADS[name]
    items = inputs(seed)
    factory()(items[0], wl.NO_SPANS)
    print("ready", flush=True)


def spawn_ms(code, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return (time.perf_counter() - t0) * 1e3


# --------------------------------------------------------------------------
# per-layer metrics from spans

SPAN_METRICS = {
    # metric: (unit, span name, scale from ns)
    "core.modpair_us": ("us", "core.modpair", 1e-3),
    "core.verify_us": ("us", "core.verify", 1e-3),
    "core.euclid_us": ("us", "core.euclid", 1e-3),
    "core.stein_us": ("us", "core.stein", 1e-3),
    "core.gordon_us": ("us", "core.gordon", 1e-3),
    "ref.pow_us": ("us", "ref.pow", 1e-3),
    "core.sequential_us": ("us", "core.sequential", 1e-3),
    "core.baghdad_us": ("us", "core.baghdad", 1e-3),
    "core.ffim_exact_us": ("us", "core.ffim_exact", 1e-3),
    "floatlab.ffim_float_us": ("us", "floatlab.ffim_float", 1e-3),
    "cli.main_ms": ("ms", "cli.main", 1e-6),
    "instrumentation.traced_inverse_ms": ("ms", "instrumentation.traced_inverse", 1e-6),
    "instrumentation.render_trace_ms": ("ms", "instrumentation.render_trace", 1e-6),
    "benchmark.generate_workload_ms": ("ms", "benchmark.generate_workload", 1e-6),
    "benchmark.run_benchmark_ms": ("ms", "benchmark.run_benchmark", 1e-6),
    "benchmark.emit_report_ms": ("ms", "benchmark.emit_report", 1e-6),
}
COUNT_METRICS = {
    # metric: (unit, count name); the value is the mean per recorded call
    "core.log_iters": ("count", "core.log_iters"),
    "core.scan_steps": ("count", "core.scan_steps"),
    "floatlab.agree_ratio": ("ratio", "floatlab.agree"),
    "instrumentation.trace_rows": ("count", "instrumentation.trace_rows"),
    "benchmark.harness_overhead_share": ("share", "benchmark.harness_overhead_share"),
}
RATE_METRICS = {
    # metric: (count name, span names whose time the count is spent in)
    "core.scan_steps_per_s": ("core.scan_steps", ("core.sequential", "core.baghdad", "core.ffim_exact")),
    "floatlab.float_steps_per_s": ("floatlab.float_steps", ("floatlab.ffim_float",)),
}


def self_times(spans):
    """(name, request_id, self ns) per span: duration minus its children."""
    child_ns = [0] * len(spans.spans)
    for _, parent, _, _, start, end in spans.spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [(name, req, end - start - child_ns[sid]) for sid, _, req, name, start, end in spans.spans]


def layer_metrics(spans):
    selfs = self_times(spans)
    by_name, by_request = {}, {}
    for name, req, ns in selfs:
        by_name.setdefault(name, []).append(ns)
        by_request.setdefault(req, {}).setdefault(name, 0)
        by_request[req][name] += ns
    counts = {}
    for _, name, value in spans.counts:
        counts.setdefault(name, []).append(value)
    out = {}
    for metric, (unit, name, scale) in SPAN_METRICS.items():
        if name in by_name:
            values = by_name[name]
            out[metric] = {"value": statistics.median(values) * scale, "unit": unit, "n": len(values)}
    for metric, (unit, name) in COUNT_METRICS.items():
        if name in counts:
            values = counts[name]
            out[metric] = {"value": sum(values) / len(values), "unit": unit, "n": len(values)}
    for metric, (name, span_names) in RATE_METRICS.items():
        busy = sum(sum(by_name.get(s, ())) for s in span_names)
        if name in counts and busy:
            out[metric] = {"value": sum(counts[name]) / (busy * 1e-9), "unit": "1/s",
                           "n": len(counts[name])}
    overheads = [
        names["floatlab.probe"] - names["core.ffim_exact"] - names["floatlab.ffim_float"]
        for names in by_request.values()
        if {"floatlab.probe", "core.ffim_exact", "floatlab.ffim_float"} <= names.keys()
    ]
    if overheads:
        out["floatlab.probe_overhead_us"] = {"value": statistics.median(overheads) * 1e-3,
                                             "unit": "us", "n": len(overheads)}
    return out


def layer_split(spans):
    """Share of the traced requests' time spent in each layer's own code;
    'harness' is the benchmark's checking between calls."""
    totals = {}
    for name, _, ns in self_times(spans):
        layer = "harness" if name == "request" else name.split(".")[0]
        totals[layer] = totals.get(layer, 0) + ns
    whole = sum(totals.values()) or 1
    return {layer: ns / whole for layer, ns in sorted(totals.items())}


def write_spans(spans, path):
    """One JSON array per line: spans as [id, parent, request, name,
    start_ns, end_ns], then counts as [request, name, value]."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for record in spans.spans + spans.counts:
            fh.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------------
# one run


def measure_run(wl, name, seed, seconds, traced):
    pin_to_one_cpu()
    inputs, factory, window = wl.WORKLOADS[name]
    setups = [] if traced else [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    items = inputs(seed)
    request = factory()
    calibrated = {"calibration": (reference_s, REF_NOMINAL_S), "ref_every": REF_EVERY[name]}
    warm = run_requests(request, items, wl.NO_SPANS, 0, window, **calibrated)  # one window
    result = {"workload": name, "seed": seed, "seconds": seconds, "traced": traced}
    if not traced:
        m = run_requests(request, items, wl.NO_SPANS, seconds, window, **calibrated,
                         tail_cap=TAIL_PERCENTILE[name], start=warm.next)
        peak_kb = request.peak_rss_kb if name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = end_to_end(name, m, window, [p[0] for p in setups], peak_kb)
        result["raw"] = {
            "throughput_per_s": m.count / m.raw,
            "setup_s": statistics.median(p[1] for p in setups),
            "reference_ms": statistics.median(m.refs) * 1e3,
        }
        runs = [warm, m]
    else:
        plain = run_requests(request, items, wl.NO_SPANS, seconds * (1 - TRACE_SHARE), window,
                             **calibrated, start=warm.next)
        spans = wl.Spans()
        m = run_requests(request, items, spans, seconds * TRACE_SHARE, window, **calibrated,
                         start=plain.next, max_requests=TRACE_MAX_REQUESTS)
        metrics = layer_metrics(spans)
        for metric in metrics.values():
            metric["source"] = name
        sweep = wl.Spans()
        sweeps = []
        for other in WORKLOAD_NAMES:
            if other == name:
                continue
            o_inputs, o_factory, _ = wl.WORKLOADS[other]
            o_items = o_inputs(seed)[:SWEEP[other]]
            o_request = wl.cli_attribute if other == "cli" else o_factory()
            sweeps.append(run_requests(o_request, o_items, sweep, 0, len(o_items), UNCALIBRATED))
        for metric, value in layer_metrics(sweep).items():
            metrics.setdefault(metric, dict(value, source="sweep"))
        env = wl.child_env()
        bare, importing = [], []
        for _ in range(SPAWN_PROBES):
            bare.append(spawn_ms("pass", env))
            importing.append(spawn_ms("import modinv", env))
        metrics["cli.interpreter_ms"] = {"value": statistics.median(bare), "unit": "ms",
                                         "n": len(bare), "source": "spawn"}
        metrics["cli.import_ms"] = {"value": statistics.median(importing) - statistics.median(bare),
                                    "unit": "ms", "n": len(importing), "source": "spawn"}
        metrics["trace_overhead"] = {"value": 1 - m.throughput() / plain.throughput(), "unit": "share",
                                     "n": m.count, "source": name}
        result["metrics"] = dict(sorted(metrics.items()))
        result["layer_split"] = layer_split(spans)
        write_spans(spans, wl.WORK_DIR / f"spans-{name}.jsonl")
        runs = [warm, plain, m, *sweeps]
    result["attempted"] = sum(r.count for r in runs)
    result["failed"] = sum(r.failed for r in runs)
    result["errors"] = [e for r in runs for e in r.errors][:5]
    result["correct"] = result["failed"] == 0
    if name == "floatscan":
        result["verdicts"] = request.tallies()
        result["verdict_pairs"] = len(request.verdicts)
    return result


def environment():
    from importlib.metadata import version

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def driver_line(result, metric_names):
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k]["value"], "unit": result["metrics"][k]["unit"]}
                    for k in metric_names},
    }


def print_run(result):
    print(f"{result['workload']} seed={result['seed']} traced={int(result['traced'])} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for err in result["errors"]:
        print(f"  error: {err}")
    for metric, v in result["metrics"].items():
        note = v.get("how") or f"n={v['n']}, from {v['source']}"
        print(f"  {metric:36s} {v['value']:14.6g} {v['unit']:6s} ({note})")
    if "verdicts" in result:
        print(f"  verdicts over {result['verdict_pairs']} pairs: {result['verdicts']}")


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_names(spec, traced):
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


# --------------------------------------------------------------------------
# all workloads, several seeds


def run_many(args, spec, work_dir):
    """Each run in its own interpreter: every chosen workload at seeds
    seed .. seed+runs-1; prints the median and quartiles over the runs."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    tmp = work_dir / "run.json"
    for r in range(args.runs):
        for name in names:
            seed = args.seed + r
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", str(tmp)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if not tmp.is_file() or proc.returncode not in (0, 1):
                print(proc.stdout)
                sys.exit(f"error: {name} seed {seed} exited with {proc.returncode}")
            results.append(json.loads(tmp.read_text())["runs"][0])
            tmp.unlink()
            print(f"[{r + 1}/{args.runs}] " + proc.stdout.rsplit("\n", 2)[0], flush=True)
    summary = {}
    print("\nmedian [q1, q3] over runs; spread = (q3 - q1) / median")
    for name in names:
        runs = [run for run in results if run["workload"] == name]
        for metric in metric_names(spec, args.trace):
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            unit = runs[0]["metrics"][metric]["unit"]
            summary[f"{name}.{metric}"] = {"value": med, "unit": unit}
            print(f"  {name:10s} {metric:34s} {med:12.6g} {unit:6s} [{q1:.6g}, {q3:.6g}]  "
                  f"spread={spread:.3f}  runs={len(values)}")
    return results, {
        "correct": all(run["correct"] for run in results),
        "attempted": sum(run["attempted"] for run in results),
        "failed": sum(run["failed"] for run in results),
        "metrics": summary,
    }


# --------------------------------------------------------------------------
# compare


def compare(parent_path, change_path, spec):
    """Per workload and end-to-end metric: medians, quartiles, the share of
    pairs the change won, and a verdict (better, worse, unchanged or
    unresolved) by the bounds in BENCHMARK.json."""
    parent = json.loads(Path(parent_path).read_text())["runs"]
    change = json.loads(Path(change_path).read_text())["runs"]
    worse = False
    print(f"{'workload':10s} {'metric':18s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  won   verdict")
    for name in WORKLOAD_NAMES:
        p_runs = sorted((r for r in parent if r["workload"] == name and not r["traced"]), key=lambda r: r["seed"])
        c_runs = sorted((r for r in change if r["workload"] == name and not r["traced"]), key=lambda r: r["seed"])
        if not p_runs or not c_runs:
            continue
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in p_runs]
            cv = [r["metrics"][m["name"]]["value"] for r in c_runs]
            verdict, won = judge(pv, cv, m["better"] == "lower", m["bound"])
            worse |= verdict == "worse"
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{name:10s} {m['name']:18s} {pq[1]:12.6g} [{pq[0]:.6g}, {pq[2]:.6g}] "
                  f"{cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {won:4.0%}  {verdict}")
        same_seed = {r["seed"]: r.get("verdicts") for r in p_runs}
        for r in c_runs:
            if r.get("verdicts") is not None and same_seed.get(r["seed"]) not in (None, r["verdicts"]):
                print(f"{name}: verdict tallies differ at seed {r['seed']}: "
                      f"{same_seed[r['seed']]} vs {r['verdicts']}")
                worse = True
    return 1 if worse else 0


def judge(parent, change, lower_is_better, bound):
    """Verdict by the benchmark's rule: 'better' needs nine tenths of pairs
    won and a median gap wider than the parent's quartile spread; 'worse'
    is a median worse by more than the bound; a spread wider than the
    bound leaves the metric unresolved."""
    sign = 1 if lower_is_better else -1
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (p - c) > 0) / len(pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (p_med - c_med)
    if won >= 0.9 and gain > p_q3 - p_q1:
        return "better", won
    if -gain > bound * p_med:
        return "worse", won
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if p_q3 - p_q1 > bound * p_med and not all_better:
        return "unresolved", won
    return "unchanged", won


# --------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write the full result, with its environment")
    ap.add_argument("--runs", type=int, default=1, help="runs per workload, at seeds seed .. seed+runs-1")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), type=Path)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = load_workloads()
    wl.WORK_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        run_setup_probe(wl, args.workload, args.seed)
        return 0
    spec = benchmark_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        ap.error("--workload or --compare is required")
    if args.workload == "all" or args.runs > 1:
        results, line = run_many(args, spec, wl.WORK_DIR)
    else:
        result = measure_run(wl, args.workload, args.seed, args.seconds, bool(args.trace))
        print_run(result)
        results = [result]
        line = driver_line(result, metric_names(spec, args.trace))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"env": environment(), "runs": results}, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
