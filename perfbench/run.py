"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload fdchain --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the wrappers of
``perfbench/trace.py`` are installed and the metrics are the per-layer
ones.  The exit code is 0 when every answer was right, 1 when one was
wrong, and 2 or 3 when the benchmark refused to run (no ``src`` next to
it, or a ``REPRO_*`` variable in the environment: the benchmark measures
the shipped defaults only).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent

#: serve_mixed's offered rates (requests per second) at the low, mid and
#: high rungs: about 25%, 50% and 85% of the open-loop capacity measured
#: when the benchmark was introduced (about 700/s on 2 CPUs), fixed so
#: later commits are compared at the same offered load.
RATES = (175.0, 350.0, 590.0)

SCALES = {
    "full": {
        "library_n": {"fdchain": 100_000, "lftj_triangle": 6_000, "csma_degree": 50_000},
        "serve_edges": 60,
        "setups": 9,
        "serve_setups": 15,
        "min_warm": 5,
        "rung_queries": 1000,
    },
    "tiny": {
        "library_n": {"fdchain": 2_000, "lftj_triangle": 600, "csma_degree": 2_000},
        "serve_edges": 30,
        "setups": 2,
        "serve_setups": 2,
        "min_warm": 2,
        "rung_queries": 40,
    },
}

#: Share of ``--seconds`` given to the warm loop; the rungs run a fixed
#: number of requests at fixed rates.
WARM_SHARE = 0.25


def refuse(message: str, code: int) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance() -> dict:
    import numpy

    from repro import config

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba": have_numba,
        "knobs": {name: config.get(name) for name in sorted(config.KNOBS)},
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: dict):
    """Run one workload.  Returns ``(end_to_end, per_layer, outcome,
    report)``; each metric is ``name -> (value, unit)``."""
    from perfbench import library, service, workloads
    from perfbench.clock import probe, PROBE_REFERENCE_S
    from perfbench.trace import Tracer

    tracer = Tracer() if traced else None
    e2e: dict = {}
    layers: dict = {}
    wrong: list[str] = []
    warm_budget = seconds * WARM_SHARE
    one_shot = name in workloads.ONE_SHOT

    # Generate every input first.  Then move them, and everything
    # imported so far, out of the collector's scans: they live for the
    # whole run, and scanning them would stall the load generator.
    if one_shot:
        inp = workloads.library_input(name, scale["library_n"][name], seed)
        prep = workloads.prepare(inp)
        known: dict = {}
    else:
        sinp = workloads.service_input(seed, scale["serve_edges"], scale["serve_setups"] + 1)
        expected = service.expected_rows(sinp)
        known = sinp.known_failures
    outcomes = service.Outcomes(known=dict(known))
    gc.collect()
    gc.freeze()

    baseline = None
    rungs, service_metrics = [], None
    if one_shot:
        if traced:
            untraced = library.library_phase(inp, prep, 1, warm_budget / 2, 3)
            baseline = median(s.scaled for s in untraced.warm)
            tracer.install()
        lib = library.library_phase(
            inp, prep, scale["setups"], warm_budget, scale["min_warm"], tracer
        )
        setups, colds, warms = lib.setup, lib.cold, lib.warm
    else:
        if traced:
            harness, _ = service.setup(sinp, expected, graph=scale["serve_setups"])
            scratch = service.Outcomes(known=dict(known))
            baseline = median(
                s.scaled for s in service.timed_passes(harness, scratch, warm_budget / 2, 5)
            )
            harness.close()
            tracer.install()
        # Each set-up attaches its own graph, so each cold pass meets
        # cardinalities the process's LP memo has not seen.
        setups, colds, harness = [], [], None
        for graph in range(scale["serve_setups"]):
            if harness is not None:
                harness.close()
            harness, sample = service.setup(sinp, expected, graph, tracer)
            setups.append(sample)
            colds += service.timed_passes(harness, outcomes, 0.0, 1)
        warms = service.timed_passes(harness, outcomes, warm_budget, 10)
        # Let the other tenant's plans compile before traffic starts;
        # databases attached later by writes start cold, as in service.
        for t in range(1, len(sinp.data)):
            service.request_pass(harness, outcomes, 0, tenant=t)
        for i, rate in enumerate(RATES):
            before = probe()
            rung = service.run_rung(
                harness, outcomes, rate, scale["rung_queries"], seed * 7919 + i,
                rid_base=(i + 1) * 1_000_000,
            )
            rung.scale = PROBE_REFERENCE_S * 2 / (before + probe())
            rungs.append(rung)
        service_metrics = harness.service.metrics()
        harness.close()

    e2e["setup_s"] = (median(s.scaled for s in setups), "s")
    e2e["first_query_s"] = (median(s.scaled for s in colds), "s")
    e2e["warm_query_s"] = (median(s.scaled for s in warms), "s")
    # ru_maxrss is the process high-water mark; read it before the
    # decoded-plane reference below can raise it.
    e2e["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    raw = {
        "raw.setup_s": (median(s.raw for s in setups), "s"),
        "raw.first_query_s": (median(s.raw for s in colds), "s"),
        "raw.warm_query_s": (median(s.raw for s in warms), "s"),
    }
    # Rung latencies; zero on the one-shot workloads, which send none.
    rung_metrics = {}
    for label, rung in zip(service.RUNG_NAMES, rungs or [None] * 3):
        rung_metrics[f"p50_ms.{label}"] = (rung.p50 * rung.scale if rung else 0.0, "ms")
        rung_metrics[f"p99_ms.{label}"] = (rung.p99 * rung.scale if rung else 0.0, "ms")
        raw[f"raw.p50_ms.{label}"] = (rung.p50 if rung else 0.0, "ms")
        raw[f"raw.p99_ms.{label}"] = (rung.p99 if rung else 0.0, "ms")
    passing = [r for r in rungs if r.passes]
    rung_metrics["max_rate_qps"] = (
        passing[-1].completed / passing[-1].wall_s if passing else 0.0, "1/s"
    )

    # -- correctness ----------------------------------------------------
    attempted, failed = outcomes.attempted, outcomes.failed
    if one_shot:
        ref = workloads.reference(inp, scale["library_n"][name], seed)
        expect = (ref["digest"], ref["rows"], ref["touched"])
        if tuple(ref["decoded"]) != expect[:2]:
            wrong.append(
                f"{name}: the decoded plane gave (digest, rows) {ref['decoded']}, "
                f"the oracle {expect[:2]}"
            )
        for answer in lib.answers:
            attempted += 1
            if answer != expect:
                failed += 1
                wrong.append(
                    f"{name}: got (digest, rows, tuples_touched) {answer}, "
                    f"expected {expect}"
                )
        if ref["rows"] and math.log2(ref["rows"]) > lib.bound_log2 + 1e-9:
            wrong.append(
                f"{name}: {ref['rows']} output rows exceed the certified bound "
                f"2^{lib.bound_log2:.4f}"
            )
    if outcomes.wrong:
        wrong.append(f"{name}: {outcomes.wrong} service responses had wrong rows")
    if outcomes.unexpected:
        wrong.append(
            f"{name}: {outcomes.unexpected} service requests failed other than "
            f"as the known defect {known} (see failure_classes)"
        )
    unfinished = sum(rung.unfinished for rung in rungs)
    if unfinished:
        attempted += unfinished
        failed += unfinished
        wrong.append(f"{name}: {unfinished} service requests never completed")

    # -- per-layer ------------------------------------------------------
    layers.update(rung_metrics)
    # The result line's ``failed`` leaves out the known defect (its error
    # is the expected outcome, checked by class); error_rate counts it.
    layers["error_rate"] = ((failed + outcomes.known_failures) / attempted, "ratio")
    layers["serve.known_failures"] = (outcomes.known_failures, "count")
    layers.update(raw)
    if traced:
        tracer.uninstall()
        if one_shot:
            per_phase = library_layers(tracer, lib)
            touched, out_rows = lib.answers[-1][2], lib.answers[-1][1]
            slack = lib.bound_log2 - math.log2(max(1, out_rows))
            values = lib.dictionary_values
            traced_e2e = median(s.scaled for s in lib.warm)
        else:
            per_phase = request_layers(tracer, outcomes.queries)
            touched, out_rows = outcomes.touched, outcomes.output_rows
            slack = statistics.fmean(outcomes.slack_log2) if outcomes.slack_log2 else 0.0
            values = sum(
                t["dictionary_values"] for t in service_metrics["tenants"].values()
            )
            traced_e2e = e2e["warm_query_s"][0]
        layers.update(layer_metrics(tracer, per_phase))
        layers["dictionary.values"] = (values, "count")
        layers["work.tuples_touched"] = (touched, "count")
        layers["work.output_rows"] = (out_rows, "count")
        layers["work.yield"] = (out_rows / touched if touched else 0.0, "ratio")
        layers["work.bound_slack_log2"] = (slack, "log2")
        layers.update(serve_layers(tracer, rungs, outcomes, service_metrics))
        layers["trace.overhead_ratio"] = (traced_e2e / baseline, "ratio")
        out_dir = Path(__file__).resolve().parent / ".out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{name}-s{seed}.json")

    report = {
        "failure_classes": outcomes.failure_classes,
        "known_failures": {
            "expected": known,
            "count": outcomes.known_failures,
        },
        "rungs": [
            {
                "name": label,
                "rate_qps": rung.rate,
                "queries_completed": rung.completed,
                "p50_ms": rung.p50,
                "p99_ms": rung.p99,
                "backlog_grows": rung.backlog_grows,
                "generator_lag_ms.p99": service.percentile(rung.lags_ms, 0.99),
                "passes": rung.passes,
            }
            for label, rung in zip(service.RUNG_NAMES, rungs)
        ],
        "wrong": wrong,
    }
    return e2e, layers, (attempted, failed, not wrong), report


# ----------------------------------------------------------------------
# per-layer metrics from the trace
# ----------------------------------------------------------------------
#: self-time metric name -> span name.
SELF_TIME = {
    "dictionary.encode_s": "dictionary.encode",
    "dictionary.decode_s": "dictionary.decode",
    "relation.index_s": "relation.index",
    "database.compile_s": "database.compile",
    "database.final_filter_s": "database.final_filter",
    "database.expand_s": "database.expand",
    "expansion_plan.execute_s": "expansion_plan.execute",
    "frontier.block_s": "frontier.block",
    "fused.compile_s": "fused.compile",
    "generic_join.self_s": "generic_join",
    "leapfrog.self_s": "leapfrog",
    "leapfrog.trie_build_s": "leapfrog.trie_build",
    "csma.self_s": "csma",
    "lattice.build_s": "lattice.build",
    "planner.choose_s": "planner.choose",
}
#: metric name -> (span name, count key).
COUNTS = {
    "dictionary.encode_rows": ("dictionary.encode", "rows"),
    "dictionary.decoded_rows": ("dictionary.decode", "rows"),
    "relation.index_calls": ("relation.index", "calls"),
    "database.compile_calls": ("database.compile", "calls"),
    "expansion_plan.rows_in": ("expansion_plan.execute", "rows_in"),
    "expansion_plan.rows_out": ("expansion_plan.execute", "rows_out"),
    "lp.exact_solves": ("lp.exact", "calls"),
}


def phase_summary(tracer, roots, reps: int) -> dict:
    """Self seconds, off-thread seconds and counts per span name under
    ``roots``, each divided by ``reps`` (how often the phase ran)."""
    on, off, counts = tracer.self_times(roots)
    return {
        "self": {k: v / reps for k, v in on.items()},
        "off": {k: v / reps for k, v in off.items()},
        "counts": {k: {c: v / reps for c, v in d.items()} for k, d in counts.items()},
        "wall": sum(r.end - r.start for r in roots) / reps,
    }


def library_layers(tracer, lib) -> dict:
    """Per phase (setup, cold, warm): the phase summary per repetition."""
    return {
        phase: phase_summary(tracer, roots, len(roots))
        for phase, roots in lib.roots.items()
    }


def request_layers(tracer, requests: int) -> dict:
    """The phase summary per service request (writes included in the
    roots, divided over the queries)."""
    roots = [
        s for s in tracer.spans
        if s.parent is None and (s.rid is not None or s.name == "phase.write")
    ]
    return {"request": phase_summary(tracer, roots, max(1, requests))}


def layer_metrics(tracer, per_phase: dict) -> dict:
    """Sum each layer metric over the phases (one setup + one cold query
    + one warm query, or one service request)."""
    def total(kind, key, sub=None):
        value = 0.0
        for phase in per_phase.values():
            if sub is None:
                value += phase[kind].get(key, 0.0)
            else:
                value += phase[kind].get(key, {}).get(sub, 0.0)
        return value

    out = {}
    for metric, span in SELF_TIME.items():
        out[metric] = (total("self", span), "s")
    out["lp.solve_s"] = (total("self", "lp.solve") + total("self", "lp.exact"), "s")
    for metric, (span, key) in COUNTS.items():
        out[metric] = (total("counts", span, key), "count")
    solves = total("counts", "lp.solve", "outermost")
    hits = solves - total("counts", "lp.solve", "with_exact")
    out["lp.solve_calls"] = (solves, "count")
    out["lp.memo_hit_ratio"] = (hits / solves if solves else 0.0, "ratio")
    wall = sum(p["wall"] for p in per_phase.values())
    out["trace.phase_wall_s"] = (wall, "s")
    out["trace.self_sum_s"] = (sum(sum(p["self"].values()) for p in per_phase.values()), "s")
    out["trace.offthread_s"] = (sum(sum(p["off"].values()) for p in per_phase.values()), "s")
    out["trace.unattributed_s"] = (
        sum(v for p in per_phase.values() for k, v in p["self"].items() if k.startswith("phase.")),
        "s",
    )
    return out


def serve_layers(tracer, rungs, outcomes, service_metrics) -> dict:
    """The service's own counters and the load generator's figures; zero
    on the one-shot workloads, which send no requests."""
    from perfbench.service import MAX_WORKERS, percentile

    if service_metrics is None:
        service_metrics = {
            "degraded": 0, "rejected_overload": 0, "timeouts": 0, "tenants": {}
        }
    admit_start = {}
    for span in tracer.spans:
        if span.name == "serve.admission" and span.rid is not None:
            admit_start.setdefault(span.rid, span.start)
    waits, busy, wall = [], 0.0, 0.0
    for rung in rungs:
        for rid, sent in rung.submits.items():
            start = admit_start.get(rid)
            if start is None:
                continue
            waits.append((start - sent) * 1e3)
            done = rung.done_at.get(rid)
            if done is not None:
                busy += done - start
        wall += rung.wall_s
    lags = [lag for rung in rungs for lag in rung.lags_ms]
    compactions = sum(t["compactions"] for t in service_metrics["tenants"].values())
    return {
        "serve.admission_s": (
            sum(
                s.end - s.start for s in tracer.spans
                if s.name == "serve.admission" and s.rid is not None
            ) / max(1, len(admit_start)),
            "s",
        ),
        "serve.queue_wait_ms.p50": (percentile(waits, 0.50), "ms"),
        "serve.queue_wait_ms.p99": (percentile(waits, 0.99), "ms"),
        "serve.pool_busy_ratio": (busy / (wall * MAX_WORKERS) if wall else 0.0, "ratio"),
        "serve.engine_attempts_per_request": (
            statistics.fmean(outcomes.attempts) if outcomes.attempts else 0.0,
            "count",
        ),
        "serve.degraded": (service_metrics["degraded"], "count"),
        "serve.rejected_overload": (service_metrics["rejected_overload"], "count"),
        "serve.timeouts": (service_metrics["timeouts"], "count"),
        "serve.compactions": (compactions, "count"),
        "serve.generator_lag_ms": (percentile(lags, 0.99), "ms"),
    }


# ----------------------------------------------------------------------
def main(argv=None, scale: str = "full") -> int:
    args = parse_args(argv)
    repro_vars = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if repro_vars:
        refuse(
            "refusing to measure: the benchmark measures shipped defaults, "
            f"but {', '.join(repro_vars)} is set",
            3,
        )
    if not (ROOT / "src" / "repro").is_dir():
        refuse(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", 2)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        refuse(f"unknown workload {args.workload!r} ({', '.join(workloads.WORKLOADS)})", 2)

    print("provenance " + json.dumps(provenance(), sort_keys=True))
    metrics, layers, (attempted, failed, correct), report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), SCALES[scale]
    )
    print("report " + json.dumps(report, sort_keys=True))
    for problem in report["wrong"]:
        print(f"WRONG {problem}")
    shown = dict(metrics)
    shown.update(layers)
    for key, (value, unit) in shown.items():
        print(f"metric {args.workload} {key} = {value:.6g} {unit}")
    chosen = layers if args.trace else metrics
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


#: String hashing decides set and dict iteration orders inside the
#: program (variable and join orders among them), and different hash
#: seeds measurably change its speed.  Every run uses the same one, so
#: commits are compared on the same layout.
HASH_SEED = "0"

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.exit(main())
