"""The library side of a one-shot workload: set-up, cold and warm queries.

A library caller builds ``Relation``s and a ``Database`` (set-up, which
includes dictionary encoding), runs its query once on the fresh database
(the cold query, which pays for lazy plan, guard, index and pipeline
compilation) and then repeats it (warm queries).  Set-up and the cold
query are repeated on a fresh database several times per run; every
figure is reported as a median.  Every query's digest and
``tuples_touched`` are kept for the correctness check.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from perfbench.clock import Sample, timed
from perfbench.oracle import digest
from perfbench.workloads import (
    LibraryInput,
    Prepared,
    bound_log2,
    build_database,
    run_query,
)


@dataclass
class LibraryRun:
    setup: list[Sample] = field(default_factory=list)
    cold: list[Sample] = field(default_factory=list)
    warm: list[Sample] = field(default_factory=list)
    #: (digest, output rows, tuples_touched) of every query run.
    answers: list[tuple[str, int, int]] = field(default_factory=list)
    bound_log2: float = 0.0
    dictionary_values: int = 0
    #: phase name -> the tracer's root spans of that phase.
    roots: dict = field(default_factory=dict)


def _in_phase(tracer, run: LibraryRun, name: str, fn, *args):
    """``timed(fn, *args)``, inside a root span when tracing (the span
    covers the call, not the probes around it)."""
    if tracer is None:
        return timed(fn, *args)

    def body():
        ctx = tracer.phase(name)
        run.roots.setdefault(name, []).append(ctx.span)
        with ctx:
            return fn(*args)

    return timed(body)


def _query(prep: Prepared, db, run: LibraryRun, tracer, phase: str) -> Sample:
    (out, touched, algorithm_bound), sample = _in_phase(
        tracer, run, phase, run_query, prep, db
    )
    run.answers.append((digest(out.schema, out.tuples), len(out), touched))
    if phase == "cold" and not run.bound_log2:
        run.bound_log2 = bound_log2(prep, db, algorithm_bound)
    return sample


def library_phase(
    inp: LibraryInput,
    prep: Prepared,
    setups: int,
    warm_budget_s: float,
    min_warm: int,
    tracer=None,
) -> LibraryRun:
    """``setups`` fresh (set-up, cold query) pairs, then warm queries on
    the last database until ``warm_budget_s`` has passed (at least
    ``min_warm`` of them)."""
    run = LibraryRun()
    db = None
    for _ in range(setups):
        db = None
        gc.collect()
        db, sample = _in_phase(tracer, run, "setup", build_database, inp)
        run.setup.append(sample)
        run.dictionary_values = db.codec.total_values()
        gc.collect()
        run.cold.append(_query(prep, db, run, tracer, "cold"))
    deadline = time.perf_counter() + warm_budget_s
    while len(run.warm) < min_warm or time.perf_counter() < deadline:
        gc.collect()
        run.warm.append(_query(prep, db, run, tracer, "warm"))
    return run
