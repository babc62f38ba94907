"""Outside-in span tracing for the benchmark's traced run.

The wrappers are installed from here, around the public entry points of
each layer of ``repro``; nothing inside the package is edited.  A span
records its name, start, end, parent span, request id and thread.  Spans
stay in memory and are written out once, when the run ends.

Parents come from a ``ContextVar``, so they follow ``copy_context()``
into the service's worker threads and the shard pool.  A span's *self
time* is its duration minus the union of the intervals covered by its
children **on the same thread**.  A child on another thread (a shard
task) runs in parallel with its parent, which is waiting for it; that
child's time is reported apart, as off-thread time, so the self times on
one phase's thread add up to that phase's wall time exactly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from contextvars import ContextVar

#: The request id of the service request a span belongs to.  The load
#: generator sets it before ``QueryService.submit``, which runs its
#: worker under ``copy_context()``, so worker-side spans inherit it.
REQUEST_ID: ContextVar[int | None] = ContextVar("perfbench_request_id", default=None)

_CURRENT: ContextVar["Span | None"] = ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "tid", "counts")

    def __init__(self, name: str, parent: "Span | None", rid, tid: int):
        self.name = name
        self.parent = parent
        self.rid = rid
        self.tid = tid
        self.start = 0.0
        self.end = 0.0
        self.counts: dict | None = None


def _rows(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _rows_out(value) -> int:
    # execute_batch* return a row list, or (block, step_alive) pairs on
    # the block backend; count the rows of the block.
    if isinstance(value, tuple) and value and hasattr(value[0], "shape"):
        return int(value[0].shape[0])
    if hasattr(value, "shape"):
        return int(value.shape[0])
    return _rows(value)


def _encode_counts(args, kwargs, out) -> dict:
    return {"rows": _rows(args[1])}


def _decode_counts(args, kwargs, out) -> dict:
    return {"rows": _rows(out)}


def _plan_counts(args, kwargs, out) -> dict:
    block = args[1] if len(args) > 1 else None
    rows_in = int(block.shape[0]) if hasattr(block, "shape") else _rows(block)
    return {"rows_in": rows_in, "rows_out": _rows_out(out)}


def _targets():
    """(layer, owner, attribute names, count function) for every wrapped
    entry point.  Imported lazily: the benchmark puts ``src`` on the
    path before it imports this."""
    from repro.core.planner import Planner
    from repro.engine import frontier, fused, shard
    from repro.engine.database import Database
    from repro.engine.dictionary import Codec
    from repro.engine.expansion_plan import ExpansionPlan, RelationExpansionPlan
    from repro.engine.relation import Relation
    from repro.lattice import builders
    from repro.lp import solver
    from repro.lp.cllp import ConditionalLLP
    from repro.lp.llp import LatticeLinearProgram
    from repro.serve import service

    # Packages re-export these functions under the submodules' names, so
    # fetch the submodules themselves.
    csma_mod = importlib.import_module("repro.core.csma")
    gj_mod = importlib.import_module("repro.engine.generic_join")
    lf_mod = importlib.import_module("repro.engine.leapfrog")
    return [
        ("dictionary.encode", Codec, ("encode_relation",), _encode_counts),
        ("dictionary.decode", Codec, ("decode_tuples",), _decode_counts),
        (
            "relation.index",
            Relation,
            ("index_on", "key_block", "join_block", "key_set", "tuple_set"),
            None,
        ),
        (
            "database.compile",
            Database,
            ("expansion_plan", "relation_plan", "udf_filter"),
            None,
        ),
        ("database.final_filter", Database, ("final_filter",), None),
        (
            "database.expand",
            Database,
            ("run_plan", "expand_rows_relation", "expand_block_relation"),
            None,
        ),
        (
            "expansion_plan.execute",
            ExpansionPlan,
            (
                "execute_batch",
                "execute_batch_columns",
                "execute_batch_ndarray",
                "execute_batch_ndarray_local",
            ),
            _plan_counts,
        ),
        ("expansion_plan.execute", RelationExpansionPlan, ("execute_all",), _plan_counts),
        (
            "frontier.block",
            frontier,
            (
                "rows_to_block",
                "columns_to_block",
                "block_to_rows",
                "block_rows",
                "sorted_key_block",
                "key_hits",
                "block_isin",
                "key_join",
                "hash_partition",
                "combine_shard_parts",
            ),
            None,
        ),
        ("frontier.block", shard, ("run_plan_sharded", "key_join", "block_isin"), None),
        ("fused.compile", fused, ("compile_pipeline",), None),
        ("generic_join", gj_mod, ("generic_join",), None),
        ("leapfrog", lf_mod, ("leapfrog_triejoin",), None),
        ("leapfrog.trie_build", lf_mod.TrieIndex, ("__init__",), None),
        ("csma", csma_mod, ("csma",), None),
        ("lattice.build", builders, ("lattice_from_query",), None),
        ("lp.solve", LatticeLinearProgram, ("solve", "solve_primal", "solve_dual"), None),
        ("lp.solve", ConditionalLLP, ("solve", "solve_primal", "solve_dual"), None),
        ("lp.exact", solver, ("solve_exact_lp",), None),
        ("planner.choose", Planner, ("choose",), None),
        ("serve.admission", service, ("admit",), None),
    ]


class Tracer:
    """Installs the wrappers, collects spans, and computes self times."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, layer: str, fn, counts):
        spans = self.spans

        def traced(*args, **kwargs):
            span = Span(layer, _CURRENT.get(), REQUEST_ID.get(), threading.get_ident())
            token = _CURRENT.set(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append(span)
            if counts is not None and (
                span.parent is None or span.parent.name != layer
            ):
                span.counts = counts(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def phase(self, name: str):
        """A root span the benchmark opens around one phase of a run."""
        return _PhaseSpan(self, name)

    # -- installation --------------------------------------------------
    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and n.split(".")[0] in ("repro", "perfbench")
        ]
        for layer, owner, names, counts in _targets():
            for attr in names:
                original = inspect.getattr_static(owner, attr)
                wrapper = self._wrap(layer, original, counts)
                if inspect.isclass(owner):
                    self._patch(owner, attr, original, wrapper)
                    continue
                # A module function: patch it wherever a module of the
                # program or the benchmark imported it by name, so every
                # caller sees the wrapper.
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self, roots: list[Span]) -> tuple[dict, dict, dict]:
        """Self seconds per layer on the roots' threads, off-thread
        seconds per layer, and summed counts per layer, over every span
        under ``roots``.  ``lp.solve`` also counts its ``outermost``
        calls (no ``lp.solve`` above them) and how many of those ran an
        exact solve underneath (``with_exact``); the others were answered
        from a memo."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        on_thread: dict[str, float] = {}
        off_thread: dict[str, float] = {}
        counts: dict[str, dict] = {}
        solves = counts.setdefault("lp.solve", {})
        exact: set[int] = set()
        # (span, on the root's thread, the outermost lp.solve above it)
        stack = [(root, True, None) for root in roots]
        while stack:
            span, on, solve = stack.pop()
            if span.name == "lp.solve" and solve is None:
                solve = span
                solves["outermost"] = solves.get("outermost", 0) + 1
            elif span.name == "lp.exact" and solve is not None and id(solve) not in exact:
                exact.add(id(solve))
                solves["with_exact"] = solves.get("with_exact", 0) + 1
            kids = children.get(id(span), [])
            same = [(k.start, k.end) for k in kids if k.tid == span.tid]
            own = (span.end - span.start) - _covered(same)
            target = on_thread if on else off_thread
            target[span.name] = target.get(span.name, 0.0) + own
            bucket = counts.setdefault(span.name, {})
            for key, value in (span.counts or {}).items():
                bucket[key] = bucket.get(key, 0) + value
            bucket["calls"] = bucket.get("calls", 0) + 1
            for kid in kids:
                stack.append((kid, on and kid.tid == span.tid, solve))
        return on_thread, off_thread, counts

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent else None,
                "request": s.rid,
                "thread": s.tid,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


class _PhaseSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.span = Span(f"phase.{name}", _CURRENT.get(), None, threading.get_ident())

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        _CURRENT.reset(self._token)
        self.tracer.spans.append(self.span)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
