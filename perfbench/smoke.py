"""The benchmark's own smoke check, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload, in both trace modes, it checks that the run exits 0,
reports correct answers, and prints exactly the metric names and units
that ``BENCHMARK.json`` declares.  Then it checks the failure paths: a
deliberately wrong expected answer, or a service failure other than the
known defect, makes the run exit 1 with ``"correct": false``, a
``REPRO_*`` variable makes it refuse, and a
copy holding only ``BENCHMARK.json`` and ``perfbench`` (no program)
exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, service, workloads  # noqa: E402


def declared() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def tiny_run(workload: str, trace: str) -> tuple[int, dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace],
            scale="tiny",
        )
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def check_metrics() -> None:
    spec = declared()
    assert spec["workloads"] == list(workloads.WORKLOADS), spec["workloads"]
    # BENCHMARK.json records serve_mixed's rung rates and latency limit.
    rates = "/".join(f"{rate:g}" for rate in run.RATES)
    limit = f"p99 <= {service.LIMIT_MS:g} ms"
    why = spec["why"]["serve_mixed"]
    assert f"rungs {rates} req/s" in why and limit in why, why
    for workload in workloads.WORKLOADS:
        for trace in ("0", "1"):
            code, result, _ = tiny_run(workload, trace)
            assert code == 0 and result["correct"], (workload, trace, result)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == spec[trace], (workload, trace, set(got) ^ set(spec[trace]))
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics")


def check_wrong_answers_fail() -> None:
    real = workloads.reference

    def corrupted(*args):
        ref = dict(real(*args))
        ref["digest"] = "0" * 32
        return ref

    with mock.patch.object(workloads, "reference", corrupted):
        code, result, text = tiny_run("fdchain", "0")
    assert code == 1 and not result["correct"] and "WRONG" in text, result
    print("ok   a wrong expected digest fails the run")

    real_rows = service.expected_rows

    def shifted(*args):
        return {key: rows[1:] + [("bogus",)] for key, rows in real_rows(*args).items()}

    with mock.patch.object(service, "expected_rows", shifted):
        code, result, _ = tiny_run("serve_mixed", "0")
    assert code == 1 and not result["correct"], result
    print("ok   wrong expected service rows fail the run")

    real_input = workloads.service_input

    def no_known_defect(*args):
        inp = real_input(*args)
        inp.known_failures = {}
        return inp

    with mock.patch.object(workloads, "service_input", no_known_defect):
        code, result, text = tiny_run("serve_mixed", "0")
    assert code == 1 and not result["correct"] and "failed other than" in text, result
    print("ok   a service failure other than the known defect fails the run")


def check_refusals() -> None:
    with mock.patch.dict(os.environ, {"REPRO_SHARD": "off"}):
        try:
            tiny_run("fdchain", "0")
        except SystemExit as exc:
            assert exc.code == 3, exc.code
        else:
            raise AssertionError("a REPRO_* variable did not stop the run")
    print("ok   a REPRO_* variable is refused")

    bare = HERE / ".out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", ".cache")
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fdchain",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok   without the program the run exits non-zero and prints no result")


if __name__ == "__main__":
    check_metrics()
    check_wrong_answers_fail()
    check_refusals()
    print("smoke: all checks passed")
