"""The cantorsim benchmark.

usage: python3 cantorbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs the job list
repeatedly, one fresh worker interpreter at a time, each job through
``cantorsim.cli.main``.  The first repetition warms the bytecode and file
caches, fixes the reference stdout digest of every job and runs the
correctness gate; it is not timed.  Timed repetitions follow until the next
one would overrun ``--seconds``.  With ``--trace 1``, traced repetitions
alternate with untraced ones, and the per-layer metrics come from the traced
ones.

Every metric is printed by name and unit.  The last stdout line is one JSON
object: ``correct``, ``attempted`` and ``failed`` count job executions; a
job fails on a wrong exit code, a gate error, or a stdout digest that differs
from the reference.  ``metrics`` holds the end-to-end metrics of
BENCHMARK.json or, with ``--trace 1``, its per-layer metrics.  Exits 2
without a result when the checkout holds no ``src/cantorsim``, and 1 when a
worker breaks down.

Times in ``ref`` units are multiples of the worker's reference loop (see
worker.py), which cancels most of a shared host's speed swings.  A job's time
is its median over the timed repetitions; ``wall_rel`` sums these over the job
list and the job percentiles are taken over the job list.  The raw seconds
are printed alongside, and peak RSS is the median over the repetitions.
``setup_s`` is the fastest set-up of the run: each set-up is about 0.1 s, a
single instant of the host's speed, and the fastest is the one least slowed
by other tenants.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".cantorbench_work"
WORKER_TIMEOUT_S = 150
RUN_LIMIT_S = 165  # no repetition starts that could end past this
SETUP_PROBES = 2


class WorkerError(RuntimeError):
    pass


def _worker(
    tmp: str, plan: str, tag: str, trace: bool = False, gate: bool = False, setup_only: bool = False
) -> dict:
    spec = {
        "plan": plan,
        "src": str(SRC),
        "out": os.path.join(tmp, f"result-{tag}.json"),
        "spans": os.path.join(tmp, f"spans-{tag}.json"),
        "setup_only": setup_only,
        "trace": trace,
        "gate": gate,
    }
    spec_path = os.path.join(tmp, f"spec-{tag}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    # A fixed hash seed keeps set iteration order, and so the work done, the same across runs.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), spec_path],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(spec["out"], encoding="utf-8") as fh:
        result = json.load(fh)
    if trace:
        import tracer

        with open(spec["spans"], encoding="utf-8") as fh:
            data = json.load(fh)
        result["layers"] = tracer.layer_metrics(data["spans"], data["counts"])
    return result


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _failures(rep: dict, reference: dict | None) -> list[tuple[str, str]]:
    """(job, reason) for each failed job of a repetition."""
    out = []
    for i, job in enumerate(rep["jobs"]):
        reasons = list(job.get("errors", ()))
        if reference is not None and job["digest"] != reference["jobs"][i]["digest"]:
            reasons.append("stdout digest differs from the reference repetition")
        if reference is not None and job["code"] != reference["jobs"][i]["code"]:
            reasons.append(f"exit code {job['code']} differs from the reference")
        if job["stderr"] and job["code"] is None:
            reasons.append(job["stderr"].strip().splitlines()[-1])
        out.extend((job["name"], r) for r in reasons)
    return out


def _repetitions(tmp: str, plan: str, seconds: int, trace: bool) -> tuple[dict, list, list, list]:
    """The gate repetition, then timed untraced (and traced) repetitions.
    Without tracing, each is followed by ``SETUP_PROBES`` set-up-only
    workers."""
    begin = perf_counter()
    reference = _worker(tmp, plan, "gate", gate=True)
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    start = perf_counter()
    last = 0.0
    while True:
        is_traced = trace and len(traced) < len(untraced)
        tag = str(len(untraced) + len(traced))
        t = perf_counter()
        rep = _worker(tmp, plan, tag, trace=is_traced)
        if not trace:
            setups.append(rep["setup_s"])
            for i in range(SETUP_PROBES):
                setups.append(_worker(tmp, plan, f"{tag}-setup{i}", setup_only=True)["setup_s"])
        last = max(last, perf_counter() - t)
        (traced if is_traced else untraced).append(rep)
        now = perf_counter()
        done = untraced and (traced or not trace)
        if done and (now - start + last > seconds or now - begin + last > RUN_LIMIT_S):
            return reference, untraced, traced, setups


def _end_to_end(spec: list[dict], untraced: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics, each printed with a note on its samples.  A
    job's time is its median over the repetitions; the wall time sums these
    over the job list, and the percentiles are taken over the job list."""

    def per_job(key: str) -> list[float]:
        return [statistics.median(r["jobs"][i][key] for r in untraced) for i in range(jobs)]

    jobs = len(untraced[0]["jobs"])
    rel, secs = per_job("rel"), per_job("seconds")
    note = f"over {jobs} jobs, each the median of {len(untraced)} repetitions"
    refs = [r for rep in untraced for r in rep["ref_s"]]
    rss = [r["peak_rss_mib"] for r in untraced]
    shown = {
        "wall_s": ("s", sum(secs), note),
        "job_p50_ms": ("ms", statistics.median(secs) * 1000, note),
        "job_p95_ms": ("ms", _p95(secs) * 1000, note),
        "reference_ms": ("ms", statistics.median(refs) * 1000, f"median of {len(refs)} samples"),
    }
    for name, (unit, value, how) in shown.items():
        print(f"{name} {value:.6g} {unit}  {how} (shown only)")
    values = {
        "wall_rel": (sum(rel), note),
        "setup_s": (min(setups), f"fastest of {_spread(setups)}"),
        "peak_rss_mib": (statistics.median(rss), f"median of {_spread(rss)}"),
        "job_p50_rel": (statistics.median(rel), note),
        "job_p95_rel": (_p95(rel), note),
    }
    metrics = {}
    for m in spec:
        value, how = values[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']}  {how}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def _per_layer(spec: list[dict], untraced: list[dict], traced: list[dict]) -> dict:
    """The per-layer metrics, medians over the traced repetitions, after each
    layer's share of the traced job time."""
    shares: dict[str, list[float]] = {}
    for r in traced:
        by_layer: dict[str, float] = {}
        for name, secs in r["layers"].items():
            if name.endswith(".self_s") and name != "oracles.self_s":
                layer = name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + secs
        for layer, secs in by_layer.items():
            shares.setdefault(layer, []).append(secs / r["wall_s"])
    for layer, fractions in sorted(shares.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"self-time share {layer} {statistics.median(fractions):.3f}")
    overhead = statistics.median(r["wall_rel"] for r in traced) / statistics.median(
        r["wall_rel"] for r in untraced)
    metrics = {}
    for m in spec:
        name = m["name"]
        if name == "trace_overhead_ratio":
            value = overhead
        else:
            value = statistics.median(r["layers"].get(name, 0) for r in traced)
        print(f"{name} {value:.6g} {m['unit']}  median of {len(traced)} traced repetitions")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cantorbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running worker is killed and the work dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "cantorsim" / "__init__.py").is_file():
        print(f"no cantorsim package under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, str(SRC))
    import gen

    if args.workload not in gen.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        inputs = os.path.join(tmp, "inputs")
        os.mkdir(inputs)
        plan = gen.generate(args.workload, args.seed, inputs)
        plan_path = os.path.join(tmp, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        try:
            reference, untraced, traced, setups = _repetitions(
                tmp, plan_path, args.seconds, bool(args.trace))
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark broke down: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run still uses it
            WORK.rmdir()

    rep_failures = [_failures(reference, None)] + [_failures(r, reference) for r in untraced + traced]
    failed_jobs = sum(len({name for name, _ in rep}) for rep in rep_failures)
    attempted = sum(len(rep["jobs"]) for rep in [reference] + untraced + traced)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"python {platform.python_version()} nproc {os.cpu_count()}")
    sizes = dict(plan["sizes"])
    sizes["spliced_runs"] = sum(j["spliced_runs"] for j in reference["jobs"])
    sizes["slot_headers"] = sum(j["slot_headers"] for j in reference["jobs"])
    print("inputs " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    for i, job in enumerate(reference["jobs"]):
        ms = statistics.median(rep["jobs"][i]["seconds"] for rep in untraced) * 1000
        rel = statistics.median(rep["jobs"][i]["rel"] for rep in untraced)
        print(f"job {job['name']} exit {job['code']} sha256 {job['digest']}"
              f" median_ms {ms:.3f} median_rel {rel:.4g}")
    for name, reason in [f for rep in rep_failures for f in rep][:20]:
        print(f"FAILED {name}: {reason}")
    print(f"repetitions: 1 gate, {len(untraced)} timed, {len(traced)} traced")

    if args.trace:
        metrics = _per_layer(bench["per_layer"], untraced, traced)
    else:
        metrics = _end_to_end(bench["end_to_end"], untraced, setups)
    print(f"error_rate {failed_jobs / attempted:.6g} ratio  ({failed_jobs} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed_jobs == 0,
        "attempted": attempted,
        "failed": failed_jobs,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
