"""One repetition of a workload's job list, in a fresh interpreter.

usage: python3 worker.py SPEC.json

The spec names the plan written by ``gen.generate``, the result path, the
checkout's ``src`` directory, whether to stop after set-up, whether to trace
(and where to write spans) and whether to run the correctness gate.  Set-up time covers ``import
cantorsim.cli`` and loading the plan's input files through the public
loaders.  Each job then runs through ``cantorsim.cli.main(argv)`` with stdout
and stderr captured.  The gate runs after the timed region and after peak RSS
is read.

The host's speed swings by up to 1.7x within a minute on shared machines,
and its phases can be shorter than a job.  So a ``Sampler`` times a fixed
pure-Python reference loop every ``REF_EVERY_S`` seconds, from a SIGALRM
handler that runs between bytecodes, and measures each job in reference
units: every slice of the job between two samples is divided by the median
sample taken within ``WINDOW_S`` of its end.  The pauses are left out of the
job's seconds.  Traced repetitions take samples only between jobs, so that
spans hold no pauses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

REF_EVERY_S = 0.25
WINDOW_S = 1.0


@dataclass(frozen=True)
class _Word:
    bits: str

    def __post_init__(self) -> None:
        if self.bits.strip("01"):
            raise ValueError(self.bits)


def reference_loop() -> float:
    """Seconds for a fixed mix of frozen-dataclass, hashing, slicing and
    integer work, like the library's own; it takes tens of milliseconds."""
    start = perf_counter()
    words = [_Word(format(i, "b")) for i in range(1600)]
    seen: set[_Word] = set()
    acc = 0
    for w in words:
        for n in range(0, len(w.bits), 3):
            prefix = _Word(w.bits[:n])
            acc += prefix in seen
            seen.add(prefix)
        acc += (int(w.bits, 2) << 3) % 11
    members = frozenset(words[:300])
    acc += sum(w in members for w in words)
    return perf_counter() - start


class Sampler:
    """Job times in seconds and in reference-loop units.  The loop is
    sampled every ``REF_EVERY_S`` seconds, on a timer or between jobs; each
    slice of a job between samples is divided by the median sample within
    ``WINDOW_S`` seconds of the slice's end."""

    def __init__(self, timer: bool) -> None:
        self.samples: list[tuple[float, float]] = []  # (time taken, seconds)
        self._slices: list[list[tuple[float, float]]] = []  # per job: (end, seconds)
        self._mark: float | None = None  # start of the current slice of a job
        self._sample()
        if timer:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self) -> None:
        self.samples.append((perf_counter(), reference_loop()))

    def _cut(self) -> None:
        now = perf_counter()
        self._slices[-1].append((now, now - self._mark))

    def _tick(self, signum, frame) -> None:
        if self._mark is not None:
            self._cut()
        self._sample()
        if self._mark is not None:
            self._mark = perf_counter()

    def start(self) -> None:
        self._slices.append([])
        self._mark = perf_counter()

    def stop(self) -> float:
        """The job's seconds, pauses for samples left out."""
        self._cut()
        self._mark = None
        if perf_counter() - self.samples[-1][0] > REF_EVERY_S:
            self._sample()
        return sum(seconds for _, seconds in self._slices[-1])

    def relative(self) -> list[float]:
        """Each job's time in reference units."""
        times = [t for t, _ in self.samples]
        out = []
        for slices in self._slices:
            rel = 0.0
            for end, seconds in slices:
                lo = bisect_left(times, end - WINDOW_S)
                hi = max(bisect_right(times, end + WINDOW_S), lo + 1)
                rel += seconds / statistics.median(r for _, r in self.samples[lo:hi])
            out.append(rel)
        return out


def _load_inputs(plan: dict) -> None:
    from cantorsim.complexity import PrefixMachine
    from cantorsim.coverings import load_listing
    from cantorsim.streams import EnumerationScript

    loaders = {"machine": PrefixMachine.load, "script": EnumerationScript.load, "listing": load_listing}
    for kind, path in plan["load"]:
        loaders[kind](path)


def _call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)  # looked up per call, so the tracer's binding is used
        except SystemExit as exc:  # argparse rejects its argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an internal error fails the job; the run goes on
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _spliced_runs(stdout: str) -> int:
    """How many times a trace enters the spliced state."""
    runs, prev = 0, None
    for line in stdout.splitlines():
        state = line.split("\t")[1] if line.count("\t") >= 2 else None
        runs += state == "spliced" and prev != "spliced"
        prev = state
    return runs


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(spec["plan"], encoding="utf-8") as fh:
        plan = json.load(fh)

    t0 = perf_counter()
    import cantorsim.cli as cli

    _load_inputs(plan)
    setup_s = perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        print(f"cantorsim imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    if spec["setup_only"]:
        with open(spec["out"], "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    results = []
    outputs = []
    sampler = Sampler(timer=tracer is None)
    try:
        with tracer or contextlib.nullcontext():
            for job in plan["jobs"]:
                sampler.start()
                code, out, err = _call(cli, job["argv"])
                seconds = sampler.stop()
                outputs.append(out)
                data = out.encode("utf-8")
                results.append({
                    "name": job["name"],
                    "code": code,
                    "seconds": seconds,
                    "digest": hashlib.sha256(data).hexdigest(),
                    "out_bytes": len(data),
                    "stderr": err[-2000:] if code != job["expect"] else "",
                    "spliced_runs": _spliced_runs(out),
                    "slot_headers": sum(line.startswith("# slot ") for line in out.splitlines()),
                })
    finally:
        sampler.close()
    for result, rel in zip(results, sampler.relative()):
        result["rel"] = rel
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.counts["cli.out_bytes"] = sum(r["out_bytes"] for r in results)
        tracer.write(spec["spans"])
    if spec["gate"]:
        import gate

        for job, result, out in zip(plan["jobs"], results, outputs):
            try:
                result["errors"] = gate.job_errors(job["argv"], job["expect"], result["code"], out)
            except Exception:  # a check that cannot finish fails the job
                result["errors"] = [traceback.format_exc(limit=-1).strip()]

    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(
            {
                "setup_s": setup_s,
                "wall_s": sum(r["seconds"] for r in results),
                "wall_rel": sum(r["rel"] for r in results),
                "ref_s": [r for _, r in sampler.samples],
                "peak_rss_mib": peak_rss_mib,
                "jobs": results,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
