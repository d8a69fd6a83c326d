"""Seeded input generator for the cantorsim benchmark.

The generator is the benchmark's own code: it does not call
``cantorsim.checks.random_*``, so a change to the library cannot change the
benchmark's inputs.  ``generate(workload, seed, directory)`` writes the input
files and returns a plan: the job list (CLI argv and expected exit code), the
files that set-up loads through the public loaders, and the input sizes.  The
seed draws the contents; the sizes are fixed, so every seed asks for about the
same amount of work.

Script values are multiples of 2^-k, where k is the boundary length passed to
``hatm``, and every index is empty at stage 0.  Each machine has an anchor
program that halts at stage 0 with a code no longer than k, so the length-k
mass boundary is never degenerate.  Together these keep every splice,
boundary and regret trace monotone; the constructions are meant for such
inputs.  Trigger programs have 3-bit codes whose outputs are the exact k-bit
expansions of script values, so splice triggers fire and regret slots bind.
All other codes are at least as long as their outputs and never fail the
constant.
"""

from __future__ import annotations

import os
import random

from cantorsim.scenarios import FIXTURE_FILES, SCENARIOS, write_fixtures

WORKLOADS = ("machine-replay", "combinatorics", "small-inputs")

SUITES = ("dyadic", "coverings", "complexity", "constructions", "classes")

ANCHOR_CODE = "000"
TRIGGER_CODES = ("001", "010", "011")


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _write(directory: str, name: str, lines: list[str]) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def value_events(
    rng: random.Random, stages: list[list[int]], numerators: list[int]
) -> list[tuple[int, int, int]]:
    """(stage, index, numerator) at the given stages of each index, with
    strictly increasing numerators drawn from the given ones."""
    events = []
    for e, at in enumerate(stages):
        nums = sorted(rng.sample(numerators, len(at)))
        events.extend(zip(at, [e] * len(at), nums))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    return events


def script_lines(events: list[tuple[int, int, int]], k: int) -> list[str]:
    return [f"{s}\t{e}\tdyadic\t{num}/2^{k}" for (s, e, num) in events]


def pick_triggers(
    rng: random.Random, events: list[tuple[int, int, int]], horizon: int, k: int, count: int
) -> list[tuple[int, int]]:
    """(numerator, halt stage) for up to ``count`` trigger programs, each
    halting while its value is current and the scan reaches length k."""
    runs = []
    by_index: dict[int, list[tuple[int, int]]] = {}
    for s, e, num in events:
        by_index.setdefault(e, []).append((s, num))
    for vals in by_index.values():
        for j, (s, num) in enumerate(vals):
            end = vals[j + 1][0] - 1 if j + 1 < len(vals) else horizon
            if max(s, k) <= end:
                runs.append((num, max(s, k), end))
    chosen = rng.sample(runs, min(count, len(runs)))
    return [(num, rng.randint(start, end)) for num, start, end in chosen]


def machine_lines(
    rng: random.Random,
    triggers: list[tuple[int, int]],
    horizon: int,
    k: int,
    programs: int,
    code_len: tuple[int, int],
) -> list[str]:
    """The anchor, the trigger programs and random programs, ``programs``
    in total.  Random codes open with 1 and are at least as long as their
    outputs."""
    lines = [f"{ANCHOR_CODE}\t-\t0"]
    for code, (num, halt) in zip(TRIGGER_CODES, triggers):
        lines.append(f"{code}\t{format(num, 'b').zfill(k)}\t{halt}")
    codes: set[str] = set()
    lo, hi = code_len
    while len(lines) < programs:
        code = "1" + _bits(rng, rng.randint(lo - 1, hi - 1))
        if any(code[:i] in codes for i in range(lo, len(code) + 1)) or any(
            c.startswith(code) for c in codes
        ):
            continue
        codes.add(code)
        lines.append(f"{code}\t{_bits(rng, rng.randint(1, lo))}\t{rng.randint(0, horizon)}")
    return lines


def listing_lines(rng: random.Random, kind: str, bound: int = 5) -> list[str]:
    """A star-construction listing: the strings up to the bound off a random
    path, the covered strings of a random clopen set, or loose strings."""
    if kind == "path":
        x = _bits(rng, bound + 2)
        out = [
            format(v, "b").zfill(n) if n else ""
            for n in range(bound + 1)
            for v in range(1 << n)
        ]
        out = [t for t in out if not x.startswith(t)]
    elif kind == "clopen":
        members = {_bits(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))}
        out = [
            t
            for n in range(1, bound + 1)
            for t in (format(v, "b").zfill(n) for v in range(1 << n))
            if any(t.startswith(m) for m in members)
        ]
        if rng.random() < 0.5:
            rng.shuffle(out)
    else:
        out = [_bits(rng, rng.randint(0, bound + 1)) for _ in range(rng.randint(1, 12))]
    return [t or "-" for t in out]


def _machine_replay(rng: random.Random, d: str) -> dict:
    # The event stages and the trigger targets are fixed, and each index
    # draws its values from its own residue class mod 3, so no value recurs
    # across indices and every seed binds and regrets the same slots at the
    # same stages; the seed draws the values and the programs.
    horizon, k, c, programs, indices = 100, 6, 2, 800, 3
    events = sorted(
        (e + 1 + 20 * j, e, num)
        for e in range(indices)
        for j, num in enumerate(sorted(rng.sample(range(1 + e, 58, 3), 5)))
    )
    per_index = [[ev for ev in events if ev[1] == e] for e in range(indices)]
    # index e's value from its event e + 1 fails the constant from that event's stage
    triggers = [(per_index[e][e + 1][2], per_index[e][e + 1][0]) for e in range(indices)]
    script = _write(d, "script.tsv", script_lines(events, k))
    lines = machine_lines(rng, triggers, horizon, k, programs, (12, 15))
    machine = _write(d, "machine.tsv", lines)
    sm = ["--script", script, "--machine", machine]
    jobs = [
        ("splice", ["run", "splice", *sm, "--c", str(c), "--horizon", str(horizon), "--index", "0"]),
        ("hatm", ["run", "hatm", *sm, "--k", str(k), "--horizon", str(horizon), "--index", "1"]),
        ("regret", ["run", "regret", *sm, "--c", str(c), "--horizon", str(horizon)]),
        ("omega", ["run", "omega", "--machine", machine, "--horizon", str(horizon)]),
    ]
    return {
        "jobs": jobs,
        "load": [["machine", machine], ["script", script]],
        "sizes": {"programs": len(lines), "trigger_programs": len(triggers), "events": len(events),
                  "indices": indices, "H": horizon, "k": k},
    }


def _combinatorics(rng: random.Random, d: str) -> dict:
    horizon, k, length, classes_len = 30, 3, 8, 7
    # The merge needs the boundary reals apart from the odd-ones reals it
    # lists.  A cut at length 8 is an odd-ones cut exactly when the value,
    # rounded up to 8 bits, has an odd number of 1s.  So the tracked values
    # (3, 5 or 6 eighths) and every stage mass (0.011, then 0.101 in binary)
    # have an even number, and so do the boundary construction's
    # prefix-plus-mass values.  The merge's cost turns on the order in which
    # indices collide, so the script is the same for every seed; the seed
    # draws the listings and the program outputs.
    sequences = [[3], [5], [6], [3, 5], [5, 6]]
    events = sorted(
        (stage, e, num)
        for e, seq in enumerate(sequences)
        for stage, num in zip((2 + 3 * e, 12 + 3 * e), seq)
    )
    script = _write(d, "script.tsv", script_lines(events, k))
    machine = _write(d, "machine.tsv", [
        "00\t-\t0",
        f"010\t{_bits(rng, 2)}\t0",
        f"10\t{_bits(rng, 2)}\t10",
    ])
    texts = [listing_lines(rng, "path", bound) for bound in (5, 5, 6)]
    listings = [_write(d, f"listing{i}.txt", lines) for i, lines in enumerate(texts)]
    jobs = [
        ("coverfamily-odd", ["run", "coverfamily", "--count", "600", "--parity", "odd"]),
        ("coverfamily-even", ["run", "coverfamily", "--count", "300", "--parity", "even"]),
        ("oddones", ["run", "oddones", "--count", "800"]),
        ("star", ["run", "star", "--listing", listings[0], "--horizon", str(len(texts[0]))]),
        ("friedberg-classes", ["run", "friedberg-classes", "--listing", listings[1],
                               "--listing", listings[2], "--len", str(classes_len),
                               "--horizon", str(horizon)]),
        ("friedberg-reals", ["run", "friedberg-reals", "--script", script, "--machine", machine,
                             "--k", str(k), "--len", str(length), "--horizon", str(horizon)]),
    ]
    return {
        "jobs": jobs,
        "load": [["machine", machine], ["script", script]] + [["listing", p] for p in listings],
        "sizes": {"programs": 3, "events": len(events), "indices": 5, "L": length,
                  "L_classes": classes_len, "H": horizon, "k": k, "coverfamily": 900,
                  "oddones": 800},
    }


def _small_run(rng: random.Random, d: str, i: int, kind: str, j: int, load: list) -> list[str]:
    """Job i, the j-th small `run` (≤20 programs, horizon ≤20) of its kind.
    Sizes follow j, so each seed draws the same sizes; the seed draws the
    contents."""
    horizon = 10 + j // 2
    k, c = 5, 1
    if kind in ("splice", "hatm", "regret", "omega"):
        indices = 1 + j % 3
        stages = [sorted(rng.sample(range(1, horizon + 1), 1 + (j + e) % 4)) for e in range(indices)]
        events = value_events(rng, stages, list(range(1, 29)))
        triggers = pick_triggers(rng, events, horizon, k, 2)
        lines = machine_lines(rng, triggers, horizon, k, 4 + j * 7 % 17, (6, 8))
        machine = _write(d, f"m{i}.tsv", lines)
        load.append(["machine", machine])
        if kind == "omega":
            return ["run", "omega", "--machine", machine, "--horizon", str(horizon)]
        script = _write(d, f"s{i}.tsv", script_lines(events, k))
        load.append(["script", script])
        sm = ["--script", script, "--machine", machine, "--horizon", str(horizon)]
        if kind == "splice":
            return ["run", "splice", *sm, "--c", str(c)]
        if kind == "hatm":
            return ["run", "hatm", *sm, "--k", str(k), "--index", str(j % indices)]
        return ["run", "regret", *sm, "--c", str(c)]
    if kind == "beta":
        lines = []
        for _ in range(1 + j % 8):
            exp = rng.randint(0, 8)
            lines.append((rng.randint(0, horizon), rng.randint(0, 3), rng.randint(0, 1 << exp), exp))
        lines.sort(key=lambda ev: ev[0])
        script = _write(d, f"s{i}.tsv", [f"{s}\t{e}\tdyadic\t{n}/2^{x}" for s, e, n, x in lines])
        load.append(["script", script])
        return ["run", "beta", "--script", script, "--horizon", str(horizon)]
    if kind == "capped":
        lines = sorted(
            (rng.randint(0, horizon), rng.randint(0, 2), _bits(rng, rng.randint(1, 5)))
            for _ in range(1 + j % 10)
        )
        script = _write(d, f"s{i}.tsv", [f"{s}\t{e}\tstr\t{b}" for s, e, b in lines])
        load.append(["script", script])
        return ["run", "capped", "--script", script, "--cap-n", str(1 + j % 8),
                "--horizon", str(horizon)]
    if kind == "star":
        listing = _write(d, f"l{i}.txt", listing_lines(rng, ("path", "clopen", "loose")[j % 3]))
        load.append(["listing", listing])
        return ["run", "star", "--listing", listing, "--horizon", str(horizon)]
    if kind == "merge":
        # Each index opens with an item of its own, so no two followers
        # converge; every l1 set carries a '1'-opening tag item.
        lines = []
        for e in range(1 + j % 4):
            items = ["0" + format(e, "02b")] + ["0" + _bits(rng, 4) for _ in range((j + e) % 4)]
            stages = sorted(rng.randint(0, horizon) for _ in items)
            lines.extend((s, e, b) for s, b in zip(stages, items))
        lines.sort(key=lambda ev: ev[0])
        l2 = _write(d, f"s{i}.tsv", [f"{s}\t{e}\tstr\t{b}" for s, e, b in lines])
        sets = _write(d, f"l1_{i}.txt", [
            " ".join(["1" + format(t, "06b")] + ["0" + _bits(rng, 4) for _ in range(t % 3)])
            for t in range(1 + j % 12)
        ])
        load.append(["script", l2])
        return ["run", "merge", "--l2", l2, "--l1-sets", sets, "--horizon", str(horizon)]
    if kind == "oddones":
        return ["run", "oddones", "--count", str(5 + 3 * j)]
    if kind == "coverfamily":
        return ["run", "coverfamily", "--count", str(5 + 3 * j), "--parity", ("odd", "even")[j % 2]]
    raise ValueError(kind)


SMALL_KINDS = ("splice", "hatm", "regret", "omega", "beta", "capped", "star", "merge",
               "oddones", "coverfamily")


def _small_inputs(rng: random.Random, d: str) -> dict:
    fixtures = os.path.join(d, "fixtures")
    write_fixtures(fixtures)
    jobs = []
    for sc in SCENARIOS:
        argv = [os.path.join(fixtures, a) if a in FIXTURE_FILES else a for a in sc.argv]
        jobs.append((f"scenario:{sc.name}", argv))
    load: list = []
    for name in sorted(FIXTURE_FILES):
        path = os.path.join(fixtures, name)
        if name.startswith("m_"):
            load.append(["machine", path])
        elif name.startswith("s_"):
            load.append(["script", path])
        elif name.startswith("l_"):
            load.append(["listing", path])
    kinds = [(kind, j) for j in range(20) for kind in SMALL_KINDS]
    for i, (kind, j) in enumerate(kinds):
        jobs.append((f"small:{i}:{kind}", _small_run(rng, d, i, kind, j, load)))
    for suite in SUITES:
        jobs.append((f"check:{suite}", ["check", suite]))
    return {
        "jobs": jobs,
        "load": load,
        "sizes": {"scenarios": len(SCENARIOS), "small_runs": len(kinds), "suites": len(SUITES),
                  "files": len(load), "max_programs": 20, "max_H": 20},
    }


_BUILDERS = {
    "machine-replay": _machine_replay,
    "combinatorics": _combinatorics,
    "small-inputs": _small_inputs,
}


def generate(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's inputs for the seed into the directory and return
    its plan: jobs as {name, argv, expect}, set-up loads and input sizes."""
    rng = random.Random(f"{workload}/{seed}")
    plan = _BUILDERS[workload](rng, directory)
    plan["jobs"] = [{"name": n, "argv": argv, "expect": 0} for n, argv in plan["jobs"]]
    plan["sizes"]["jobs"] = len(plan["jobs"])
    return plan
