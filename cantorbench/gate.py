"""Correctness gate for benchmark jobs; it runs outside the timed region.

A job fails when its exit code is not the expected one, when a ``check`` suite
reports FAIL, or when the check for its construction finds an error.  A
construction's check rebuilds the library result from the job's input files
through the public API and does three things.  It runs the library's
independent verifier on the result (``verify_splice``, ``verify_hatm``,
``verify_regret``, ``verify_merge``).  It compares the recipe's lower cuts with
``oracles.brute_lower_cut``.  And it requires the result's trace records to
appear, in order, in the job's stdout, so a tampered record fails the job.
Extra lines, such as summary lines, are allowed.  The caller compares stdout
digests between repetitions.
"""

from __future__ import annotations

from fractions import Fraction

from cantorsim.checks import MergeCase, verify_hatm, verify_merge, verify_regret, verify_splice
from cantorsim.complexity import PrefixMachine
from cantorsim.constructions import (
    beta_max,
    hat_m_construction,
    odd_ones_real_enumeration,
    regret_construction,
    splice_random,
)
from cantorsim.coverings import covered_up_to, even_covering_family, load_listing, star_construction
from cantorsim.dyadic import Antichain, BitString, Dyadic, rational_of_string
from cantorsim.oracles import brute_lower_cut, brute_optimal_covering
from cantorsim.streams import EnumerationScript, lower_cut, real_from_ce_set, stage_set


def parse_flags(argv: list[str]) -> dict[str, list]:
    """``--name value`` pairs (repeatable) and bare ``--name`` switches."""
    flags: dict[str, list] = {}
    i = 0
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            flags.setdefault(key, []).append(argv[i + 1])
            i += 2
        else:
            flags.setdefault(key, []).append(True)
            i += 1
    return flags


def in_order(expected: list[str], stdout: str) -> list[str]:
    """An error unless the expected lines appear in stdout in this order."""
    pending = iter(expected)
    want = next(pending, None)
    for line in stdout.splitlines():
        if want is not None and line == want:
            want = next(pending, None)
    return [] if want is None else [f"stdout lacks the record {want!r}"]


class _Job:
    """Typed access to one job's flags and loaded inputs."""

    def __init__(self, argv: list[str]) -> None:
        self.flags = parse_flags(argv)

    def int(self, key: str, default: int | None = None) -> int:
        values = self.flags.get(key)
        return default if values is None else int(values[0])

    def has(self, key: str) -> bool:
        return key in self.flags

    def path(self, key: str) -> str:
        return self.flags[key][0]

    def script(self, key: str = "script") -> EnumerationScript:
        return EnumerationScript.load(self.path(key), horizon=self.int("horizon"))

    def machine(self) -> PrefixMachine:
        return PrefixMachine.load(self.path("machine"), c_tilde=self.int("c-tilde", 0))


def _splice(job: _Job, stdout: str) -> list[str]:
    r = real_from_ce_set(job.script(), job.int("index", 0))
    machine, c = job.machine(), job.int("c")
    trace = splice_random(r, machine, c, job.int("horizon"))
    return verify_splice(trace, r, machine, c) + in_order(trace.render_lines(), stdout)


def _hatm(job: _Job, stdout: str) -> list[str]:
    m = real_from_ce_set(job.script(), job.int("index", 0))
    machine, k, mirror = job.machine(), job.int("k"), job.has("mirror")
    trace = hat_m_construction(m, machine, k, job.int("horizon"), mirror=mirror)
    return verify_hatm(trace, m, machine, k, mirror) + in_order(trace.render_lines(), stdout)


def _regret(job: _Job, stdout: str) -> list[str]:
    script, machine, c = job.script(), job.machine(), job.int("c")
    slots = regret_construction(script, machine, c, job.int("horizon"), job.int("max-slots"))
    errs = verify_regret(slots, script, machine, c)
    errs += in_order([line for slot in slots for line in slot.trace.render_lines()], stdout)
    headers = sum(line.startswith("# slot ") for line in stdout.splitlines())
    if headers != len(slots):
        errs.append(f"{headers} slot headers for {len(slots)} slots")
    return errs


def _beta(job: _Job, stdout: str) -> list[str]:
    script, horizon = job.script(), job.int("horizon")
    family = [real_from_ce_set(script, e) for e in script.indices()]
    trace = beta_max(family, horizon)
    errs = [] if trace.is_monotone() else ["beta trace not monotone"]
    if trace.value_at(horizon) != max(a.value(horizon) for a in family):
        errs.append("beta horizon value is not the family maximum")
    return errs + in_order(trace.render_lines(), stdout)


def _omega(job: _Job, stdout: str) -> list[str]:
    programs = job.machine().programs
    lines = stdout.splitlines()
    if len(lines) != job.int("horizon") + 1:
        return [f"{len(lines)} omega lines for horizon {job.int('horizon')}"]
    for line in lines:
        stage, value = line.split("\t")
        mass = sum(Fraction(1, 2 ** len(p.code)) for p in programs if p.halt_stage <= int(stage))
        if Dyadic.parse(value).as_fraction() != mass:
            return [f"stage {stage}: omega {value} is not the halted mass {mass}"]
    return []


def _merged(stdout: str, horizon: int, scripted: list[frozenset], injective) -> list[str]:
    """Settled output sets are distinct, include every nonempty scripted set,
    and are otherwise accepted by the injective side's predicate."""
    out = EnumerationScript.parse(stdout, horizon=horizon)
    outputs = [stage_set(out, i, horizon) for i in out.indices()]
    errs = [] if len(set(outputs)) == len(outputs) else ["settled output sets repeat"]
    errs += [f"scripted set of size {len(v)} omitted" for v in scripted if v and v not in outputs]
    errs += [
        f"output set of size {len(v)} neither scripted nor from the injective side"
        for v in outputs
        if v not in scripted and not injective(v)
    ]
    return errs


def _merge(job: _Job, stdout: str) -> list[str]:
    # The benchmark's l1 sets each carry one '1'-opening tag; scripted items open with '0'.
    horizon = job.int("horizon")
    with open(job.path("l1-sets"), encoding="utf-8") as fh:
        sets = [frozenset(BitString.parse(t) for t in line.split()) for line in fh if line.strip()]
    tags = frozenset(item for s in sets for item in s if item.bits.startswith("1"))
    case = MergeCase(
        script=job.script("l2"),
        l1=sets.__getitem__,
        picker=lambda content, attempt: [v for v in sets if content <= v][attempt],
        tags=tags,
        horizon=horizon,
    )
    return verify_merge(EnumerationScript.parse(stdout, horizon=horizon), case)


def _friedberg_reals(job: _Job, stdout: str) -> list[str]:
    script, machine = job.script(), job.machine()
    k, length, horizon, mirror = job.int("k"), job.int("len"), job.int("horizon"), job.has("mirror")
    errs: list[str] = []

    def cut(x: Dyadic) -> frozenset:
        brute = brute_lower_cut(x, length)
        if lower_cut(x, length) != brute:
            errs.append(f"lower cut of {x.render()} at length {length} differs from the oracle")
        return brute

    scripted = []
    for e in script.indices():
        m = real_from_ce_set(script, e)
        trace = hat_m_construction(m, machine, k, horizon, mirror=mirror)
        errs += verify_hatm(trace, m, machine, k, mirror)
        for value in {trace.value_at(s) for s in range(horizon)}:
            cut(value)
        scripted.append(cut(trace.value_at(horizon)))
    listing = []
    i = 0
    while len(s := odd_ones_real_enumeration(i)) <= length:
        listing.append(cut(rational_of_string(s)))
        i += 1
    allowed = set(listing)
    return errs + _merged(stdout, horizon, scripted, allowed.__contains__)


def _friedberg_classes(job: _Job, stdout: str) -> list[str]:
    length, horizon = job.int("len"), job.int("horizon")
    scripted = []
    for path in job.flags["listing"]:
        snaps = star_construction(load_listing(path), horizon)
        scripted.append(covered_up_to(snaps[-1].family, length) if snaps else frozenset())
    if not job.has("no-acceptable-stream"):
        i = 1
        while i <= horizon + 1 and (a := even_covering_family(i)).total_bits() <= length:
            scripted.append(covered_up_to(a, length))
            i += 1
    return _merged(stdout, horizon, scripted, lambda v: len(brute_optimal_covering(v)) % 2 == 1)


def _coverfamily(job: _Job, stdout: str) -> list[str]:
    odd = job.flags.get("parity", ["odd"])[0] == "odd"
    lines = stdout.splitlines()
    errs = [] if len(lines) == job.int("count") else [f"{len(lines)} families listed"]
    seen = set()
    for line in lines:
        text = line.split("\t")[1]
        members = () if text == "-" else tuple(BitString.parse(t) for t in text.split(","))
        family = Antichain(members)
        if len(family) % 2 != odd or family in seen or brute_optimal_covering(members) != family:
            errs.append(f"family {text} is repeated, of the wrong parity or not a covering")
        seen.add(family)
    return errs


def _oddones(job: _Job, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    errs = [] if len(lines) == job.int("count") else [f"{len(lines)} strings listed"]
    prev = (0, "")
    for line in lines:
        s = line.split("\t")[1]
        if not s.endswith("1") or s.count("1") % 2 == 0 or (len(s), s) <= prev:
            errs.append(f"odd-ones listing emitted {s} out of order or of even weight")
        prev = (len(s), s)
    return errs


RUN_CHECKS = {
    "splice": _splice,
    "hatm": _hatm,
    "regret": _regret,
    "beta": _beta,
    "omega": _omega,
    "merge": _merge,
    "friedberg-reals": _friedberg_reals,
    "friedberg-classes": _friedberg_classes,
    "coverfamily": _coverfamily,
    "oddones": _oddones,
}


def job_errors(argv: list[str], expect: int, code: int | None, stdout: str) -> list[str]:
    """Every reason the job failed; empty when it passed."""
    if code != expect:
        return [f"exit code {code}, expected {expect}"]
    if argv[0] == "check":
        return [] if stdout.startswith("ok\t") else ["check suite reported FAIL"]
    check = RUN_CHECKS.get(argv[1])
    return [] if check is None else check(_Job(argv[2:]), stdout)
