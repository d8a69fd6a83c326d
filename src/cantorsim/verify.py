"""The safety verifiers of the `run` constructions and of the merge.

Each returns the violations it finds in a result, none for a safe run.  K_t,
Ω_s, least failing lengths, failing runs, k-bit expansions, coverings and
measures come from the scans in `oracles`, never from the machine's stage
index or the constructions' own.  A splice's runs must be exactly the
scan's runs of its input, and the regret slots' runs of each index exactly
the scan's runs of that index, so a run that opens or closes late, is
missing or is held twice is a finding.  The `run`
entry X binds `verify_X` as its check, for X
in splice, hatm, regret, beta, star, capped, diagonalize, omega, oddones and
coverfamily; `verify_merge` checks the merge cases of `check constructions`,
and the merge entry and the two recipes bind none yet (see `runs`).  The
`check` suites and the tests call these verifiers rather than restate them.

A hygiene test holds the imports from the package to the value and record
types, `PrefixMachine`, `oracles`, `errors` and the script replay
(`EnumerationScript`, `LeftCEApprox`, `real_from_ce_set`): the replay reads
the same input the builder read and is not what is verified.  The merge's
settled sets are read in one pass over each script's events.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .classes import CappedReplay, Tree
from .complexity import PrefixMachine
from .constructions import RegretSlot, StageTrace, TailValue, TraceRecord
from .coverings import StarSnapshot
from .dyadic import ZERO, Antichain, Dyadic
from .errors import RangeError
from .oracles import brute_failing_runs, brute_k_approx, brute_least_failing_length, brute_odd_ones
from .oracles import brute_omega_approx, brute_optimal_covering, expansion_prefix, padding_holds
from .streams import EnumerationScript, LeftCEApprox, real_from_ce_set

__all__ = [
    "MergeCase", "verify_beta", "verify_capped", "verify_coverfamily", "verify_diagonalize",
    "verify_hatm", "verify_merge", "verify_oddones", "verify_omega", "verify_regret",
    "verify_splice", "verify_star",
]


def _record_errors(
    rec: TraceRecord, m: LeftCEApprox, machine: PrefixMachine, source: str, *states: str
) -> list[str]:
    """What the scans find wrong with one record of a switch construction:
    its state must be one of the construction's states, every tail the
    stage's Ω by the scan, and a tracking value m's value at that stage."""
    t, v = rec.stage, rec.value
    errs = []
    if isinstance(v, TailValue):
        if v.omega_stage != t or v.omega != brute_omega_approx(machine, t):
            errs.append(f"stage {t}: {rec.state} tail is not the stage mass")
    if rec.state not in states:
        errs.append(f"stage {t}: unknown state {rec.state}")
    elif rec.state == "tracking" and v.real() != m.value(t):
        errs.append(f"stage {t}: tracking value differs from the {source}")
    return errs


Run = tuple[int, int, int | None]  # (trigger stage, witness length, release stage or None)


def _run_errors(
    m: LeftCEApprox, machine: PrefixMachine, c: int, run: Run, scan: Sequence[Run]
) -> list[str]:
    """What the scans find wrong with a run of m failing the constant: n must
    be the least failing length at the trigger stage, the length-n expansion
    must satisfy the constant at the release stage, and the run must be one
    of the scan's (`oracles.brute_failing_runs`), so it neither opens nor
    closes later than the first stage at which it could."""
    trigger, n, release = run
    errs = []
    if n != brute_least_failing_length(machine, m.value(trigger), c, trigger):
        errs.append(f"stage {trigger}: witness length {n} is not the least failing length")
    if release is not None:
        if brute_k_approx(machine, expansion_prefix(m.value(release), n), release) < n - c:
            errs.append(f"stage {release}: released while the length-{n} prefix fails")
    if not errs and run not in scan:
        until = "left open" if release is None else f"released at stage {release}"
        errs.append(f"stage {trigger}: run of length {n} {until} is not a run of the scan")
    return errs


def verify_splice(
    trace: StageTrace, r: LeftCEApprox, machine: PrefixMachine, c: int
) -> list[str]:
    errs = []
    if not trace.is_monotone():
        errs.append("trace not monotone")
    opened = False  # whether a trigger note opened a run that reaches this record
    for rec in trace.records:
        t = rec.stage
        errs += _record_errors(rec, r, machine, "input", "empty", "tracking", "spliced")
        if rec.state == "empty" and (not r.empty_at(t) or rec.value.real() != ZERO):
            errs.append(f"stage {t}: bad empty record")
        elif rec.state == "spliced":
            if not isinstance(rec.value, TailValue):
                errs.append(f"stage {t}: spliced tail is not the stage mass")
            if not opened:
                errs.append(f"stage {t}: spliced outside a run")
        opened = "trigger n=" in rec.note or (opened and rec.state == "spliced")
    scan = brute_failing_runs(r.values, r.first_stage, machine, c, trace.horizon)
    triggers = set()
    for head in trace.records:
        if "trigger n=" not in head.note:
            continue
        trigger, n = head.stage, int(head.note.rpartition("n=")[2])
        release = next(
            (rec.stage for rec in trace.records[trigger + 1 :] if rec.state != "spliced"), None
        )
        run = range(trigger + 1, trace.horizon + 1 if release is None else release)
        # a spliced value that is not a tail was reported with its record
        tails = [(s, v.prefix) for s in run if isinstance(v := trace.records[s].value, TailValue)]
        if tails:
            witness = tails[0][1]
            if witness != expansion_prefix(r.value(trigger), n):
                errs.append(
                    f"stage {trigger}: witness {witness or 'ε'} is not the input's expansion"
                )
            errs.extend(f"stage {s}: witness changed mid-run" for s, p in tails if p != witness)
        errs.extend(_run_errors(r, machine, c, (trigger, n, release), scan))
        triggers.add(trigger)
    errs.extend(f"stage {t}: the scan's run of length {n} is missing"
                for t, n, _ in scan if t not in triggers)
    return errs


def verify_hatm(
    trace: StageTrace, m: LeftCEApprox, machine: PrefixMachine, k: int, mirror: bool
) -> list[str]:
    """The boundary, the expansion and a fix are k-bit words, compared as such."""
    errs = []
    if not trace.is_monotone():
        errs.append("trace not monotone")
    degenerate = ("1" if mirror else "0") * k
    for rec in trace.records:
        t, v = rec.stage, rec.value
        boundary = expansion_prefix(brute_omega_approx(machine, t), k)
        errs += _record_errors(rec, m, machine, "input", "parked", "tracking", "undesirable")
        if rec.state == "parked":
            if boundary != degenerate:
                errs.append(f"stage {t}: parked although the boundary prefix moved")
            if not isinstance(v, TailValue) or v.prefix != ("1" if mirror else "0"):
                errs.append(f"stage {t}: parked value malformed")
        elif rec.state == "tracking":
            cur = expansion_prefix(m.value(t), k)
            if not (cur > boundary if mirror else cur < boundary):
                errs.append(f"stage {t}: tracking on the wrong side of the boundary")
        elif rec.state == "undesirable":
            if not isinstance(v, TailValue) or len(v.prefix) != k:
                errs.append(f"stage {t}: fix prefix has wrong length")
            elif not mirror and v.prefix >= boundary:
                errs.append(f"stage {t}: fix prefix not strictly below the boundary")
            # The fix prefix cannot be required to lie strictly above the boundary:
            # Ω_s only rises, and so does its k-prefix, so a prefix above the
            # boundary can fall below it later, and the violation that starts an
            # undesirable run is often exactly that.  What holds is that the fix is
            # the input's k-prefix at the stage before the run; when that stage was
            # tracking, the check above placed it strictly above that boundary.
            if mirror and t > 0 and trace.records[t - 1].state == "tracking":
                if not isinstance(v, TailValue) or v.prefix != expansion_prefix(m.value(t - 1), k):
                    errs.append(f"stage {t}: fix prefix is not the previous input prefix")
    return errs


def verify_regret(
    slots: Sequence[RegretSlot], family: EnumerationScript, machine: PrefixMachine, c: int
) -> list[str]:
    """Each slot tracks its member and is regretted as the scans say, and the
    slots' runs of each index of the family are exactly the scan's runs of
    that index, monitored from the stage of the index: no scan run's trigger
    is missing and no run is held by two slots.  The horizon is the slots'
    (the family's when there are none)."""
    errs = []
    horizon = slots[0].trace.horizon if slots else family.horizon
    members = {e: real_from_ce_set(family, e)
               for e in (*family.indices(), *(slot.source_index for slot in slots))}
    scans = {e: brute_failing_runs(m.values, m.first_stage, machine, c, horizon, start=e)
             for e, m in members.items()}
    held: dict[tuple[int, Run], int] = {}  # the first slot holding each run of an index
    opened = set()  # (index, trigger stage) of each slot
    for i, slot in enumerate(slots):
        e = slot.source_index
        m = members[e]
        run = (slot.bound_stage, slot.witness_length, slot.regret_stage)
        if (e, run) in held:
            errs.append(f"slot {i}: holds the run of slot {held[e, run]}")
        held.setdefault((e, run), i)
        opened.add((e, slot.bound_stage))
        if not slot.trace.is_monotone():
            errs.append(f"slot {i}: trace not monotone")
        found = []
        for rec in slot.trace.records:
            t, v = rec.stage, rec.value
            found += _record_errors(rec, m, machine, "member", "unbound", "tracking", "regretted")
            if rec.state == "unbound" and v.real() != ZERO:
                found.append(f"stage {t}: unbound value not 0")
            elif rec.state == "regretted":
                witness = expansion_prefix(m.value(t), slot.witness_length)
                padded = None if slot.padding is None else witness + "0" * slot.padding
                if not isinstance(v, TailValue) or v.prefix != padded:
                    found.append(f"stage {t}: regretted prefix malformed")
        found += _run_errors(m, machine, c, run, scans[e])
        errs.extend(f"slot {i} {err}" for err in found)
        if slot.regret_stage is not None:
            p = slot.padding or 0
            target = slot.witness_length + c + machine.c_tilde
            if not padding_holds(p, target):
                errs.append(f"slot {i}: padding {p} misses the target {target}")
            if any(padding_holds(q, target) for q in range(1, p)):
                errs.append(f"slot {i}: padding {p} not minimal for target {target}")
    for e in family.indices():
        errs.extend(
            f"index {e} stage {t}: the scan's run of length {n} is missing"
            for t, n, _ in scans[e]
            if (e, t) not in opened
        )
    return errs


def verify_beta(trace: StageTrace, family: Sequence[LeftCEApprox]) -> list[str]:
    """Monotone, and at the horizon the family's greatest value."""
    errs = [] if trace.is_monotone() else ["beta trace not monotone"]
    best = max(member.value(trace.horizon) for member in family)
    if trace.value_at(trace.horizon) != best:
        errs.append("beta horizon value is not the family maximum")
    return errs


def verify_star(listing: Sequence[str], snaps: Sequence[StarSnapshot]) -> list[str]:
    """Every family is an even covering, so none collides with the odd side.
    Each stage is re-derived from the listing: its covering is the scan's
    covering of the listing before sigma, the stage is good when sigma is
    longer than every member and extends none, and its case is a when that
    covering is even, else b.  A good stage's family is the covering of its
    generating family (the covering, with sigma adjoined in case b); any
    other stage keeps the family.  So a family that passes is even: case a's
    is the even covering, and case b adjoins to an odd covering a sigma
    longer than every member, which merges with none of them.  The covered
    set never shrinks, and the last family covers the listing before the
    last good stage."""
    errs = []
    if [(snap.stage, snap.sigma) for snap in snaps] != list(enumerate(listing[: len(snaps)])):
        errs.append("snapshots do not follow the listing")
    prev = covering = Antichain(())
    last_good = 0
    for snap in snaps:
        t, sigma, family = snap.stage, snap.sigma, snap.family
        good = all(len(sigma) > len(m) for m in covering) and not covering.covers(sigma)
        case = ("b" if len(covering) % 2 else "a") if good else "-"
        grown = covering if covering.covers(sigma) else brute_optimal_covering((*covering, sigma))
        if snap.covering != covering:
            errs.append(f"stage {t}: covering is not that of the listing before sigma")
        if snap.good != good:
            errs.append(f"stage {t}: good is {snap.good}, but the listing makes it {good}")
        if snap.case != case:
            errs.append(f"stage {t}: case {snap.case}, but the listing makes it {case}")
        if good:
            last_good = t
            generating = covering if case == "a" else grown
            if family != generating:
                errs.append(f"stage {t}: family is not its generating family's covering")
        elif family != prev:
            errs.append(f"stage {t}: family changed at a stage that is not good")
        if family is not prev:
            errs += [
                f"stage {t}: covered set shrank at {m or 'ε'}" for m in prev if not family.covers(m)
            ]
        prev, covering = family, grown
    for i, sigma in enumerate(listing[:last_good]):
        if not prev.covers(sigma):
            errs.append(f"listing element {i} not covered by the final snapshot")
    return errs


@lru_cache(maxsize=1 << 12)
def _measure(strings: frozenset[str]) -> Fraction:
    """The measure of the strings' cones: in lexicographic order a word comes
    after its prefixes, so keeping each word that extends no word kept before
    it keeps exactly the minimal words, whose cones are disjoint and cover the
    union; their measures 2^−|w| add."""
    kept: list[str] = []
    for w in sorted(strings):
        if not w.startswith(tuple(kept)):
            kept.append(w)
    top = max(map(len, kept), default=0)  # one common denominator 2^top for every cone
    return Fraction(sum(1 << top - len(w) for w in kept), 1 << top)


def verify_capped(
    script: EnumerationScript, n: int, replays: Mapping[int, CappedReplay]
) -> list[str]:
    """Every logged decision, re-derived from the oracle measure: the logs
    list the script's events in order, and an item is admitted exactly when
    its index refused nothing before and the admitted set with the item has
    measure ≤ 1 − 1/n.  So each index leaves a Π⁰₁ class of measure ≥ 1/n,
    and an index whose whole set fits is admitted whole."""
    events: dict[int, list[tuple[int, str]]] = {e: [] for e in script.indices()}
    for s, i, item in script.events:
        events[i].append((s, item))
    if {e: [(s, item) for s, item, _ in r.log] for e, r in replays.items()} != events:
        return ["the logs are not the script's events"]
    errs = []
    cap = Fraction(n - 1, n)
    for e, replay in replays.items():
        unconstrained = _measure(frozenset(item for _, item in events[e])) <= cap
        admitted, frozen = frozenset(), None
        for s, item, took in replay.log:
            fits = frozen is None and _measure(admitted | {item}) <= cap
            if took and frozen is not None:
                errs.append(f"frozen index {e} admitted more after stage {frozen}")
            elif took and not fits:
                errs.append(f"cap {n} broken for index {e}" if n > 1
                            else f"cap 1 admitted a string for index {e}")
            elif fits and not took:
                errs.append(f"unconstrained index {e} was modified" if unconstrained
                            else f"stage {s}: index {e} refused {item or '-'} within cap {n}")
            if took:
                admitted |= {item}
            elif frozen is None:
                frozen = s
    return list(dict.fromkeys(errs))  # each finding once


def _meets(tree: Tree, tau: str, depth: int) -> bool:
    """Whether a depth-D node extends tau: no exit is a prefix of tau, and the
    exits extending it, with disjoint cones, leave part of its cone uncovered."""
    cut = 0
    for x in tree.exits:
        if tau.startswith(x):
            return False
        if x.startswith(tau) and len(x) <= depth:
            cut += 1 << depth - len(x)
    return len(tau) <= depth and cut < 1 << depth - len(tau)


def verify_diagonalize(
    trees: Sequence[Tree], depth: int, taus: Sequence[str], combined: Tree
) -> list[str]:
    """The result contains the base tree and meets every graft cone [τ_n] in
    a depth-D path, while tree n misses it: judged from the trees' exits."""
    errs = [] if len(taus) == len(trees) else [f"{len(taus)} graft targets for {len(trees)} trees"]
    base = trees[0].exits
    if not all(any(x[:i] in base for i in range(len(x) + 1)) for x in combined.exits):
        errs.append("result does not contain the base tree")
    for n, (tree, tau) in enumerate(zip(trees, taus)):
        if not _meets(combined, tau, depth):
            errs.append(f"no combined path through graft {n}")
        if _meets(tree, tau, depth):
            errs.append(f"tree {n} still meets its graft cone")
    return errs


def verify_omega(machine: PrefixMachine, values: Sequence[Dyadic]) -> list[str]:
    """The value listed for each stage s is Ω_s by the scan."""
    errs = []
    for s, value in enumerate(values):
        if value != (mass := brute_omega_approx(machine, s)):
            errs.append(f"stage {s}: omega {value.render()} is not the halted mass {mass.render()}")
    return errs


def verify_oddones(strings: Sequence[str]) -> list[str]:
    """The listing is length-lexicographically increasing, so injective, each
    string ends in 1 with an odd number of 1s, and the i-th string is the
    i-th of the filtered listing."""
    errs = []
    prev_key = (-1, "")
    for s in strings:
        key, shown = (len(s), s), s or "ε"
        if key == prev_key:
            errs.append(f"odd-ones listing repeats {shown}")
        if not s.endswith("1") or s.count("1") % 2 == 0:
            errs.append(f"odd-ones listing emitted {shown}")
        if key <= prev_key:
            errs.append(f"odd-ones listing out of order at {shown}")
        prev_key = key
    wanted = brute_odd_ones((len(strings) - 1).bit_length() + 1)  # 2^(L−1) strings of length ≤ L
    for i, (s, want) in enumerate(zip(strings, wanted)):
        if s != want:
            errs.append(f"odd-ones listing gives {s or 'ε'} at {i}, not {want}")
    return errs


def verify_coverfamily(families: Sequence[Antichain], odd: bool) -> list[str]:
    """Each family has the parity, is its own covering by the scan, and is new."""
    errs = []
    parity, other = ("odd", "even") if odd else ("even", "odd")
    seen: set[Antichain] = set()
    for a in families:
        if len(a) % 2 != odd:
            errs.append(f"{other} antichain {a.render()} in the {parity} family")
        if brute_optimal_covering(a.members) != a:
            errs.append(f"{a.render()} is not its own covering")
        if a in seen:
            errs.append(f"family repeats {a.render()}")
        seen.add(a)
    return errs


@dataclass(frozen=True)
class MergeCase:
    """A merge input: the scripted side, the listing ``l1``, the extensions
    of a content (``picker``), the tags that mark the injective side's sets,
    and the horizon."""

    script: EnumerationScript
    l1: Sequence[frozenset]
    picker: Callable[[frozenset], Iterable[frozenset]]
    tags: frozenset
    horizon: int


def _settled_sets(script: EnumerationScript, stage: int) -> list[frozenset]:
    """The replayed stage-s set of every index, by increasing index, read in
    one pass over the events; an index whose events all come later has the
    empty set."""
    if script.events and not 0 <= stage <= script.horizon:
        raise RangeError(f"stage {stage} outside [0, {script.horizon}]")
    sets: dict[int, set] = {}
    for ev in script.events:
        items = sets.setdefault(ev.index, set())
        if ev.stage <= stage:
            items.add(ev.item)
    return [frozenset(sets[i]) for i in sorted(sets)]


def verify_merge(out: EnumerationScript, case: MergeCase) -> list[str]:
    """The Friedberg property of the settled output: no set repeats, every
    scripted set appears, and every other one is from the injective side."""
    errs = []
    outputs = _settled_sets(out, case.horizon)
    output_set = set(outputs)
    if len(output_set) != len(outputs):
        errs.append("settled output sets repeat")
    l2_settled = set(_settled_sets(case.script, case.horizon))
    for value in l2_settled:
        if value not in output_set:
            errs.append(f"scripted set of size {len(value)} omitted")
    for value in outputs:
        tagged = any(item in case.tags for item in value)
        if not tagged and value not in l2_settled:
            errs.append("output set neither scripted nor from the injective side")
    return errs
