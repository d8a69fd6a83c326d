"""The safety verifiers of the `run` constructions and of the merge.

Each returns the violations it finds in a result, none for a safe run.  K_t,
Ω_s, least failing lengths, failing runs, k-bit expansions, coverings and
measures come from the scans in `oracles`, never from the machine's stage
index or the constructions' own.  Where the scans decide a result, its
verifier re-derives it and compares: `verify_splice` builds the trace the
scan of the input's failing runs implies, `verify_regret` the slots, in the
sorted order of every index's scan runs, and their traces,
`verify_star` and `verify_capped` each stage and decision, and
`verify_diagonalize` each graft target, from the trees' exits.  A record's
stage is its index and a tail holds only its prefix, so no stored stage or
mass is compared; monotonicity reads each tail with the scan's Ω_s.  A
finding names its stage, slot or graft and shows both sides, so a run that
opens or closes late, is missing or is held twice is a finding.
`verify_hatm` keeps property checks: its switch rule is not settled, a fix
prefix after a parked stage is never compared with the boundary, and a
trace re-derived by that rule would accept the fault that `fix prefix not
strictly below the boundary` reports.

The `run` entry X binds `verify_X` as its check, for X in splice, hatm,
regret, beta, star, capped, diagonalize, omega, oddones and coverfamily;
`verify_merge` checks the merge cases of `check constructions`, and the
merge entry and the two recipes bind none yet (see `runs`).  The `check`
suites and the tests call these verifiers rather than restate them.

A hygiene test holds the imports from the package to the value and record
types, `PrefixMachine`, `oracles`, `errors` and the script replay
(`EnumerationScript`, `LeftCEApprox`, `real_from_ce_set`): the replay reads
the same input the builder read and is not what is verified.  The merge's
settled sets are read in one pass over each script's events.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .classes import CappedReplay, Tree
from .complexity import PrefixMachine
from .constructions import RegretSlot, StageTrace, TraceRecord
from .coverings import StarSnapshot
from .dyadic import ZERO, Antichain, Dyadic
from .errors import InputError
from .oracles import brute_failing_runs, brute_odd_ones, brute_omega_approx, brute_optimal_covering
from .oracles import expansion_prefix, padding_holds
from .streams import EnumerationScript, LeftCEApprox, real_from_ce_set

__all__ = [
    "MergeCase", "verify_beta", "verify_capped", "verify_coverfamily", "verify_diagonalize",
    "verify_hatm", "verify_merge", "verify_oddones", "verify_omega", "verify_regret",
    "verify_splice", "verify_star",
]


def _show(rec: TraceRecord | None, t: int) -> str:
    """The stage-t record's state and value, as `run` prints them."""
    return "no record" if rec is None else f"{rec.state} {rec.render(t)}"


def _monotone(trace: StageTrace, machine: PrefixMachine) -> bool:
    """Whether no value falls, a stage-t tail σ read as σ·Ω_t by the scan."""
    values = [brute_omega_approx(machine, t).in_cone(v) if isinstance(v, str) else v
              for t, (_, v) in enumerate(trace.records)]
    return all(a <= b for a, b in zip(values, values[1:]))


def _record_diffs(records: Sequence[TraceRecord], derived: Sequence[TraceRecord]) -> list[str]:
    """Each stage whose record is not the one the scans derive, with both."""
    return [
        f"stage {t}: {_show(got, t)}, but the scans give {_show(want, t)}"
        for t, (got, want) in enumerate(itertools.zip_longest(records, derived))
        if got != want
    ]


def verify_splice(
    trace: StageTrace, r: LeftCEApprox, machine: PrefixMachine, c: int
) -> list[str]:
    """The trace the scan of r's failing runs implies, record by record: a
    stage strictly inside a run is spliced, the tail of the input's expansion
    at the trigger; any other stage is empty or tracks r."""
    errs = [] if _monotone(trace, machine) else ["trace not monotone"]
    derived = [
        TraceRecord("empty", ZERO) if r.empty_at(t) else TraceRecord("tracking", r.value(t))
        for t in range(trace.horizon + 1)
    ]
    scan = brute_failing_runs(r.values, r.first_stage, machine, c, trace.horizon)
    for trigger, n, release in scan:
        spliced = TraceRecord("spliced", expansion_prefix(r.value(trigger), n))
        for s in range(trigger + 1, trace.horizon + 1 if release is None else release):
            derived[s] = spliced
    return errs + _record_diffs(trace.records, derived)


def verify_hatm(
    trace: StageTrace, m: LeftCEApprox, machine: PrefixMachine, k: int, mirror: bool
) -> list[str]:
    """The boundary, the expansion and a fix are k-bit words, compared as such."""
    errs = [] if _monotone(trace, machine) else ["trace not monotone"]
    degenerate = ("1" if mirror else "0") * k
    for t, (state, v) in enumerate(trace.records):
        boundary = expansion_prefix(brute_omega_approx(machine, t), k)
        if state == "parked":
            if boundary != degenerate:
                errs.append(f"stage {t}: parked although the boundary prefix moved")
            if v != ("1" if mirror else "0"):
                errs.append(f"stage {t}: parked value malformed")
        elif state == "tracking":
            if v != m.value(t):
                errs.append(f"stage {t}: tracking value differs from the input")
            cur = expansion_prefix(m.value(t), k)
            if not (cur > boundary if mirror else cur < boundary):
                errs.append(f"stage {t}: tracking on the wrong side of the boundary")
        elif state == "undesirable":
            if not isinstance(v, str) or len(v) != k:
                errs.append(f"stage {t}: fix prefix has wrong length")
            elif not mirror and v >= boundary:
                errs.append(f"stage {t}: fix prefix not strictly below the boundary")
            # The fix prefix cannot be required to lie strictly above the boundary:
            # Ω_s only rises, and so does its k-prefix, so a prefix above the
            # boundary can fall below it later, and the violation that starts an
            # undesirable run is often exactly that.  What holds is that the fix is
            # the input's k-prefix at the stage before the run; when that stage was
            # tracking, the check above placed it strictly above that boundary.
            if mirror and t > 0 and trace.records[t - 1].state == "tracking":
                if v != expansion_prefix(m.value(t - 1), k):
                    errs.append(f"stage {t}: fix prefix is not the previous input prefix")
        else:
            errs.append(f"stage {t}: unknown state {state}")
    return errs


def _show_run(run: tuple[int, int, int, int | None] | None) -> str:
    """A regret slot's run as `run regret` prints it."""
    if run is None:
        return "no slot"
    bound, e, n, regret = run
    return f"e={e} n={n} bound@{bound}" + ("" if regret is None else f" regret@{regret}")


def verify_regret(
    slots: Sequence[RegretSlot], family: EnumerationScript, machine: PrefixMachine, c: int
) -> list[str]:
    """The slots the scans imply.  Slot i holds the i-th of the sorted scan
    runs (bound stage, index, witness length, regret stage) of every index
    of the family, each monitored from the stage of its index, so no run is
    missing, late or held twice.  A regretted slot's padding is the least p
    for which `padding_holds`, and each slot's trace is re-derived from its
    run: unbound is 0, then it tracks its member, and from the regret stage
    on it holds the tail of the member's padded expansion.
    The horizon is the slots' (the family's when there are none)."""
    horizon = slots[0].trace.horizon if slots else family.horizon
    members = {e: real_from_ce_set(family, e)
               for e in (*family.indices(), *(slot.source_index for slot in slots))}
    scanned = sorted(
        (trigger, e, n, release)
        for e in family.indices()
        for trigger, n, release in brute_failing_runs(
            members[e].values, members[e].first_stage, machine, c, horizon, start=e
        )
    )
    held = [(s.bound_stage, s.source_index, s.witness_length, s.regret_stage) for s in slots]
    errs = [
        f"slot {i}: {_show_run(got)}, but the scans give {_show_run(want)}"
        for i, (got, want) in enumerate(itertools.zip_longest(held, scanned))
        if got != want
    ]
    for i, (slot, (bound, e, n, regret)) in enumerate(zip(slots, held)):
        m = members[e]
        target = n + c + machine.c_tilde
        padding = None if regret is None else next(
            p for p in itertools.count(1) if padding_holds(p, target)
        )
        if slot.padding != padding:
            errs.append(f"slot {i}: padding {slot.padding}, but the least for target {target}"
                        f" is {padding}")
        if not _monotone(slot.trace, machine):
            errs.append(f"slot {i}: trace not monotone")
        derived = []
        for t in range(horizon + 1):
            if t < bound:
                derived.append(TraceRecord("unbound", ZERO))
            elif regret is None or t < regret:
                derived.append(TraceRecord("tracking", m.value(t)))
            else:
                prefix = expansion_prefix(m.value(t), n) + "0" * padding
                derived.append(TraceRecord("regretted", prefix))
        errs += [f"slot {i} {err}" for err in _record_diffs(slot.trace.records, derived)]
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
    Snapshot t examines listing element t, sigma, so there are no more
    snapshots than elements, and each is re-derived from the listing: the
    covering is the scan's covering of the listing before sigma, the stage
    is good when sigma is longer than every member and extends none, and its
    case is a when that covering is even, else b.  A good stage's family is
    the covering of its generating family (the covering, with sigma adjoined
    in case b); any other stage keeps the family.  So a family that passes is
    even: case a's is the even covering, and case b adjoins to an odd
    covering a sigma longer than every member, which merges with none of
    them.  The covered set never shrinks, and the last family covers the
    listing before the last good stage."""
    errs = [] if len(snaps) <= len(listing) else ["snapshots do not follow the listing"]
    prev = covering = Antichain(())
    last_good = 0
    for t, (sigma, snap) in enumerate(zip(listing, snaps)):
        family = snap.family
        good = all(len(sigma) > len(m) for m in covering) and not covering.covers(sigma)
        case = ("b" if len(covering) % 2 else "a") if good else "-"
        grown = covering if covering.covers(sigma) else brute_optimal_covering((*covering, sigma))
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
def _measure(strings: frozenset[str]) -> Dyadic:
    """The measure of the strings' cones: in lexicographic order a word comes
    after its prefixes, so keeping each word that extends no word kept before
    it keeps exactly the minimal words, whose cones are disjoint and cover the
    union; their measures 2^−|w| add."""
    kept: list[str] = []
    for w in sorted(strings):
        if not w.startswith(tuple(kept)):
            kept.append(w)
    top = max(map(len, kept), default=0)  # one common denominator 2^top for every cone
    return Dyadic(sum(1 << top - len(w) for w in kept), top)


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

    def within_cap(strings: frozenset[str]) -> bool:  # measure ≤ (n − 1)/n, in integers
        measure = _measure(strings)
        return n * measure.num <= (n - 1) << measure.exp

    for e, replay in replays.items():
        unconstrained = within_cap(frozenset(item for _, item in events[e]))
        admitted, frozen = frozenset(), None
        for s, item, took in replay.log:
            fits = frozen is None and within_cap(admitted | {item})
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


def _dead_ends(tree: Tree) -> list[str]:
    """The parents of two sibling exits, length-lexicographically."""
    ends = {x[:-1] for x in tree.exits if x[-1:] == "1" and x[:-1] + "0" in tree.exits}
    return sorted(ends, key=lambda w: (len(w), w))


def verify_diagonalize(
    trees: Sequence[Tree], depth: int, taus: Sequence[str], combined: Tree
) -> list[str]:
    """Each target τ_n is the length-lexicographically least of σ_n, the n-th
    dead end of the base tree, if it extends a dead end of tree n, and the
    dead ends of tree n that extend σ_n.  The result contains the base tree
    and meets every graft cone [τ_n] in a depth-D path, while tree n misses
    it.  All is judged from the trees' exits."""
    errs = [] if len(taus) == len(trees) else [f"{len(taus)} graft targets for {len(trees)} trees"]
    base = trees[0].exits
    if not all(any(x[:i] in base for i in range(len(x) + 1)) for x in combined.exits):
        errs.append("result does not contain the base tree")
    sigmas = _dead_ends(trees[0])
    for n, (tree, tau) in enumerate(zip(trees, taus)):
        sigma = sigmas[n] if n < len(sigmas) else None
        # in this order a dead end that σ_n extends comes before those extending σ_n
        want = next((max(d, sigma, key=len) for d in _dead_ends(tree) if sigma is not None
                     and (d.startswith(sigma) or sigma.startswith(d))), None)
        if tau != want:
            shown = "none" if want is None else want or "-"
            errs.append(f"graft {n}: {tau or '-'}, but the trees give {shown}")
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


class MergeCase(NamedTuple):
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
        raise InputError(f"stage {stage} outside [0, {script.horizon}]")
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
