"""Stage-based constructions on left-c.e. approximations.

Each construction replays a deterministic state machine over scripted
inputs and emits one record per stage, the record's stage being its index
in the trace.  A trace value is either a plain `Dyadic` or a tail: a
bit-string prefix σ standing for the real σ·Ω_s, where Ω_s is the mass the
trace's machine has halted by the record's stage s.  The construction picks
σ and the stage fixes Ω_s, so a tail stores only σ; it renders at stage s as
``σ*Ω@s``, and one record serves every stage of a run that keeps σ.

Splice and regret wait for the same event: an approximation failing the
randomness constant at its least witness length n, and later that length-n
prefix satisfying it again.  `_failing_runs` is the one detector of these
runs that both read.  It works per value of the approximation, not per
stage: while the value stays the same, each length of its expansion fails
from one first stage on (`complexity.failing_stages`), so a run opens at a
computed stage and can close only where the value changes.  Its cost
follows the value changes and the output lengths, not the horizon.
`hat_m_construction` keeps its own loop, because its switch is a comparison
with the Ω_s boundary, not a failure of the constant.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Sequence

from .complexity import (
    PrefixMachine,
    compute_padding,
    failing_stages,
    omega_approx,
    satisfies_constant,
)
from .dyadic import ZERO, Dyadic
from .errors import (
    CapacityError,
    ContractViolationError,
    DomainError,
    InputError,
    PreconditionError,
)
from .streams import EnumerationScript, LeftCEApprox, approx_string, real_from_ce_set

__all__ = [
    "RegretSlot",
    "StageTrace",
    "TraceRecord",
    "beta_max",
    "hat_m_construction",
    "odd_ones_real_enumeration",
    "regret_construction",
    "splice_random",
]


class TraceRecord(NamedTuple):
    """One stage of a trace, at its index in the trace: what the construction
    decided there, a plain value or a tail prefix.  A named tuple, so it
    equals the plain tuple (state, value)."""

    state: str
    value: Dyadic | str

    def render(self, stage: int) -> str:
        """The value as printed at its stage, a tail σ as ``σ*Ω@s``."""
        v = self.value
        return f"{v or '-'}*Ω@{stage}" if isinstance(v, str) else v.render()


class StageTrace(NamedTuple):
    """One record per stage from 0 up to the horizon, and the machine whose
    halting mass Ω_s follows the tails (None when there are none)."""

    records: tuple[TraceRecord, ...]
    machine: PrefixMachine | None = None

    @property
    def horizon(self) -> int:
        return len(self.records) - 1

    def value_at(self, stage: int) -> Dyadic:
        v = self.records[stage].value
        return omega_approx(self.machine, stage).in_cone(v) if isinstance(v, str) else v

    def is_monotone(self) -> bool:
        vals = [self.value_at(s) for s in range(len(self.records))]
        return all(a <= b for a, b in zip(vals, vals[1:]))

    def render_lines(self) -> list[str]:
        return [f"{s}\t{rec.state}\t{rec.render(s)}" for s, rec in enumerate(self.records)]


def _require_strict_mass(machine: PrefixMachine) -> None:
    if not machine.strict_kraft:
        raise PreconditionError(
            "halting mass must stay below 1 to use its tail as a splice source"
        )


def _failing_runs(
    r: LeftCEApprox, machine: PrefixMachine, c: int, horizon: int, start: int = 0
) -> list[tuple[int, int, int | None]]:
    """(trigger stage, witness length n, release stage or None) of each run in
    which r fails the constant, monitored from the start stage: the least
    failing length n ≤ t of a nonempty r's stage-t expansion opens a run, and
    the first later stage whose length-n expansion satisfies the constant
    releases it and monitors r again.

    The work is per interval of stages on which r keeps one value x, not per
    stage.  The n-prefix of x's expansion does not depend on the stage and
    K_t never increases, so each length n has one first failing stage s_n ≥ n
    (`complexity.failing_stages`) and fails at every stage from s_n on.
    Monitored from the first stage a of an interval that ends before stage
    b, r first fails at T = max(a, min s_n), and the least n with s_n ≤ T is
    the witness; the run opens if T < b.  While the value stays x the
    witness prefix keeps failing, so a run can close only at the first stage
    of a later interval, when the new value's length-n expansion satisfies
    the constant there; monitoring starts again at that same stage.
    `oracles.brute_failing_runs` is the stage-by-stage loop, kept as the
    reference."""
    runs: list[tuple[int, int, int | None]] = []
    if r.first_stage is None:
        return runs
    # the first stage of each interval on which r keeps one value, and that value
    starts: list[int] = []
    values: list[Dyadic] = []
    a = max(start, r.first_stage)
    for x, group in itertools.groupby(r.values[a : horizon + 1]):
        starts.append(a)
        values.append(x)
        a += len(list(group))
    trigger, n = 0, None
    for a, end, x in zip(starts, starts[1:] + [horizon + 1], values):
        if n is not None:
            if not satisfies_constant(machine, approx_string(x, n), c, a):
                continue
            runs.append((trigger, n, a))
        fails = dict(failing_stages(machine, x, c))
        trigger = max(a, min(fails.values(), default=end))
        n = next((m for m, s in fails.items() if s <= trigger < end), None)
    if n is not None:
        runs.append((trigger, n, None))
    return runs


def splice_random(
    r: LeftCEApprox, machine: PrefixMachine, c: int, horizon: int
) -> StageTrace:
    """Track r, splicing the halting-mass tail onto a failing prefix.

    While tracking, every length n ≤ t of the current associated string is
    monitored; the least failing n wins.  From the next stage the value is
    that witness followed by the stage tail, until the current length-n
    string satisfies the constant again, at which point tracking resumes at
    the current stage.
    """
    if c < 0:
        raise DomainError("the constant must be ≥ 0")
    if r.horizon < horizon:
        raise InputError("approximation shorter than the requested horizon")
    _require_strict_mass(machine)

    records = [
        TraceRecord("empty", ZERO) if r.empty_at(t) else TraceRecord("tracking", r.value(t))
        for t in range(horizon + 1)
    ]
    for trigger, n, release in _failing_runs(r, machine, c, horizon):
        spliced = TraceRecord("spliced", approx_string(r.value(trigger), n))
        end = horizon + 1 if release is None else release
        records[trigger + 1 : end] = [spliced] * (end - trigger - 1)
    return StageTrace(tuple(records), machine)


def hat_m_construction(
    m: LeftCEApprox,
    machine: PrefixMachine,
    k: int,
    horizon: int,
    mirror: bool = False,
) -> StageTrace:
    """Keep the trace on the desired side of the length-k mass boundary.

    While the boundary's k-prefix is degenerate (all zeroes; all ones in
    mirror mode) the value is parked at 0 (resp. 1) followed by the tail.
    Afterwards the input is tracked while its k-prefix stays strictly on
    the desired side; on a violation at stage s the value becomes the
    previous stage's k-prefix followed by the tail, until desirable again.
    """
    if k < 0:
        raise DomainError("the boundary length must be ≥ 0")
    if m.horizon < horizon:
        raise InputError("approximation shorter than the requested horizon")
    _require_strict_mass(machine)

    parked_record = TraceRecord("parked", "1" if mirror else "0")
    degenerate = parked_record.value * k

    records: list[TraceRecord] = []
    parked = True
    fix: TraceRecord | None = None  # the undesirable record of the current run
    prev_prefix: str | None = None
    for s in range(horizon + 1):
        boundary = approx_string(omega_approx(machine, s), k)
        if parked:
            if boundary == degenerate:
                records.append(parked_record)
                prev_prefix = approx_string(m.value(s), k)
                continue
            parked = False
        cur = approx_string(m.value(s), k)
        # both words are k bits long, so the string order is the order of the values
        if (cur > boundary) if mirror else (cur < boundary):
            fix = None
            records.append(TraceRecord("tracking", m.value(s)))
        else:
            if fix is None:
                prefix = prev_prefix if prev_prefix is not None else approx_string(m.value(0), k)
                fix = TraceRecord("undesirable", prefix)
            records.append(fix)
        prev_prefix = cur
    return StageTrace(tuple(records), machine)


class RegretSlot(NamedTuple):
    """One output slot of the regret construction, with its binding history."""

    trace: StageTrace
    source_index: int
    witness_length: int
    bound_stage: int
    regret_stage: int | None
    padding: int | None


def regret_construction(
    family: EnumerationScript,
    machine: PrefixMachine,
    c: int,
    horizon: int,
    max_slots: int | None = None,
) -> list[RegretSlot]:
    """Assign output slots to family members caught failing the constant.

    At stage t every unbound index e ≤ t is scanned over lengths n ≤ t;
    the least failing length binds the next slot, which then tracks the
    member.  If the witness length later satisfies the constant, the slot
    is regretted: from that stage on it carries the current length-n prefix
    extended by a padding block of zeroes and the halting-mass tail, and
    never rebinds.  The member itself becomes eligible for fresh slots.  A
    regretted record is built once per value of the member, not per stage.
    """
    if c < 0:
        raise DomainError("the constant must be ≥ 0")
    _require_strict_mass(machine)
    if family.horizon < horizon:
        raise InputError("family script shorter than the requested horizon")
    approxes = {e: real_from_ce_set(family, e) for e in family.indices()}
    runs = sorted(
        (trigger, e, n, release)
        for e, m in approxes.items()
        for trigger, n, release in _failing_runs(m, machine, c, horizon, start=e)
    )
    if max_slots is not None and len(runs) > max_slots:
        raise CapacityError(
            f"all {max_slots} slots in use at stage {runs[max_slots][0]} (horizon too small)"
        )
    slots = []
    for bound, e, n, regret in runs:
        m = approxes[e]
        padding = None if regret is None else compute_padding(n, c + machine.c_tilde)
        records = [TraceRecord("unbound", ZERO)] * bound
        built = regretted = None  # the value whose regretted record is built, and that record
        for t in range(bound, horizon + 1):
            x = m.value(t)
            if regret is None or t < regret:
                records.append(TraceRecord("tracking", x))
            else:
                if x != built:
                    prefix = approx_string(x, n) + "0" * padding
                    built, regretted = x, TraceRecord("regretted", prefix)
                records.append(regretted)
        slots.append(RegretSlot(StageTrace(tuple(records), machine), e, n, bound, regret, padding))
    return slots


def odd_ones_real_enumeration(i: int) -> str:
    """The i-th string, in length-lexicographic order, ending in 1 with an
    odd number of 1s; its zero-padded extension has odd finitely many 1s.

    Index 0 is 1.  The length-n strings (n ≥ 2) are the (n−1)-bit words with
    an even number of 1s followed by 1; there are 2^(n−2) of them, at the
    indices i with n = bitlen(i) + 1.  For j = i − 2^(n−2), exactly one of
    the words 2j and 2j + 1 has an even number of 1s, namely
    2j + popcount(j) mod 2, and it is the j-th such word.
    """
    if i < 0:
        raise DomainError("index must be ≥ 0")
    if i == 0:
        return "1"
    n = i.bit_length() + 1
    j = i - (1 << (n - 2))
    return format(2 * j + j.bit_count() % 2, "b").zfill(n - 1) + "1"


Keys = frozenset[int]  # a set of words, by their keys (`dyadic.word_key`)


def merge_rows(
    listing: Iterable[Keys],
    events: Sequence[tuple[int, int, Sequence[int]]],
    extensions: Callable[[Keys], Iterable[Keys]],
    horizon: int,
) -> list[tuple[int, int, tuple[int, ...]]]:
    """Merge an injective set listing with a scripted family, repeats
    removed, over words as integer keys (`dyadic.word_key`), whose own order
    is the length-lexicographic one.

    The scripted side arrives as stage-sorted blocks (stage, index, keys),
    each a nonempty sequence of integer keys; the result is the row blocks
    (stage, slot, keys), none empty, in emission order, which is stage order.
    A delivery's row holds the keys its index lacked, in block order without
    repeats; a spawned or diverted set's row is sorted.  The listing is any
    iterable of distinct sets, read on demand: each stage emits, on a new
    slot, the next member not yet used.  ``extensions(content)`` yields
    candidate sets in order, each containing the content; a diversion takes
    the first one not yet used, and at most len(used) + horizon + 2
    candidates are read before the merge gives up.

    Each script index j is followed by a slot, and an active follower's slot
    always holds exactly current[j], the set j shows so far: the slot is
    copied from it at spawn, and each delivery adds the new keys to both.  So
    a follower exists only while no other active follower shows the same set.
    Converging followers lose the larger index, whose slot is permanently
    diverted to an unused extension of its set, and the index respawns on a
    new slot once its set again matches no active follower.  On inputs whose
    tracked sets settle by the horizon, the settled output sets are exactly
    the used listing members plus the scripted sets, with no repeats.

    Each index carries the signature (size, sum of key hashes) of its set,
    kept on every delivery, and `groups` maps a signature to the active
    followers that carry it.  Two sets are equal only if their signatures
    are, so steps 2 and 3 look for a twin of j only in j's group, where each
    candidate is still compared with ==.  Step 2 scans the indices without a
    follower, and step 3 only the groups of the followers delivered to in
    step 1: the active sets are distinct after stage s − 1, and step 2 spawns
    only sets distinct from them, so every converging pair holds such a
    follower and lies in its group.  So both steps take the decisions of a
    scan over every index and every active follower, and as no decision
    depends on the order within a group, the rows do not depend on the hash
    seed.

    A stage s ≥ 1 that delivers no block runs step 4 alone, because steps
    1–3 would change nothing there.  Step 1 has nothing to deliver, and step
    3 reads only the groups step 1 touched.  After step 2 of stage s − 1,
    every index without a follower shows an active follower's set, or it
    would have spawned; step 3 then diverts followers only in favour of the
    least index of their set, which stays active.  So every index without a
    follower still shows an active follower's set, no set has changed since,
    and step 2 spawns nothing.  Stage 0 always runs steps 1–3, as its step 2
    spawns the first followers of the empty sets.  `oracles.brute_merge_rows`
    is the same loop one word at a time, running every step at every
    stage."""
    if horizon < 0:
        raise InputError("horizon must be ≥ 0")
    current: dict[int, set[int]] = {index: set() for _, index, _ in events}
    signature: dict[int, tuple[int, int]] = dict.fromkeys(current, (0, 0))
    groups: dict[tuple[int, int], list[int]] = {}
    active: dict[int, int] = {}  # index -> slot id
    slots = 0
    rows: list[tuple[int, int, tuple[int, ...]]] = []
    used: set[Keys] = set()
    listed: set[Keys] = set()
    listing = iter(listing)

    def emit(slot: int, stage: int, items: set[int] | Keys) -> None:
        if items:
            rows.append((stage, slot, tuple(sorted(items))))

    def new_slot(stage: int, content: set[int] | Keys) -> int:
        nonlocal slots
        emit(slots, stage, content)
        slots += 1
        return slots - 1

    def pick_fresh(content: Keys, stage: int) -> Keys:
        for value in itertools.islice(extensions(content), len(used) + horizon + 2):
            if not content <= value:
                raise ContractViolationError(
                    f"extension at stage {stage} does not contain the slot content"
                )
            if value not in used:
                return value
        raise ContractViolationError(
            f"no unused extension of a {len(content)}-string set at stage {stage}"
        )

    pos = 0
    for s in range(horizon + 1):
        # a later stage that delivers no block changes nothing in steps 1–3
        if s == 0 or pos < len(events) and events[pos][0] == s:
            # 1. deliver this stage's blocks, to the follower's slot too
            touched: set[tuple[int, int]] = set()  # signatures of the followers delivered to
            while pos < len(events) and events[pos][0] == s:
                _, index, items = events[pos]
                pos += 1
                if not all(map(isinstance, items, itertools.repeat(int))):
                    raise InputError(f"index {index} carries a non-string item at stage {s}")
                have, size = current[index], len(current[index])
                new = tuple(items if have.isdisjoint(items) else (x for x in items if x not in have))
                have.update(new)
                if len(have) - size < len(new):  # the block repeats an item
                    new = tuple(dict.fromkeys(new))
                old = signature[index]
                signature[index] = (len(have), old[1] + sum(map(hash, new)))
                if index in active and new:
                    groups[old].remove(index)
                    groups.setdefault(signature[index], []).append(index)
                    touched.add(signature[index])
                    rows.append((s, active[index], new))
            # 2. spawn followers for indices whose set matches no active follower
            for j in sorted(current.keys() - active.keys()):
                if all(current[j] != current[j2] for j2 in groups.get(signature[j], ())):
                    active[j] = new_slot(s, current[j])
                    groups.setdefault(signature[j], []).append(j)
            # 3. divert the larger index of any converging follower pair
            for j in sorted({j for sig in touched for j in groups[sig]}):
                if any(j2 < j and current[j2] == current[j] for j2 in groups[signature[j]]):
                    groups[signature[j]].remove(j)
                    sid = active.pop(j)
                    content = frozenset(current[j])
                    value = pick_fresh(content, s)
                    used.add(value)
                    emit(sid, s, value - content)
        # 4. emit the next unused listing member
        for value in listing:
            if value in listed:
                raise ContractViolationError("listing generator repeated a member")
            listed.add(value)
            if value not in used:
                used.add(value)
                new_slot(s, value)
                break
    return rows


def beta_max(family: Sequence[LeftCEApprox], horizon: int) -> StageTrace:
    """Stage-s maximum over the members with index ≤ s; monotone because the
    members are and the index window only grows."""
    if not family:
        raise InputError("the family must be nonempty")
    for a in family:
        if a.horizon < horizon:
            raise InputError("family member shorter than the requested horizon")
    return StageTrace(tuple(
        TraceRecord("max", max(a.value(s) for a in family[: s + 1])) for s in range(horizon + 1)
    ))
