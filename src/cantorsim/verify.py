"""The safety verifiers of the `run` constructions and of the merge.

Each returns the violations it finds in a result, none for a safe run.  K_t,
Ω_s, least failing lengths and k-bit expansions come from the scans in
`oracles`, never from the machine's stage index or the constructions' own.

A hygiene test holds the imports from the package to the value and record
types, `PrefixMachine`, `oracles`, `errors` and the script replay
(`EnumerationScript`, `LeftCEApprox`, `real_from_ce_set`, `stage_set`): the
replay reads the same input the builder read and is not what is verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .complexity import PrefixMachine
from .constructions import RegretSlot, StageTrace, TailValue, TraceRecord
from .dyadic import ZERO, BitString
from .oracles import brute_k_approx, brute_least_failing_length, brute_omega_approx
from .oracles import expansion_prefix, padding_holds
from .streams import EnumerationScript, LeftCEApprox, real_from_ce_set, stage_set

__all__ = [
    "MergeCase", "verify_beta", "verify_hatm", "verify_merge", "verify_regret", "verify_splice"
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


def _run_errors(
    m: LeftCEApprox, machine: PrefixMachine, c: int, trigger: int, n: int, release: int | None
) -> list[str]:
    """What the scans find wrong with a run of m failing the constant: n must
    be the least failing length at the trigger stage, and the length-n
    expansion must satisfy the constant at the release stage."""
    errs = []
    if n != brute_least_failing_length(machine, m.value(trigger), c, trigger):
        errs.append(f"stage {trigger}: witness length {n} is not the least failing length")
    if release is not None:
        if brute_k_approx(machine, expansion_prefix(m.value(release), n), release) < n - c:
            errs.append(f"stage {release}: released while the length-{n} prefix fails")
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
    for head in trace.records:
        if "trigger n=" not in head.note:
            continue
        trigger, n = head.stage, int(head.note.rpartition("n=")[2])
        release = next(
            (rec.stage for rec in trace.records[trigger + 1 :] if rec.state != "spliced"), None
        )
        run = range(trigger + 1, trace.horizon + 1 if release is None else release)
        if run:
            witness = trace.records[run[0]].value.prefix  # type: ignore[union-attr]
            if witness != expansion_prefix(r.value(trigger), n):
                errs.append(f"stage {trigger}: witness {witness} is not the input's expansion")
            for s in run:
                if trace.records[s].value.prefix != witness:  # type: ignore[union-attr]
                    errs.append(f"stage {s}: witness changed mid-run")
        errs.extend(_run_errors(r, machine, c, trigger, n, release))
    return errs


def verify_hatm(
    trace: StageTrace,
    m: LeftCEApprox,
    machine: PrefixMachine,
    k: int,
    mirror: bool,
) -> list[str]:
    """The boundary, the expansion and a fix are k-bit words, compared as such."""
    errs = []
    if not trace.is_monotone():
        errs.append("trace not monotone")
    degenerate = ("1" if mirror else "0") * k
    for rec in trace.records:
        t, v = rec.stage, rec.value
        boundary = expansion_prefix(brute_omega_approx(machine, t), k).bits
        errs += _record_errors(rec, m, machine, "input", "parked", "tracking", "undesirable")
        if rec.state == "parked":
            if boundary != degenerate:
                errs.append(f"stage {t}: parked although the boundary prefix moved")
            if not isinstance(v, TailValue) or v.prefix.bits != ("1" if mirror else "0"):
                errs.append(f"stage {t}: parked value malformed")
        elif rec.state == "tracking":
            cur = expansion_prefix(m.value(t), k).bits
            if not (cur > boundary if mirror else cur < boundary):
                errs.append(f"stage {t}: tracking on the wrong side of the boundary")
        elif rec.state == "undesirable":
            if not isinstance(v, TailValue) or len(v.prefix) != k:
                errs.append(f"stage {t}: fix prefix has wrong length")
            elif not mirror and v.prefix.bits >= boundary:
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
    slots: Sequence[RegretSlot],
    family: EnumerationScript,
    machine: PrefixMachine,
    c: int,
) -> list[str]:
    errs = []
    for i, slot in enumerate(slots):
        m = real_from_ce_set(family, slot.source_index)
        if not slot.trace.is_monotone():
            errs.append(f"slot {i}: trace not monotone")
        found = []
        for rec in slot.trace.records:
            t, v = rec.stage, rec.value
            found += _record_errors(rec, m, machine, "member", "unbound", "tracking", "regretted")
            if rec.state == "unbound" and v.real() != ZERO:
                found.append(f"stage {t}: unbound value not 0")
            elif rec.state == "regretted":
                assert slot.padding is not None
                expected = expansion_prefix(m.value(t), slot.witness_length).bits
                expected += "0" * slot.padding
                if not isinstance(v, TailValue) or v.prefix.bits != expected:
                    found.append(f"stage {t}: regretted prefix malformed")
        run = _run_errors(m, machine, c, slot.bound_stage, slot.witness_length, slot.regret_stage)
        errs.extend(f"slot {i} {e}" for e in found + run)
        if slot.regret_stage is not None:
            p = slot.padding or 0
            target = slot.witness_length + c + machine.c_tilde
            if not padding_holds(p, target):
                errs.append(f"slot {i}: padding {p} misses the target {target}")
            if any(padding_holds(q, target) for q in range(1, p)):
                errs.append(f"slot {i}: padding {p} not minimal for target {target}")
    return errs


def verify_beta(trace: StageTrace, family: Sequence[LeftCEApprox]) -> list[str]:
    """Monotone, and at the horizon the family's greatest value."""
    errs = [] if trace.is_monotone() else ["beta trace not monotone"]
    best = max(member.value(trace.horizon) for member in family)
    if trace.value_at(trace.horizon) != best:
        errs.append("beta horizon value is not the family maximum")
    return errs


@dataclass(frozen=True)
class MergeCase:
    """A merge input: the scripted side, the listing ``l1``, the extensions
    of a content (``picker``), the tags that mark the injective side's sets,
    and the horizon."""

    script: EnumerationScript
    l1: Sequence[frozenset[BitString]]
    picker: Callable[[frozenset[BitString]], Iterable[frozenset[BitString]]]
    tags: frozenset[BitString]
    horizon: int


def verify_merge(out: EnumerationScript, case: MergeCase) -> list[str]:
    """The Friedberg property of the settled output: no set repeats, every
    scripted set appears, and every other one is from the injective side."""
    errs = []
    outputs = [stage_set(out, i, case.horizon) for i in out.indices()]
    if len(set(outputs)) != len(outputs):
        errs.append("settled output sets repeat")
    l2_settled = {
        stage_set(case.script, j, case.horizon) for j in case.script.indices()
    }
    for value in l2_settled:
        if value not in outputs:
            errs.append(f"scripted set of size {len(value)} omitted")
    for value in outputs:
        tagged = any(item in case.tags for item in value)
        if not tagged and value not in l2_settled:
            errs.append("output set neither scripted nor from the injective side")
    return errs
