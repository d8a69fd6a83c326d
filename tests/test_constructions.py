from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorsim import runs
from cantorsim.checks import (
    SCENARIOS, MergeCase, build_scenario, merge_case_output, verify_hatm, verify_merge,
    verify_regret, verify_splice,
)
from cantorsim.complexity import PrefixMachine, Program
from cantorsim.constructions import (
    StageTrace, TraceRecord, _failing_runs, beta_max, hat_m_construction, merge_rows,
    odd_ones_real_enumeration, regret_construction, splice_random,
)
from cantorsim.draws import make_merge_case
from cantorsim.dyadic import ZERO, BitString, Dyadic, key_word, rational_of_string, word_key
from cantorsim.errors import (
    CapacityError, ContractViolationError, InputError, PreconditionError, RangeError,
)
from cantorsim.oracles import (
    brute_failing_runs, brute_merge_rows, brute_odd_ones, brute_omega_approx, expansion_prefix,
    rightmost_path,
)
from cantorsim.scenarios import FIXTURE_FILES
from cantorsim.streams import (
    EnumerationScript, LeftCEApprox, ScriptEvent, event_blocks, real_from_ce_set, stage_set,
)
from cantorsim.verify import verify_oddones, verify_omega


def dy(text: str) -> Dyadic:
    return Dyadic.parse(text)


def constant(v: Dyadic, horizon: int) -> LeftCEApprox:
    """v at every stage up to the horizon, nonempty from stage 0."""
    return LeftCEApprox((v,) * (horizon + 1), first_stage=0)


def fixture_machine(name: str) -> PrefixMachine:
    return PrefixMachine.parse(FIXTURE_FILES[name], source=name)


def fixture_script(name: str, horizon: int | None = None) -> EnumerationScript:
    return EnumerationScript.parse(FIXTURE_FILES[name], horizon=horizon, source=name)


def scenario(name):
    return next(sc for sc in SCENARIOS if sc.name == name)


def scenario_inputs(name):
    """A scenario's replayed result, its machine, its script and a reader of
    its other flags."""
    sc = scenario(name)

    def flag(option):
        return sc.argv[sc.argv.index(option) + 1]

    machine = fixture_machine(flag("--machine"))
    script = fixture_script(flag("--script"), int(flag("--horizon")))
    return build_scenario(sc).result, machine, script, flag


def tail_at_last_rise(trace, machine):
    """The stage t ≤ the horizon at which the machine's mass last rises, and
    the record there, whose value must read the scan's Ω_t, not Ω_(t−1)."""
    t = max(s for s in range(1, trace.horizon + 1)
            if brute_omega_approx(machine, s) != brute_omega_approx(machine, s - 1))
    state, prefix = trace.records[t]
    now, before = brute_omega_approx(machine, t), brute_omega_approx(machine, t - 1)
    assert trace.value_at(t) == now.in_cone(prefix) != before.in_cone(prefix)
    return t, state, prefix


class TestScenarioLibrary:
    @pytest.mark.parametrize(
        "sc", [s for s in SCENARIOS if s.kind == "splice"], ids=lambda s: s.name
    )
    def test_splice_scenarios_are_safe(self, sc):
        assert build_scenario(sc).check() == []

    @pytest.mark.parametrize(
        "sc", [s for s in SCENARIOS if s.kind == "hatm"], ids=lambda s: s.name
    )
    def test_hatm_scenarios_are_safe(self, sc):
        assert build_scenario(sc).check() == []

    @pytest.mark.parametrize(
        "sc", [s for s in SCENARIOS if s.kind == "regret"], ids=lambda s: s.name
    )
    def test_regret_scenarios_are_safe(self, sc):
        assert build_scenario(sc).check() == []

    def test_permanent_splice_shape(self):
        trace = build_scenario(scenario("splice-permanent")).result
        states = [r.state for r in trace.records]
        assert states == ["empty"] + ["tracking"] * 4 + ["spliced"] * 8
        # the run opens at stage 4 with the witness length 4
        assert trace.records[5].value == expansion_prefix(trace.value_at(4), 4) == "0000"

    def test_recovering_splice_returns_to_the_input(self):
        trace = build_scenario(scenario("splice-recover")).result
        states = [r.state for r in trace.records]
        assert states == ["empty"] + ["tracking"] * 4 + ["spliced"] * 2 + ["tracking"] * 6
        assert trace.value_at(7) == dy("1/2^3")

    def test_degenerate_boundary_parks_forever(self):
        trace = build_scenario(scenario("hatm-degenerate-boundary")).result
        assert all(r.state == "parked" for r in trace.records)
        assert all(r.value == "0" for r in trace.records)

    def test_regret_binds_duplicates_separately(self):
        slots = build_scenario(scenario("regret-permanent")).result
        assert [s.source_index for s in slots] == [0, 1]
        assert all(s.witness_length == 4 and s.regret_stage is None for s in slots)

    def test_regret_padding_matches_the_footnote_bound(self):
        slots = build_scenario(scenario("regret-recover-padding")).result
        (slot,) = slots
        assert slot.regret_stage == 6 and slot.padding == 11
        regretted = slot.trace.records[6].value
        assert regretted == "0010" + "0" * 11

    def test_no_failures_no_slots(self):
        assert build_scenario(scenario("regret-quiet")).result == []


class TestSpliceEdges:
    def test_requires_strict_mass(self):
        machine = PrefixMachine((Program("0", "0", 0), Program("1", "1", 0)))
        r = constant(ZERO, 5)
        with pytest.raises(PreconditionError):
            splice_random(r, machine, 0, 5)

    def test_requires_enough_stages(self):
        machine = PrefixMachine(())
        r = constant(ZERO, 3)
        with pytest.raises(InputError):
            splice_random(r, machine, 0, 10)

    def test_the_witness_stays_the_trigger_stage_prefix(self):
        # 000 fails at stage 3; at stage 4 the input moves to 001, which fails
        # at the same length, so the run goes on with the witness 000
        machine = PrefixMachine((Program("0", "000", 0), Program("10", "001", 0)))
        r = LeftCEApprox((dy("1/2^4"),) * 4 + (dy("3/2^4"),) * 2, first_stage=0)
        trace = splice_random(r, machine, 0, 5)
        assert [rec.state for rec in trace.records] == ["tracking"] * 4 + ["spliced"] * 2
        witness = expansion_prefix(r.value(3), 3)
        assert witness == "000"
        assert {rec.value for rec in trace.records[4:]} == {witness}
        assert verify_splice(trace, r, machine, 0) == []

    def test_trace_validates_stage_numbering(self):
        # a record's stage is its index in the trace, numbered from 0, and a
        # tail 01 there reads the machine's mass at that stage, Ω@1 = 1/2
        machine = PrefixMachine((Program("0", "0", 1),))
        records = (TraceRecord("tracking", ZERO), TraceRecord("spliced", "01"))
        trace = StageTrace(records, machine)
        assert trace.render_lines() == ["0\ttracking\t0/2^0", "1\tspliced\t01*Ω@1"]
        assert trace.value_at(1) == dy("3/2^3")

    def test_a_run_holds_one_record(self):
        # every stage of a splice run holds the same record object
        trace = build_scenario(scenario("splice-permanent")).result
        spliced = [rec for rec in trace.records if rec.state == "spliced"]
        assert len(spliced) == 8 and all(rec is spliced[0] for rec in spliced)


class TestHatmEdges:
    def test_boundary_length_zero_parks_forever(self):
        machine = PrefixMachine((Program("10", "1", 1),))
        m = constant(dy("1/2^1"), 4)
        trace = hat_m_construction(m, machine, 0, 4)
        assert all(r.state == "parked" for r in trace.records)

    def test_mirror_fix_is_the_last_desirable_prefix(self):
        # Ω jumps to 3/4 at stage 1, so the boundary 11 overtakes the input's
        # prefix: the fix 10 lies below the new boundary, above the old one 00
        machine = PrefixMachine((Program("0", "0", 1), Program("10", "1", 1)))
        m = LeftCEApprox((dy("1/2^1"), dy("3/2^2"), dy("3/2^2")))
        trace = hat_m_construction(m, machine, 2, 2, mirror=True)
        assert [r.state for r in trace.records] == ["tracking", "undesirable", "undesirable"]
        assert trace.records[1].value == "10"
        assert verify_hatm(trace, m, machine, 2, mirror=True) == []
        # the current prefix 11 instead of the last desirable one
        tampered = StageTrace(
            trace.records[:1] + tuple(TraceRecord(r.state, "11") for r in trace.records[1:]),
            machine,
        )
        assert verify_hatm(tampered, m, machine, 2, mirror=True) == [
            "stage 1: fix prefix is not the previous input prefix"
        ]


class TestVerifiersReadTheScans:
    def test_a_corrupt_stage_index_is_caught(self):
        _, machine, script, flag = scenario_inputs("hatm-violation")
        m, k = real_from_ce_set(script, 0), int(flag("--k"))
        assert verify_hatm(hat_m_construction(m, machine, k, 10), m, machine, k, False) == []
        # hat_m reads its boundary from the cached index; the verifier must not
        stages, omegas = machine._omega_steps
        machine.__dict__["_omega_steps"] = (stages, [ZERO] * len(omegas))
        trace = hat_m_construction(m, machine, k, 10)
        assert {rec.state for rec in trace.records} == {"parked"}
        assert verify_hatm(trace, m, machine, k, False) == [
            f"stage {t}: parked although the boundary prefix moved" for t in range(2, 11)
        ]

    def test_a_spliced_tail_of_the_previous_stage_is_caught(self):
        # a tail holds no mass: it reads Ω@8 = 3/4 at its stage, not Ω@7 = 1/2
        trace, machine, script, flag = scenario_inputs("splice-permanent")
        r, c = real_from_ce_set(script, 0), int(flag("--c"))
        assert verify_splice(trace, r, machine, c) == []
        assert tail_at_last_rise(trace, machine) == (8, "spliced", "0000")
        assert trace.value_at(8) == dy("3/2^2").in_cone("0000")

    @pytest.mark.parametrize(
        "name, mirror, state",
        [("hatm-violation", False, "undesirable"), ("hatm-mirror-parked", True, "parked")],
    )
    def test_a_hatm_tail_of_the_previous_stage_is_caught(self, name, mirror, state):
        trace, machine, script, flag = scenario_inputs(name)
        m, k = real_from_ce_set(script, 0), int(flag("--k"))
        assert verify_hatm(trace, m, machine, k, mirror) == []
        t, got, prefix = tail_at_last_rise(trace, machine)
        assert (got, prefix) == (state, "1" if mirror else "00")

    def test_a_regretted_tail_of_the_previous_stage_is_caught(self):
        slots, machine, script, flag = scenario_inputs("regret-recover-padding")
        c = int(flag("--c"))
        assert verify_regret(slots, script, machine, c) == []
        (slot,) = slots
        prefix = "001" + "0" * 12
        assert tail_at_last_rise(slot.trace, machine) == (8, "regretted", prefix)
        assert slot.trace.value_at(8) == dy("3/2^2").in_cone(prefix)


    def test_a_splice_witness_off_the_expansion_is_caught(self):
        trace, machine, script, flag = scenario_inputs("splice-permanent")
        r, c = real_from_ce_set(script, 0), int(flag("--c"))
        tampered = trace._replace(records=tuple(
            rec._replace(value="0001") if rec.state == "spliced" else rec for rec in trace.records
        ))
        assert verify_splice(tampered, r, machine, c) == [
            f"stage {t}: spliced 0001*Ω@{t}, but the scans give spliced 0000*Ω@{t}"
            for t in range(5, 13)
        ]

    def test_a_splice_released_while_failing_is_caught(self):
        trace, machine, script, flag = scenario_inputs("splice-permanent")
        r, c = real_from_ce_set(script, 0), int(flag("--c"))
        records = list(trace.records)
        records[8] = TraceRecord("tracking", r.value(8))
        assert verify_splice(StageTrace(tuple(records), machine), r, machine, c) == [
            "stage 8: tracking 1/2^5, but the scans give spliced 0000*Ω@8"
        ]

    def test_a_run_released_at_once_is_checked_by_its_note(self):
        # 01 fails at stage 2 and the input moves to 11 at stage 3, which
        # releases the run: no stage lies strictly inside it, so the trace
        # tracks the input throughout and traces carry no note of the run
        # (the differential tests of `_failing_runs` check the run itself)
        machine = PrefixMachine((Program("0", "01", 1),))
        r = LeftCEApprox((dy("7/2^4"),) * 3 + (dy("3/2^2"),) * 2, first_stage=0)
        assert brute_failing_runs(r.values, r.first_stage, machine, 0, 4) == [(2, 2, 3)]
        trace = splice_random(r, machine, 0, 4)
        assert trace.records[2] == ("tracking", dy("7/2^4"))
        assert {rec.state for rec in trace.records} == {"tracking"}
        assert verify_splice(trace, r, machine, 0) == []
        records = list(trace.records)
        records[3] = TraceRecord("spliced", "01")
        assert verify_splice(StageTrace(tuple(records), machine), r, machine, 0) == [
            "trace not monotone",
            "stage 3: spliced 01*Ω@3, but the scans give tracking 3/2^2",
        ]

    def test_a_regret_padding_off_the_least_is_caught(self):
        slots, machine, script, flag = scenario_inputs("regret-recover-padding")
        c = int(flag("--c"))
        (slot,) = slots
        for p in (slot.padding - 1, slot.padding + 1):
            errs = verify_regret([slot._replace(padding=p)], script, machine, c)
            assert errs == [f"slot 0: padding {p}, but the least for target 5 is 11"]

    def test_a_regret_witness_length_off_by_one_is_caught(self):
        slots, machine, script, flag = scenario_inputs("regret-recover-padding")
        c = int(flag("--c"))
        (slot,) = slots
        tampered = [slot._replace(witness_length=slot.witness_length + 1)]
        errs = verify_regret(tampered, script, machine, c)
        assert errs[:2] == [
            "slot 0: e=0 n=5 bound@4 regret@6, but the scans give e=0 n=4 bound@4 regret@6",
            "slot 0: padding 11, but the least for target 6 is 12",
        ]
        # and each regretted record holds the 5-bit expansion, padded by 12 zeroes
        assert errs[2:] == [
            f"slot 0 stage {t}: regretted {'001' + '0' * 12}*Ω@{t}, but the scans give"
            f" regretted {'001' + '0' * 14}*Ω@{t}"
            for t in range(6, 13)
        ]

    def test_a_spliced_plain_value_is_reported_not_raised(self):
        trace, machine, script, flag = scenario_inputs("splice-permanent")
        records = list(trace.records)
        records[5] = records[5]._replace(value=ZERO)
        r, c = real_from_ce_set(script, 0), int(flag("--c"))
        errs = verify_splice(StageTrace(tuple(records), machine), r, machine, c)
        assert errs == [
            "trace not monotone",
            "stage 5: spliced 0/2^0, but the scans give spliced 0000*Ω@5",
        ]

    def test_a_regret_without_padding_is_reported_not_raised(self):
        slots, machine, script, flag = scenario_inputs("regret-recover-padding")
        tampered = [slots[0]._replace(padding=None)]
        errs = verify_regret(tampered, script, machine, int(flag("--c")))
        assert errs == ["slot 0: padding None, but the least for target 5 is 11"]

    def test_a_wrong_omega_is_caught(self):
        argv = ["run", "omega", "--machine", "m_splice.tsv", "--horizon", "9"]
        values = list(runs.replay(argv, FIXTURE_FILES.__getitem__).result)
        values[3] = Dyadic(1, 0)
        assert verify_omega(fixture_machine("m_splice.tsv"), values) == [
            "stage 3: omega 1/2^0 is not the halted mass 1/2^1"
        ]

    def test_regret_slots_must_hold_every_scan_run_once(self):
        slots, machine, script, flag = scenario_inputs("regret-recover-padding")
        c = int(flag("--c"))
        (slot,) = slots
        assert verify_regret([], script, machine, c) == [
            "slot 0: no slot, but the scans give e=0 n=4 bound@4 regret@6"
        ]
        assert verify_regret([slot, slot], script, machine, c) == [
            "slot 1: e=0 n=4 bound@4 regret@6, but the scans give no slot"
        ]

    def test_a_regret_released_while_failing_is_caught(self):
        slots, machine, script, flag = scenario_inputs("regret-recover-padding")
        c = int(flag("--c"))
        (slot,) = slots
        tampered = [slot._replace(regret_stage=slot.regret_stage - 1)]
        assert verify_regret(tampered, script, machine, c) == [
            "slot 0: e=0 n=4 bound@4 regret@5, but the scans give e=0 n=4 bound@4 regret@6",
            f"slot 0 stage 5: tracking 1/2^5, but the scans give regretted {'0' * 15}*Ω@5",
        ]


def random_detector_input(rng):
    """A strict machine of 1–4 prefix-free codes of length ≤ 4, outputs of
    length ≤ 3 (half of them read off a script value) and halt stages ≤ 6; a
    script of values k/16 on ≤ 3 indices up to a horizon ≤ 10, rising with
    the stage so that members move off their witnesses; c in {0, 1}."""
    horizon = rng.randint(0, 10)
    count = rng.randint(0, 10)
    stages = sorted(rng.randint(0, horizon) for _ in range(count))
    values = sorted(rng.randint(0, 16) for _ in range(count))
    events = [(s, rng.randrange(3), k) for s, k in zip(stages, values)]
    words = [format(min(k, 15), "04b") for _, _, k in events] or ["0000"]
    programs, mass = [], 0
    for _ in range(rng.randint(1, 4)):
        code = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        if mass + (16 >> len(code)) < 16 and not any(
            code.startswith(p.code) or p.code.startswith(code) for p in programs
        ):
            mass += 16 >> len(code)
            word = rng.choice(words) if rng.random() < 0.5 else format(rng.randrange(8), "03b")
            programs.append(Program(code, word[: rng.randint(1, 3)], rng.randint(0, 6)))
    script = EnumerationScript.from_events([(s, e, Dyadic(k, 4)) for s, e, k in events], horizon)
    return PrefixMachine(tuple(programs)), script, rng.randint(0, 1)


def spliced_blocks(trace):
    """(trigger stage, witness length, release stage or None) of each block of
    spliced records in a splice trace: its run opens at the stage before the
    block and is released at the stage after it, if there is one."""
    blocks = []
    for s, rec in enumerate(trace.records):
        if rec.state != "spliced":
            continue
        if blocks and blocks[-1][2] == s:
            blocks[-1] = (*blocks[-1][:2], s + 1)
        else:
            blocks.append((s - 1, len(rec.value), s + 1))
    return [(t, n, None if end > trace.horizon else end) for t, n, end in blocks]


def test_splice_and_regret_runs_match_the_scans():
    rng = random.Random(1)
    triggers = releases = 0
    for _ in range(300):
        machine, script, c = random_detector_input(rng)
        h = script.horizon
        everyone = []
        for e in script.indices():
            m = real_from_ce_set(script, e)
            runs = brute_failing_runs(m.values, m.first_stage, machine, c, h)
            trace = splice_random(m, machine, c, h)
            # a run released at the stage after its trigger, or opened at the
            # horizon, leaves no spliced record
            assert spliced_blocks(trace) == [
                (t, n, rel) for t, n, rel in runs if t + 1 < (h + 1 if rel is None else rel)
            ]
            witnesses = {
                s: expansion_prefix(m.value(t), n)
                for t, n, release in runs
                for s in range(t + 1, h + 1 if release is None else release)
            }
            spliced = {
                s: rec.value for s, rec in enumerate(trace.records) if rec.state == "spliced"
            }
            assert spliced == witnesses
            at_e = brute_failing_runs(m.values, m.first_stage, machine, c, h, start=e)
            everyone.extend((t, e, n, rel) for t, n, rel in at_e)
            triggers += len(runs)
            releases += sum(release is not None for _, _, release in runs)
        slots = regret_construction(script, machine, c, h)
        fields = [(s.bound_stage, s.source_index, s.witness_length, s.regret_stage) for s in slots]
        assert fields == sorted(everyone)
    assert triggers and releases  # the draws reach both ends of a run


# prefix-free codes of three lengths, of mass 15/16
DETECTOR_CODES = ("00", "010", "011", "10", "110", "1110")


def random_failing_run_input(rng, i):
    """A real, a machine, c, a horizon ≤ 16 and a start stage for
    `_failing_runs`.  The programs take 1–6 of DETECTOR_CODES and output one
    of three words of 2–7 bits, halting by stage 9, so a word's K_t drops
    while its value is current.  The real takes 1–4 values, each a word's
    value or a random k/128, rising at random stages.  c cycles through
    0, 1 and 2; every fourth case monitors from a start stage > 0, and every
    tenth real is empty at every stage; the others are empty before their
    first value, so many are empty at stage 0."""
    words = ["".join(rng.choice("01") for _ in range(rng.randint(2, 7))) for _ in range(3)]
    machine = PrefixMachine(tuple(
        Program(code, rng.choice(words), rng.randint(0, 9))
        for code in rng.sample(DETECTOR_CODES, rng.randint(1, len(DETECTOR_CODES)))
    ))
    horizon = rng.randint(0, 16)
    pool = [rational_of_string(BitString(w)) for w in words] + [Dyadic(rng.randrange(129), 7)]
    changes = sorted(rng.sample(range(horizon + 1), min(rng.randint(1, 4), horizon + 1)))
    rises = dict(zip(changes, sorted(rng.choices(pool, k=len(changes)))))
    values = itertools.accumulate((rises.get(t, ZERO) for t in range(horizon + 1)), max)
    first = None if i % 10 == 9 else changes[0]
    start = rng.randint(1, horizon + 1) if i % 4 == 1 else 0
    return LeftCEApprox(tuple(values), first), machine, i % 3, horizon, start


def test_failing_runs_match_the_stage_loop():
    # the interval scan against the stage-by-stage oracle, which reads only
    # the program scans
    rng = random.Random(25)
    opened = released = 0
    for i in range(3000):
        r, machine, c, horizon, start = random_failing_run_input(rng, i)
        runs = brute_failing_runs(r.values, r.first_stage, machine, c, horizon, start)
        assert _failing_runs(r, machine, c, horizon, start) == runs, i
        opened += bool(runs)
        released += any(release is not None for _, _, release in runs)
    assert opened >= 500 and released >= 120  # the draws open and close runs


class TestRegretEdges:
    def test_capacity_error(self):
        argv = scenario("regret-permanent").argv
        family = fixture_script(argv[argv.index("--script") + 1], 12)
        machine = fixture_machine(argv[argv.index("--machine") + 1])
        with pytest.raises(CapacityError):
            regret_construction(family, machine, 1, 12, max_slots=1)

    def test_rebinding_uses_a_fresh_slot(self):
        # member fails at length 4, recovers, then fails again at length 5
        machine = PrefixMachine((Program("0", "0000", 3), Program("10", "00100", 8)))
        events = [(1, 0, dy("1/2^5")), (6, 0, dy("9/2^6"))]
        family = EnumerationScript.from_events(events, horizon=14)
        slots = regret_construction(family, machine, 1, 14)
        assert len(slots) == 2
        first, second = slots
        assert first.regret_stage is not None and first.witness_length == 4
        assert second.regret_stage is None and second.witness_length == 5
        assert second.bound_stage >= first.regret_stage

    def test_a_regretted_prefix_is_built_once_per_value(self):
        # the regret-recover-padding member, regretted at stage 6, rises again
        # at stage 20: two values over 195 regretted stages, so two records
        events = [(1, 0, dy("1/2^5")), (6, 0, dy("1/2^3")), (20, 0, dy("3/2^3"))]
        family = EnumerationScript.from_events(events, horizon=200)
        (slot,) = regret_construction(family, fixture_machine("m_splice.tsv"), 1, 200)
        regretted = [rec for rec in slot.trace.records if rec.state == "regretted"]
        assert slot.regret_stage == 6 and len(regretted) == 195
        assert len({id(rec) for rec in regretted}) == 2
        assert [rec.value for rec in regretted[13:15]] == ["001" + "0" * 12, "011" + "0" * 12]


class TestBeta:
    def test_single_member_is_identity(self):
        member = constant(dy("1/2^2"), 5)
        trace = beta_max([member], 5)
        assert [r.value for r in trace.records] == [dy("1/2^2")] * 6

    def test_settles_on_the_maximum(self):
        script = fixture_script("s_beta2.tsv", 6)
        family = [real_from_ce_set(script, e) for e in script.indices()]
        trace = beta_max(family, 6)
        assert trace.value_at(6) == dy("1/2^1")
        assert trace.is_monotone()

    def test_index_window_grows_with_the_stage(self):
        early = constant(dy("1/2^3"), 4)
        late = constant(dy("1/2^1"), 4)
        trace = beta_max([early, late], 4)
        assert trace.value_at(0) == dy("1/2^3")  # index 1 not yet eligible
        assert trace.value_at(1) == dy("1/2^1")

    def test_tree_fixture_reaches_the_rightmost_path(self):
        from cantorsim.classes import Tree
        from cantorsim.dyadic import rational_of_string
        from cantorsim.scenarios import FIXTURE_FILES

        tree = Tree.parse(FIXTURE_FILES["t_beta.txt"], depth=3)
        trace = build_scenario(scenario("beta-tree")).result
        path = rightmost_path(tree, 3)
        assert trace.value_at(8) == rational_of_string(path)

    def test_empty_family_rejected(self):
        with pytest.raises(InputError):
            beta_max([], 3)

    @staticmethod
    def tampered_tree_check(monkeypatch, value_at):
        """The beta-tree scenario's check, built with a trace whose stage-s
        value is value_at(s, the replayed value)."""
        built = runs.beta_max

        def tampered(family, horizon):
            return StageTrace(
                tuple(
                    r._replace(value=value_at(s, r.value))
                    for s, r in enumerate(built(family, horizon).records)
                )
            )

        monkeypatch.setattr(runs, "beta_max", tampered)
        return build_scenario(scenario("beta-tree")).check()

    def test_a_trace_lowered_at_one_stage_is_caught(self, monkeypatch):
        errs = self.tampered_tree_check(monkeypatch, lambda s, v: dy("1/2^2") if s == 4 else v)
        assert errs == ["beta trace not monotone"]

    def test_a_horizon_value_below_the_family_maximum_is_caught(self, monkeypatch):
        # monotone, but it never rises past 1/4 although a member reaches 3/4
        errs = self.tampered_tree_check(monkeypatch, lambda s, v: min(v, dy("1/2^2")))
        assert errs == ["beta horizon value is not the family maximum"]


class TestOddOnes:
    def test_examples(self):
        assert odd_ones_real_enumeration(0) == BitString("1")
        assert odd_ones_real_enumeration(1) == BitString("01")
        assert odd_ones_real_enumeration(2) == BitString("001")

    @given(st.integers(0, 300), st.integers(0, 300))
    def test_injective(self, i, j):
        if i != j:
            assert odd_ones_real_enumeration(i) != odd_ones_real_enumeration(j)

    def test_matches_the_filtered_listing(self):
        want = brute_odd_ones(12)
        assert len(want) == 1 << 11
        assert [odd_ones_real_enumeration(i) for i in range(1 << 11)] == want

    def test_properties_over_a_window(self):
        assert verify_oddones([odd_ones_real_enumeration(i) for i in range(1000)]) == []

    @pytest.mark.parametrize("tamper, findings", [
        (lambda s: s[:3] + s[2:5], ["repeats 001", "out of order at 001", "gives 001 at 3, not 111",
                                    "gives 111 at 4, not 0001", "gives 0001 at 5, not 0111"]),
        (lambda s: [BitString("11"), *s[1:]], ["emitted 11", "out of order at 01",
                                                "gives 11 at 0, not 1"]),
        (lambda s: s[:3] + s[4:], ["gives 0001 at 3, not 111", "gives 0111 at 4, not 0001"]),
    ], ids=["repeat", "even-weight", "skip"])
    def test_a_tampered_listing_is_caught(self, tamper, findings):
        strings = runs.replay(["run", "oddones", "--count", "6"], FIXTURE_FILES.__getitem__).result
        assert verify_oddones(tamper(strings)) == [f"odd-ones listing {f}" for f in findings]


def listed_l1(values):
    frozen = [frozenset(BitString.parse(w) for w in v) for v in values]
    return frozen, lambda content: (v for v in frozen if content <= v)


def merged(listing, l2, extensions, horizon) -> EnumerationScript:
    """The merge's output script on a listing, a script and extensions in
    words: the merge case's output, with no tags."""
    return merge_case_output(MergeCase(l2, listing, extensions, frozenset(), horizon))


def settled(script: EnumerationScript):
    return [stage_set(script, i, script.horizon) for i in script.indices()]


class TestFriedbergMerge:
    def test_empty_family_reproduces_the_listing(self):
        gen, picker = listed_l1([["1"], ["11"], ["111"]])
        l2 = EnumerationScript.from_events([], horizon=2)
        out = merged(gen, l2, picker, 2)
        assert settled(out) == [
            frozenset({BitString("1")}),
            frozenset({BitString("11")}),
            frozenset({BitString("111")}),
        ]

    def test_new_set_joins_the_listing(self):
        gen, picker = listed_l1([["1"], ["11"]])
        l2 = EnumerationScript.from_events(
            [(0, 0, BitString("00")), (1, 0, BitString("01"))], horizon=3
        )
        out = merged(gen, l2, picker, 3)
        sets = settled(out)
        assert frozenset({BitString("00"), BitString("01")}) in sets
        assert len(set(sets)) == len(sets)

    def test_duplicate_indices_divert_one(self):
        gen, picker = listed_l1(
            [["1"], ["11"], ["00", "01", "1"], ["00", "01", "11"]]
        )
        l2 = EnumerationScript.from_events(
            [
                (0, 0, BitString("00")),
                (0, 1, BitString("01")),
                (1, 0, BitString("01")),
                (1, 1, BitString("00")),
            ],
            horizon=3,
        )
        out = merged(gen, l2, picker, 3)
        sets = settled(out)
        assert len(set(sets)) == len(sets)
        assert sets.count(frozenset({BitString("00"), BitString("01")})) == 1
        # the diverted index ended on a proper listing extension of {00,01}
        assert any(
            frozenset({BitString("00"), BitString("01")}) < s for s in sets
        )

    def test_transient_duplicate_then_divergence_keeps_both(self):
        # both indices look like {00} for a while; the larger is diverted,
        # then its script moves on and the set must reappear
        gen, picker = listed_l1([["1"], ["11"], ["00", "1"], ["00", "11"]])
        l2 = EnumerationScript.from_events(
            [
                (0, 0, BitString("00")),
                (1, 1, BitString("00")),
                (4, 1, BitString("01")),
            ],
            horizon=8,
        )
        out = merged(gen, l2, picker, 8)
        sets = settled(out)
        assert frozenset({BitString("00")}) in sets
        assert frozenset({BitString("00"), BitString("01")}) in sets
        assert len(set(sets)) == len(sets)

    def test_smaller_index_moving_away_respawns_the_cancelled_set(self):
        # index 0 grows past the shared content; index 1 is stuck on it
        gen, picker = listed_l1([["1"], ["11"], ["00", "1"], ["00", "11"]])
        l2 = EnumerationScript.from_events(
            [
                (0, 0, BitString("00")),
                (0, 1, BitString("00")),
                (5, 0, BitString("01")),
            ],
            horizon=9,
        )
        out = merged(gen, l2, picker, 9)
        sets = settled(out)
        assert frozenset({BitString("00")}) in sets
        assert frozenset({BitString("00"), BitString("01")}) in sets
        assert len(set(sets)) == len(sets)

    def test_picker_must_extend(self):
        def bad_extensions(content):
            yield frozenset({BitString("1")})  # never extends nonempty content

        l2 = EnumerationScript.from_events(
            [
                (0, 0, BitString("00")),
                (0, 1, BitString("01")),
                (2, 0, BitString("01")),
                (2, 1, BitString("00")),
            ],
            horizon=3,
        )
        with pytest.raises(ContractViolationError, match="does not contain the slot content"):
            merged([], l2, bad_extensions, 3)

    def test_repeating_generator_rejected(self):
        l2 = EnumerationScript.from_events([], horizon=3)
        listing = itertools.repeat(frozenset({BitString("1")}))
        with pytest.raises(ContractViolationError, match="repeated a member"):
            merged(listing, l2, lambda content: iter(()), 3)

    def test_no_unused_extension_is_a_contract_violation(self):
        gen, extensions = listed_l1([["1"], ["01"]])
        l2 = EnumerationScript.from_events(
            [(0, 0, BitString("00")), (1, 1, BitString("00"))], horizon=2
        )
        message = "^no unused extension of a 1-string set at stage 1$"
        with pytest.raises(ContractViolationError, match=message):
            merged(gen, l2, extensions, 2)

    def test_extensions_are_read_at_most_used_plus_horizon_plus_two(self):
        listed = frozenset({BitString("00"), BitString("1")})
        read = []

        def extensions(content):
            while True:
                read.append(content)
                yield listed  # used since stage 0

        l2 = EnumerationScript.from_events(
            [(0, 0, BitString("00")), (1, 1, BitString("00"))], horizon=3
        )
        with pytest.raises(ContractViolationError, match="at stage 1$"):
            merged([listed], l2, extensions, 3)
        assert len(read) == 1 + 3 + 2

    def test_random_contract_cases(self):
        rng = random.Random(17)
        for _ in range(40):
            case = make_merge_case(rng, horizon=60)
            assert verify_merge(merge_case_output(case), case) == []


def stage_set_merge_findings(out: EnumerationScript, case) -> list[str]:
    """verify_merge restated on one `stage_set` scan of the events per index:
    the reference for the verifier's one pass over each script."""
    errs = []
    outputs = [stage_set(out, i, case.horizon) for i in out.indices()]
    if len(set(outputs)) != len(outputs):
        errs.append("settled output sets repeat")
    l2_settled = {stage_set(case.script, j, case.horizon) for j in case.script.indices()}
    for value in l2_settled:
        if value not in outputs:
            errs.append(f"scripted set of size {len(value)} omitted")
    for value in outputs:
        tagged = any(item in case.tags for item in value)
        if not tagged and value not in l2_settled:
            errs.append("output set neither scripted nor from the injective side")
    return errs


def merged_check_cases():
    """The 25 merge cases of `check constructions` at its default seed, with
    the merge's output for each."""
    rng = random.Random(0)
    for _ in range(25):
        case = make_merge_case(rng, horizon=100)
        yield case, merge_case_output(case)


def copy_index(out: EnumerationScript, src: int, dst: int) -> EnumerationScript:
    """The output with index dst's events replaced by a copy of index src's."""
    kept = [ev for ev in out.events if ev.index != dst]
    copied = [(ev.stage, dst, ev.item) for ev in out.events if ev.index == src]
    return EnumerationScript.from_events(sorted(kept + copied, key=lambda ev: ev[0]), out.horizon)


def replace_index(out: EnumerationScript, dst: int, item: str) -> EnumerationScript:
    """The output with index dst's events replaced by one event of the item
    at stage 0."""
    kept = [ev for ev in out.events if ev.index != dst]
    return EnumerationScript.from_events([(0, dst, item)] + kept, out.horizon)


class TestVerifyMerge:
    def test_findings_match_the_stage_set_scans_on_the_check_cases(self):
        for case, out in merged_check_cases():
            first, last = out.indices()[0], out.indices()[-1]
            tampered = [copy_index(out, first, last), replace_index(out, last, "0")]
            # at half the horizon, indices whose events all come later settle on ∅
            for at in (case, case._replace(horizon=case.horizon // 2)):
                for candidate in [out, *tampered]:
                    assert verify_merge(candidate, at) == stage_set_merge_findings(candidate, at)
            assert verify_merge(out, case) == []

    def test_a_copied_settled_set_is_a_repeat(self):
        for case, out in merged_check_cases():
            tampered = copy_index(out, out.indices()[0], out.indices()[-1])
            assert "settled output sets repeat" in verify_merge(tampered, case)

    def test_an_untagged_unscripted_set_is_found(self):
        case, out = next(merged_check_cases())
        tampered = replace_index(out, out.indices()[-1], "0")
        assert "output set neither scripted nor from the injective side" in verify_merge(
            tampered, case
        )

    def test_a_horizon_past_the_output_is_a_range_error(self):
        case, out = next(merged_check_cases())
        late = case._replace(horizon=out.horizon + 1)
        with pytest.raises(RangeError, match=f"stage {out.horizon + 1} outside"):
            verify_merge(out, late)


def merge_tag(i: int) -> str:
    """The i-th tag word, 1 and then i in eight bits; script words open with 0."""
    return "1" + format(i, "08b")


# one singleton tag per stage, and extensions that add one tag from 100 on
TAG_LISTING = [frozenset({merge_tag(i)}) for i in range(100)]


def tag_extensions(content: frozenset[str]):
    return (content | {merge_tag(i)} for i in itertools.count(100))


def is_extension_tag(word: str) -> bool:
    return word.startswith("1") and int(word[1:], 2) >= 100


def keys(words) -> frozenset[int]:
    return frozenset(map(word_key, words))


def merged_both_ways(events, horizon):
    """The merge's rows (stage, slot, word): `merge_rows` on the events'
    blocks as keys, which skips steps 1–3 on a stage with no block, asserted
    equal to `oracles.brute_merge_rows` on the words, which runs every step
    at every stage."""
    events = sorted(events, key=lambda ev: ev[0])
    rows = merge_rows(
        map(keys, TAG_LISTING),
        event_blocks(map(ScriptEvent._make, events)),
        lambda content: map(keys, tag_extensions(frozenset(map(key_word, content)))),
        horizon,
    )
    fast = [(s, j, key_word(k)) for s, j, block in rows for k in block]
    assert fast == brute_merge_rows(TAG_LISTING, events, tag_extensions, horizon)
    return fast


def quiet_merge_input(rng: random.Random):
    """(events, horizon, (u, v, w), delivering stages (a, b, c, d)) of a
    merge input whose blocks arrive on four stages a < b < c < d, with
    quiet stretches of at least one stage between them and two after d.
    u, v and w are 0-opening words:
    - index 0 has no event at stage 0, where its follower takes ∅, and
      shows {u, v} from a;
    - index 1 shows {v} from a and gains u at b, so it is diverted at b;
      it gains w at c, the first stage after a quiet stretch, and respawns;
    - index 2 spawns on ∅ at a, shows {u} from c and gains w and v at d,
      the last delivering stage, so it is diverted there;
    - indices 3 and 4 draw other words on stages 0, a, b, c and d;
    - index 5, and one more event of index 0, come past the horizon."""
    u, v, w, *others = rng.sample(["0" + format(x, "03b") for x in range(8)], 8)
    a = rng.randint(1, 4)
    b = a + rng.randint(2, 6)
    c = b + rng.randint(2, 6)
    d = c + rng.randint(2, 6)
    horizon = d + rng.randint(2, 8)
    events = [
        (a, 0, u), (a, 0, v), (a, 1, v), (b, 1, u), (c, 1, w), (c, 2, u), (d, 2, w), (d, 2, v),
        (horizon + 1, 0, others[0]), (horizon + rng.randint(1, 3), 5, others[1]),
    ]
    for _ in range(rng.randint(0, 6)):
        events.append((rng.choice((0, a, b, c, d)), rng.choice((3, 4)), rng.choice(others)))
    return events, horizon, (u, v, w), (a, b, c, d)


class TestMergeQuietStages:
    """`merge_rows` runs only step 4 on a stage s ≥ 1 that delivers no
    block; the stage loop of `oracles.brute_merge_rows` runs every step."""

    def test_seeded_inputs_with_quiet_stretches_match_the_stage_loop(self):
        rng = random.Random(33)
        for _ in range(60):
            events, horizon, (u, v, w), (a, b, c, d) = quiet_merge_input(rng)
            rows = merged_both_ways(events, horizon)
            # index 1's diversion at b and index 2's at d, each to an extension tag
            for stage in (b, d):
                assert any(s == stage and is_extension_tag(x) for s, _, x in rows)
            # index 1's respawn at c, on a new slot holding its whole set
            (slot,) = {j for s, j, x in rows if s == c and x == w}
            assert sorted(x for _, j, x in rows if j == slot) == sorted((u, v, w))
            # each quiet stage lists the next tag and emits nothing else
            quiet = set(range(1, horizon + 1)) - {a, b, c, d}
            assert [x for s, _, x in rows if s in quiet] == [
                merge_tag(i) for i in range(len(TAG_LISTING)) if i in quiet
            ]

    def test_seeded_inputs_at_horizon_0_match_the_stage_loop(self):
        rng = random.Random(34)
        words = ["0" + format(x, "02b") for x in range(4)]
        for _ in range(40):
            events = [
                (rng.choice((0, 0, 1, 2)), rng.randrange(4), rng.choice(words))
                for _ in range(rng.randint(0, 8))
            ]
            rows = merged_both_ways(events, 0)
            assert {s for s, _, _ in rows} <= {0}
            assert rows[-1][2] == merge_tag(0)

    def test_a_diversion_at_the_last_block_is_followed_by_quiet_stages(self):
        # index 1's follower takes ∅ on slot 1 at stage 0; at stage 1 its set
        # meets index 0's, so slot 1 is diverted to the first extension tag;
        # stages 2 to 5 are quiet and each lists the next tag on a new slot
        rows = merged_both_ways([(0, 0, "00"), (1, 1, "00")], 5)
        assert rows == [
            (0, 0, "00"), (0, 2, merge_tag(0)),
            (1, 1, "00"), (1, 1, merge_tag(100)), (1, 3, merge_tag(1)),
            (2, 4, merge_tag(2)), (3, 5, merge_tag(3)), (4, 6, merge_tag(4)), (5, 7, merge_tag(5)),
        ]
