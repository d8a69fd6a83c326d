"""Stage-replay models of uniformly presented families.

An enumeration script is a finite, replayable log of (stage, index, item)
events: the stage-s set of index e is exactly the items filed under e at
stages ≤ s.  Left-c.e. reals are modelled by monotone per-stage dyadic
values with an explicit "empty" flag before the first evidence arrives, so
downstream constructions can tell "no element yet" from the real 0.  An
item is a word (a plain `str`, checked at parse time) or a dyadic.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, Union

from .dyadic import ZERO, BitString, Dyadic, _Value, key_word, word_key
from .errors import InputError, ParseError, RangeError, records

Item = Union[str, Dyadic]

__all__ = [
    "EnumerationScript",
    "Item",
    "LeftCEApprox",
    "ScriptEvent",
    "approx_string",
    "lower_cut",
    "real_from_ce_set",
    "stage_set",
    "words_below",
]


class ScriptEvent(NamedTuple):
    """One enumeration event.  A named tuple, so it equals the plain tuple
    (stage, index, item)."""

    stage: int
    index: int
    item: Item


class EnumerationScript(_Value):
    """A finite log of enumeration events, sorted by stage (file order kept
    within a stage)."""

    __slots__ = ("events", "horizon")
    events: tuple[ScriptEvent, ...]
    horizon: int

    def __init__(self, events: tuple[ScriptEvent, ...] = (), horizon: int = 0) -> None:
        if horizon < 0:
            raise InputError("horizon must be ≥ 0")
        last = 0
        for ev in events:
            if ev.stage < 0 or ev.index < 0:
                raise InputError(
                    f"event at stage {ev.stage} for index {ev.index}: stage and index must be ≥ 0"
                )
            if ev.stage < last:
                raise InputError("events must be sorted by stage")
            if ev.stage > horizon:
                raise InputError(f"event at stage {ev.stage} beyond horizon {horizon}")
            last = ev.stage
        self._store(events, horizon)

    @classmethod
    def from_events(
        cls, events: Iterable[tuple[int, int, Item]], horizon: int | None = None
    ) -> "EnumerationScript":
        evs = [ScriptEvent(s, e, item) for (s, e, item) in events]
        evs.sort(key=lambda ev: ev.stage)  # stable: file order kept within a stage
        if horizon is None:
            horizon = max((ev.stage for ev in evs), default=0)
        return cls(tuple(evs), horizon)

    @classmethod
    def parse(
        cls, text: str, horizon: int | None = None, source: str = "<script>"
    ) -> "EnumerationScript":
        """One event per line: stage<TAB>index<TAB>kind<TAB>payload with kind
        in {str, dyadic}; '#' starts a comment line."""
        events: list[tuple[int, int, Item]] = []
        for lineno, fields in records(text):
            if len(fields) != 4:
                raise ParseError(
                    f"expected 4 tab-separated fields, got {len(fields)}",
                    source=source,
                    line=lineno,
                )
            stage_s, index_s, kind, payload = fields
            try:
                stage, index = int(stage_s), int(index_s)
            except ValueError:
                raise ParseError("stage and index must be integers", source=source, line=lineno)
            if stage < 0 or index < 0:
                raise ParseError("stage and index must be ≥ 0", source=source, line=lineno)
            if horizon is not None and stage > horizon:
                raise ParseError(
                    f"event stage {stage} beyond requested horizon {horizon}",
                    source=source,
                    line=lineno,
                )
            try:
                if kind == "str":
                    item: Item = BitString.parse(payload)
                elif kind == "dyadic":
                    item = Dyadic.parse(payload)
                else:
                    raise ParseError(f"unknown item kind {kind!r}", source=source, line=lineno)
            except ParseError:
                raise
            except Exception as exc:
                raise ParseError(f"bad payload {payload!r}: {exc}", source=source, line=lineno)
            events.append((stage, index, item))
        return cls.from_events(events, horizon)

    @classmethod
    def load(cls, path: str, horizon: int | None = None) -> "EnumerationScript":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read(), horizon=horizon, source=path)

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted({ev.index for ev in self.events}))

    def render(self) -> str:
        lines = []
        for ev in self.events:
            if isinstance(ev.item, str):
                kind, payload = "str", ev.item or "-"
            else:
                kind, payload = "dyadic", ev.item.render()
            lines.append(f"{ev.stage}\t{ev.index}\t{kind}\t{payload}")
        return "\n".join(lines)


def event_blocks(events: Iterable[ScriptEvent]) -> list[tuple[int, int, tuple]]:
    """The blocks (stage, index, items) of stage-sorted events, as
    `constructions.merge_rows` reads them: one per run of consecutive events
    of one stage and index, each word as its key (`dyadic.word_key`).  An
    item that is not a word is handed on, for `merge_rows` to reject at its
    stage."""
    groups = itertools.groupby(events, key=itemgetter(0, 1))
    return [
        (s, j, tuple(word_key(x) if isinstance(x := ev.item, str) else x for ev in group))
        for (s, j), group in groups
    ]


def key_row_lines(rows: Sequence[tuple[int, int, Sequence[int]]]) -> list[str]:
    """The lines `EnumerationScript.render` writes for the script of the row
    blocks (stage, index, keys), one event per key `dyadic.word_key` of a
    word.  Each distinct key is decoded once, to its binary digits after the
    leading 1 ('-' for ε, as `render` writes it), and each block's line head
    is built once, so the rows need no script."""
    words = {k: format(k, "b")[1:] or "-" for k in {k for row in rows for k in row[2]}}
    lines: list[str] = []
    for s, j, block in rows:
        lines += map(f"{s}\t{j}\tstr\t".__add__, map(words.__getitem__, block))
    return lines


def stage_set(script: EnumerationScript, index: int, stage: int) -> frozenset[Item]:
    """The replayed stage-s set of the given index; monotone in the stage."""
    if stage < 0 or stage > script.horizon:
        raise RangeError(f"stage {stage} outside [0, {script.horizon}]")
    return frozenset(
        ev.item for ev in script.events if ev.index == index and ev.stage <= stage
    )


class LeftCEApprox(_Value):
    """A monotone stage approximation of a left-c.e. real.

    values[s] is the stage-s value; stages before first_stage carry the
    placeholder 0 and are flagged empty.
    """

    __slots__ = ("values", "first_stage")
    values: tuple[Dyadic, ...]
    first_stage: int | None

    def __init__(self, values: tuple[Dyadic, ...], first_stage: int | None = None) -> None:
        if not values:
            raise InputError("approximation needs at least stage 0")
        for a, b in zip(values, values[1:]):
            if b < a:
                raise InputError(f"approximation not monotone: {a} then {b}")
        if first_stage is not None and not (0 <= first_stage < len(values)):
            raise InputError("first_stage outside the stage range")
        self._store(values, first_stage)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def value(self, stage: int) -> Dyadic:
        if stage < 0 or stage > self.horizon:
            raise RangeError(f"stage {stage} outside [0, {self.horizon}]")
        return self.values[stage]

    def empty_at(self, stage: int) -> bool:
        return self.first_stage is None or stage < self.first_stage


def real_from_ce_set(script: EnumerationScript, index: int) -> LeftCEApprox:
    """Stage value = greatest element filed under the index so far; the
    placeholder 0 flagged empty before anything arrives.  One pass over the
    stage-sorted events."""
    values: list[Dyadic] = []
    cur, first = ZERO, None
    for ev in script.events:
        if ev.index != index:
            continue
        if not isinstance(ev.item, Dyadic):
            raise InputError(f"index {index} carries a non-dyadic item at stage {ev.stage}")
        values += [cur] * (ev.stage - len(values))
        first = ev.stage if first is None else first
        cur = max(cur, ev.item)
    values += [cur] * (script.horizon + 1 - len(values))
    return LeftCEApprox(tuple(values), first)


def words_below(num: int, exp: int, n: int) -> int:
    """⌈num·2ⁿ / 2^exp⌉: how many n-bit words v/2ⁿ lie strictly below
    num/2^exp, since v/2ⁿ < num/2^exp exactly when v < num·2ⁿ/2^exp.

    With (num, exp) a dyadic x = num/2^exp and n = L this is the integer
    c = ⌈x·2^L⌉ that fixes the lower cut of x truncated at length L.  With
    (num, exp) = (c, L) it is that cut's count of length-n members,
    ⌈c/2^(L−n)⌉ = ⌈x·2ⁿ⌉, because nested ceilings of divisions by integers
    collapse: ⌈⌈a⌉/m⌉ = ⌈a/m⌉.
    """
    return -(-(num << n) >> exp)


def cut_keys(c: int, max_len: int) -> frozenset[int]:
    """The keys (`dyadic.word_key`) of the lower cut truncated at max_len
    whose cut integer is c = ⌈x·2^max_len⌉ (`words_below`): its length-n
    members are the n-bit values below ⌈c/2^(max_len−n)⌉, whose keys are
    the range [2ⁿ, 2ⁿ + ⌈c/2^(max_len−n)⌉)."""
    return frozenset(itertools.chain.from_iterable(
        range(1 << n, (1 << n) + words_below(c, max_len, n)) for n in range(max_len + 1)
    ))


def lower_cut(x: Dyadic, max_len: int) -> frozenset[str]:
    """All τ with |τ| ≤ max_len whose zero-padded extension lies strictly
    below x: the words of `cut_keys` at x's cut integer, so x = 1 takes
    every word and x = 0 none."""
    return frozenset(map(key_word, cut_keys(words_below(x.num, x.exp, max_len), max_len)))


def approx_string(x: Dyadic, n: int) -> str:
    """First n expansion bits of x: ⌊x·2ⁿ⌋ in n binary digits, capped at
    2ⁿ − 1 so that x = 1 expands as all ones (ε for n = 0)."""
    if n < 0:
        raise InputError("target length must be ≥ 0")
    v = min((x.num << n) >> x.exp, (1 << n) - 1)
    return format(v, f"0{n}b") if n else ""
