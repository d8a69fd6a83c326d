"""The seeded input generators that the `check` suites and the tests draw from.

Each generator reads only the `random.Random` it is given, so a seed gives
the same draws in every process.  A change to how a draw reads its stream
changes the drawn cases and so the `check` goldens; such a change says so.
Check side, like `checks`: a `run` process does not import it.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterator

from .classes import Tree, dead_ends
from .complexity import PrefixMachine, Program
from .dyadic import Dyadic, lenlex, optimal_covering, strings_up_to
from .errors import InputError
from .streams import EnumerationScript
from .verify import MergeCase


def random_bitstring(rng: random.Random, max_len: int, min_len: int = 0) -> str:
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice("01") for _ in range(n))


def random_string_set(
    rng: random.Random, max_len: int, max_size: int, min_size: int = 0
) -> frozenset[str]:
    k = rng.randint(min_size, max_size)
    return frozenset(random_bitstring(rng, max_len) for _ in range(k))


def random_machine(
    rng: random.Random, max_code_len: int = 8, max_out_len: int = 12, strict: bool = True
) -> PrefixMachine:
    """Up to 20 programs with prefix-free codes and halt stages ≤ 12.  The
    codes' Kraft mass is kept in units of 2^−max_code_len, as an integer."""
    programs: list[Program] = []
    codes: list[str] = []
    mass, whole = 0, 1 << max_code_len
    target = rng.randint(1, 20)
    tries = 0
    while len(programs) < target and tries < 300:
        tries += 1
        n = rng.randint(1, max_code_len)
        code = "".join(rng.choice("01") for _ in range(n))
        if any(code.startswith(c) or c.startswith(code) for c in codes):
            continue
        add = 1 << (max_code_len - n)
        if mass + add > whole or strict and mass + add == whole:
            continue
        codes.append(code)
        mass += add
        programs.append(Program(code, random_bitstring(rng, max_out_len), rng.randint(0, 12)))
    return PrefixMachine(tuple(programs))


def random_string_script(rng: random.Random) -> EnumerationScript:
    """Up to 20 events over at most 4 indices, each a nonempty string of
    length ≤ 6 at a stage ≤ 20, the horizon."""
    count_indices = rng.randint(1, 4)
    events = [
        (rng.randint(0, 20), rng.randrange(count_indices), random_bitstring(rng, 6, 1))
        for _ in range(rng.randint(0, 20))
    ]
    return EnumerationScript.from_events(events, 20)


def random_dyadic_script(rng: random.Random) -> EnumerationScript:
    """Up to 12 events over at most 3 indices, each a dyadic of denominator
    at most 2^8 at a stage ≤ 20, the horizon."""
    count_indices = rng.randint(1, 3)
    events = []
    for _ in range(rng.randint(0, 12)):
        exp = rng.randint(0, 8)
        stage, index = rng.randint(0, 20), rng.randrange(count_indices)
        events.append((stage, index, Dyadic(rng.randint(0, 1 << exp), exp)))
    return EnumerationScript.from_events(events, 20)


def random_dyadic_trace(rng: random.Random) -> list[Dyadic]:
    """Up to eight stage values in [0, 1], of denominator at most 2^6, that
    rise, repeat or drop at random."""
    out: list[Dyadic] = []
    for _ in range(rng.randint(1, 8)):
        if out and rng.random() < 0.3:
            out.append(out[-1])
        else:
            exp = rng.randint(0, 6)
            out.append(Dyadic(rng.randint(0, 1 << exp), exp))
    return out


def random_listing(rng: random.Random, kind: str | None = None) -> tuple[str, ...]:
    kind = kind or rng.choice(("path", "clopen", "loose"))
    if kind == "path":
        # members of a non-clopen filter-closed set: everything deviating
        # from a fixed path, in length-lexicographic order
        x = "".join(rng.choice("01") for _ in range(8))
        bound = rng.randint(4, 6)
        return tuple(t for t in strings_up_to(bound) if not x.startswith(t))
    if kind == "clopen":
        base = optimal_covering(random_string_set(rng, 4, 4, 1))
        covered = lenlex(t for t in strings_up_to(5) if base.covers(t))
        if rng.random() < 0.5:
            rng.shuffle(covered)
        return tuple(covered)
    return tuple(random_bitstring(rng, 6) for _ in range(rng.randint(0, 12)))


def diagonal_suite(rng: random.Random, n_trees: int, depth: int) -> list[Tree]:
    """A base tree with a full-depth spine and enough sibling dead ends,
    plus companion trees whose dead ends sit at, above, or below the
    corresponding base dead end σ_n.  One drawn above σ_n whose word ends
    in 1 keeps that word's sibling too, so its graft target is the lesser of
    two candidates."""
    if depth < n_trees + 1:
        raise InputError("depth too small for the requested suite")
    spine = "".join(rng.choice("01") for _ in range(depth))
    extra = rng.randint(0, min(2, depth - 1 - n_trees))
    # the sibling of each drawn prefix of the spine: its last bit flipped
    cuts = rng.sample(range(1, depth), n_trees + extra)
    sibs = [spine[: i - 1] + ("1" if spine[i - 1] == "0" else "0") for i in cuts]
    base = Tree.closure_of([spine, *sibs], depth)
    ends = dead_ends(base)
    trees = [base]
    for n in range(1, n_trees):
        sigma = ends[n]
        style = rng.choice(("same", "at", "below"))
        if style == "same":
            trees.append(base)
        elif style == "at":
            trees.append(Tree.closure_of([sigma], depth))
        else:
            room = depth - len(sigma) - 1
            suffix = "".join(rng.choice("01") for _ in range(rng.randint(0, max(room, 0))))
            w = sigma + suffix
            # a suffix ending in 1 keeps its sibling ending in 0: two dead ends above σ_n
            trees.append(Tree.closure_of([w, w[:-1] + "0"] if suffix else [w], depth))
    return trees


def _merge_tag(i: int) -> str:
    """The i-th tag, six 1s and i in 10 bits."""
    return "1" * 6 + format(i, "010b")


@lru_cache(maxsize=None)
def _merge_injective_side() -> tuple[frozenset[str], tuple[frozenset[str], ...]]:
    """The 1,024 tags and the listing of the first 400 tags as singletons,
    the same for every merge case; built on the first case, not at import."""
    tags = [_merge_tag(i) for i in range(1024)]
    return frozenset(tags), tuple(frozenset((t,)) for t in tags[:400])


def make_merge_case(rng: random.Random, horizon: int = 100) -> MergeCase:
    """A scripted merge input: settled word sets of 2 to 16 indices over
    '0'-opening items, plus a tag-based injective side that trivially has
    extensions of every finite subset.  Half the cases force a converging
    duplicate pair."""
    count = rng.randint(2, 16)
    pool = ["0" + format(v, "04b") for v in range(16)]
    settled: list[list[str]] = []
    for _ in range(count):
        size = rng.randint(1, 5)
        settled.append(list(rng.sample(pool, size)))
    if rng.random() < 0.5 and count >= 2:
        a, b = rng.sample(range(count), 2)
        settled[b] = list(settled[a])
        if len(settled[a]) >= 2:
            settled[b].reverse()  # same set, different arrival order: converges
    events = []
    for j, items in enumerate(settled):
        stages = sorted(rng.randint(0, horizon) for _ in items)
        for stage, item in zip(stages, items):
            events.append((stage, j, item))
    script = EnumerationScript.from_events(events, horizon)
    tags, l1 = _merge_injective_side()

    def extensions(content: frozenset[str]) -> Iterator[frozenset[str]]:
        return (content | {_merge_tag(i)} for i in itertools.count(500))

    return MergeCase(script, l1, extensions, tags, horizon)
