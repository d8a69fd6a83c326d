"""Brute-force check suites behind the CLI ``check`` subcommand.

Each suite compares the fast implementations against the independent oracles, on
seeded inputs from `draws`, at configurable desk-scale bounds and reports
counterexamples verbatim.  A construction's safety properties are stated once,
by its verifier in `verify`: a suite calls it and prefixes each finding with its
case ("suite 3: …").  Reports carry no timing, so reruns print the same bytes.

`MergeCase` and the splice, hatm, regret and merge verifiers are re-exported
unchanged because `cantorbench/gate.py` imports them from here.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Iterator, NamedTuple

from .classes import (
    Tree, diagonalize, graft_points, measure_capped_enumeration, paths_at_depth,
    tree_from_halting_oracle, tree_of_complement,
)
from .complexity import (
    INFINITE, compute_padding, intersect_randomness, k_approx, least_failing_length, omega_approx,
    randomness_class_tree,
)
from .constructions import beta_max, merge_rows, odd_ones_real_enumeration
from .coverings import (
    covering_antichains, even_covering_family, odd_covering_family, star_construction,
)
from .draws import (
    diagonal_suite, make_merge_case, random_dyadic_script, random_dyadic_trace, random_listing,
    random_machine, random_string_script, random_string_set,
)
from .dyadic import (
    ONE, ZERO, Dyadic, Order, is_acceptable, key_word, lenlex, lex_compare_padded, optimal_covering,
    prefix_set_measure, rational_of_string, string_of_rational, strings_up_to, word_key,
)
from .errors import InputError
from .oracles import (
    brute_covering_families, brute_halted_complexities, brute_k_approx, brute_least_failing_length,
    brute_nodes, brute_omega_approx, brute_optimal_covering, expansion_at_depth, greedy_expansion,
    inclusion_odd_ones_extensions, padding_holds, rightmost_path, set_difference_deltas,
    sibling_merge_closure,
)
from .recipes import cut_deltas, odd_ones_extensions
from .runs import Replay, replay
from .scenarios import FIXTURE_FILES, SCENARIOS, Scenario
from .streams import EnumerationScript, ScriptEvent, event_blocks, real_from_ce_set
from .verify import (
    MergeCase, verify_beta, verify_capped, verify_coverfamily, verify_diagonalize, verify_hatm,
    verify_merge, verify_oddones, verify_regret, verify_splice, verify_star,
)

__all__ = [
    "CheckReport", "SUITES", "Suite", "build_scenario", "check_classes", "check_complexity",
    "check_constructions", "check_coverings", "check_dyadic", "run_suite", "verify_hatm",
    "verify_merge", "verify_regret", "verify_splice",
]


class CheckReport:
    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.cases = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def lines(self) -> list[str]:
        status = "ok" if self.ok else "FAIL"
        out = [f"{status}\t{self.suite}\t{self.cases} cases"]
        out.extend(f"counterexample\t{m}" for m in self.failures[:20])
        if len(self.failures) > 20:
            out.append(f"... {len(self.failures) - 20} more failures")
        return out


# ---------------------------------------------------------------------------
# scenario building and merge cases


def build_scenario(sc: Scenario) -> Replay:
    """Replay a scenario's command line over the fixture texts, through the
    same builders the CLI runs."""
    return replay(sc.argv, FIXTURE_FILES.__getitem__)


def _keys(words: Iterable[str]) -> frozenset[int]:
    return frozenset(map(word_key, words))


def merge_case_output(case: MergeCase) -> EnumerationScript:
    """The merge's output on a merge case, merged as `run merge` merges:
    `merge_rows` on the keys (`dyadic.word_key`) of the case's words, and
    the row blocks read back as words, one event per item."""

    def extensions(content: frozenset[int]) -> Iterator[frozenset[int]]:
        return map(_keys, case.picker(frozenset(map(key_word, content))))

    blocks = event_blocks(case.script.events)
    rows = merge_rows(map(_keys, case.l1), blocks, extensions, case.horizon)
    return EnumerationScript(
        tuple(ScriptEvent(s, j, key_word(k)) for s, j, keys in rows for k in keys), case.horizon
    )


# ---------------------------------------------------------------------------
# suites


def _group_classes(seq, key):
    """The runs of equal keys in the sorted sequence, each as a set."""
    return [set(run) for _, run in itertools.groupby(sorted(seq, key=key), key=key)]


def check_dyadic(max_len: int = 10, sets: int = 200, seed: int = 0) -> CheckReport:
    rep = CheckReport("dyadic")
    for s in strings_up_to(max_len):
        if s[-1:] == "0":
            continue
        rep.cases += 1
        back = string_of_rational(rational_of_string(s))
        if back != s:
            rep.fail(f"round trip {s or 'ε'} -> {back or 'ε'}")
    for exp in range(9):
        for num in range(1 << exp):
            rep.cases += 1
            q = Dyadic(num, exp)
            if string_of_rational(q) != greedy_expansion(q):
                rep.fail(f"expansion of {q} disagrees with the greedy oracle")
    strs = list(strings_up_to(9))
    by_lex = _group_classes(strs, key=lambda s: s.ljust(9, "0"))
    by_val = _group_classes(strs, key=lambda s: rational_of_string(s).as_fraction())
    rep.cases += 1
    if by_lex != by_val:
        rep.fail("order transport broken at length 9")
    valued = [(s, rational_of_string(s)) for s in strings_up_to(5)]
    for a, va in valued:
        for b, vb in valued:
            rep.cases += 1
            want = Order.LT if va < vb else Order.GT if va > vb else Order.EQ
            if lex_compare_padded(a, b) is not want:
                rep.fail(f"lex_compare_padded({a or 'ε'}, {b or 'ε'})")
    rng = random.Random(seed)
    for _ in range(sets):
        rep.cases += 1
        sset = random_string_set(rng, 6, 8)
        mu = prefix_set_measure(sset)
        total = ZERO
        for member in optimal_covering(sset):
            total = total + Dyadic.pow2(len(member))
        if mu != total:
            rep.fail(f"measure additivity on {sorted(sset)}")
        depth = max((len(s) for s in sset), default=0)
        leaves = expansion_at_depth(sset, depth)
        if mu != Dyadic(len(leaves), depth):
            rep.fail(f"measure vs expansion on {sorted(sset)}")
    return rep


def check_coverings(depth: int = 3, random_sets: int = 300, seed: int = 0) -> CheckReport:
    rep = CheckReport("coverings")
    pool = list(strings_up_to(depth))
    for size in range(4):
        for combo in itertools.combinations(pool, size):
            rep.cases += 1
            if optimal_covering(combo) != brute_optimal_covering(combo):
                rep.fail(f"covering of {{{','.join(s or 'ε' for s in combo)}}}")
    rng = random.Random(seed)
    for _ in range(random_sets):
        rep.cases += 1
        sset = random_string_set(rng, 5, 6)
        if optimal_covering(sset) != brute_optimal_covering(sset):
            rep.fail(f"covering of {sorted(sset)}")
    words = list(strings_up_to(8))
    for _ in range(100):
        rep.cases += 1
        y = random_string_set(rng, 4, 6)
        closure = sibling_merge_closure(y, 8)
        anti = optimal_covering(y)
        for t in words:
            if anti.covers(t) != (t in closure):
                rep.fail(f"filter closure of {sorted(y)} differs at {t or 'ε'}")
                break
    rep.cases += 3
    if not is_acceptable(()):
        rep.fail("empty set should be acceptable")
    if is_acceptable(("0", "1")):
        rep.fail("{0,1} should not be acceptable")
    if not is_acceptable(("00", "10")):
        rep.fail("{00,10} should be acceptable")
    for _ in range(40):
        listing = random_listing(rng)
        snaps = star_construction(listing, horizon=max(len(listing), 1))
        rep.cases += len(snaps)
        rep.failures += verify_star(listing, snaps)
    small = itertools.takewhile(lambda a: a.total_bits() <= 10, covering_antichains(odd=True))
    families = list(itertools.islice(small, 100))
    rep.cases += len(families)
    rep.failures += verify_coverfamily(families, odd=True)
    exhaustive = [a for total in range(7) for a in brute_covering_families(total)]
    searched = {odd: [a for a in exhaustive if len(a) % 2 == odd] for odd in (False, True)}
    for odd in (False, True):
        rep.cases += 1
        listed = itertools.takewhile(lambda a: a.total_bits() <= 6, covering_antichains(odd))
        if list(listed) != searched[odd]:
            rep.fail(f"{'odd' if odd else 'even'} family up to 6 bits differs from the search")
    # the search lists 135 odd and 161 even families, so it holds every index below 100
    lookups = [(i, odd) for i in range(100) for odd in (False, True)]
    rng.shuffle(lookups)
    for i, odd in lookups:
        rep.cases += 1
        got = (odd_covering_family if odd else even_covering_family)(i)
        if got != searched[odd][i]:
            rep.fail(f"{'odd' if odd else 'even'} covering family {i} is {got.render()}")
    return rep


def check_complexity(machines: int = 20, tree_depth: int = 9, seed: int = 0) -> CheckReport:
    rep = CheckReport("complexity")
    rng = random.Random(seed)
    for mi in range(machines):
        machine = random_machine(rng)
        stages = sorted({p.halt_stage for p in machine.programs} | {0})
        outputs = lenlex({p.output for p in machine.programs})
        prev_k = {o: INFINITE for o in outputs}
        prev_omega = ZERO
        for t in stages:
            rep.cases += 1
            for o in outputs:
                k = k_approx(machine, o, t)
                if k > prev_k[o]:
                    rep.fail(f"machine {mi}: K of {o or 'ε'} increased at stage {t}")
                prev_k[o] = k
            om = omega_approx(machine, t)
            if om < prev_omega:
                rep.fail(f"machine {mi}: mass decreased at stage {t}")
            if machine.strict_kraft and not om < ONE:
                rep.fail(f"machine {mi}: mass reached 1 under a strict budget")
            prev_omega = om
        never = "0" * 13  # longer than every random output
        for t in range(machine.max_halt_stage() + 3):
            rep.cases += 1
            if machine.halted_complexities(t) != brute_halted_complexities(machine, t):
                rep.fail(f"machine {mi}: halted complexities differ from the scan at stage {t}")
            if omega_approx(machine, t) != brute_omega_approx(machine, t):
                rep.fail(f"machine {mi}: mass differs from the scan at stage {t}")
            for o in (*outputs, never):
                if k_approx(machine, o, t) != brute_k_approx(machine, o, t):
                    rep.fail(f"machine {mi}: K of {o or 'ε'} differs from the scan at stage {t}")
            # one output's real per stage keeps the scan oracle cheap
            o, c = outputs[t % len(outputs)], t % 3
            x = rational_of_string(o)
            if least_failing_length(machine, x, c, t) != brute_least_failing_length(machine, x, c, t):
                rep.fail(f"machine {mi}: least failing length of {o or 'ε'} differs at c={c}, t={t}")
        for c in range(5):
            for t in stages:
                rep.cases += 1
                table = machine.halted_complexities(t)
                failing = [b for b, k in table.items() if k < len(b) - c and len(b) <= 12]
                if not prefix_set_measure(failing) <= omega_approx(machine, t).scaled(c):
                    rep.fail(f"machine {mi}: measure bound broken at c={c}, t={t}")
        if mi < 3:
            c = rng.randrange(3)
            t = stages[-1]
            tree = randomness_class_tree(machine, c, t, tree_depth)
            table = machine.halted_complexities(t)
            failing = [b for b, k in table.items() if k < len(b) - c and len(b) <= tree_depth]
            rep.cases += 1
            direct = ONE - prefix_set_measure(failing)
            via_paths = Dyadic(len(paths_at_depth(tree, tree_depth)), tree_depth)
            if direct != via_paths:
                rep.fail(f"machine {mi}: tree paths disagree with the complement measure")
            # P ∩ R_c for a tree P from its own generator, so the draws above
            # stay as they are; the expected nodes come from the scans alone
            draw = random.Random(mi)
            drawn = tree_of_complement(random_string_set(draw, tree_depth, 3, 1), tree_depth)
            # a node is kept when its parent was kept and its own K_t meets the
            # constant: in length-lexicographic order the parent comes first, so a
            # node is kept exactly when each of its prefixes meets the constant
            halted = brute_halted_complexities(machine, t)
            kept: set[str] = set()
            for s in lenlex(brute_nodes(drawn)):
                if (not s or s[:-1] in kept) and halted.get(s, INFINITE) >= len(s) - c:
                    kept.add(s)
            if intersect_randomness(drawn, machine, c, t).nodes != kept:
                rep.fail(f"machine {mi}: intersection with the class differs from the scan")
            if intersect_randomness(tree, machine, c, t) != tree:
                rep.fail(f"machine {mi}: the class tree is not its own intersection")
    for target in range(31):
        rep.cases += 1
        p = compute_padding(target, 0)
        if not padding_holds(p, target):
            rep.fail(f"padding for target {target} does not satisfy the inequality")
        if any(padding_holds(q, target) for q in range(1, p)):
            rep.fail(f"padding for target {target} is not minimal")
    return rep


def check_constructions(merge_cases: int = 25, seed: int = 0) -> CheckReport:
    rep = CheckReport("constructions")
    for sc in SCENARIOS:
        rep.cases += 1
        run = build_scenario(sc)
        errs = run.check()
        if sc.tree is not None:
            name, depth = sc.tree
            tree = Tree.parse(FIXTURE_FILES[name], depth=depth)
            path = rightmost_path(tree, tree.depth)
            trace = run.result
            if path is None or trace.value_at(trace.horizon) != rational_of_string(path):
                errs.append("beta horizon value differs from the rightmost path")
        for e in errs:
            rep.fail(f"{sc.name}: {e}")
    rng = random.Random(seed)
    for ci in range(merge_cases):
        rep.cases += 1
        case = make_merge_case(rng, horizon=100)
        for e in verify_merge(merge_case_output(case), case):
            rep.fail(f"merge case {ci}: {e}")
    rep.cases += 512  # the strings of length ≤ 10
    rep.failures += verify_oddones([odd_ones_real_enumeration(i) for i in range(512)])
    for _ in range(30):
        rep.cases += 1
        script = random_dyadic_script(rng)
        family = [real_from_ce_set(script, e) for e in script.indices()]
        if not family:
            continue
        for e in verify_beta(beta_max(family, script.horizon), family):
            rep.fail(f"random family: {e}")
    for _ in range(40):
        rep.cases += 1
        values = random_dyadic_trace(rng)
        length = rng.randint(0, 6)
        keyed = [(s, key_word(k)) for s, k in cut_deltas(values, length)]
        if keyed != set_difference_deltas(values, length):
            shown = " ".join(v.render() for v in values)
            rep.fail(f"cut deltas of {shown} at length {length} differ from the set differences")
    extensions = {n: (odd_ones_extensions(n), inclusion_odd_ones_extensions(n)) for n in range(7)}
    for _ in range(60):
        rep.cases += 1
        length = rng.randint(0, 6)
        content = random_string_set(rng, length + 1, 4)
        count = rng.randint(1, 4)
        keyed, inclusion = extensions[length]
        fast = itertools.islice(keyed(frozenset(map(word_key, content))), count)
        reference = list(itertools.islice(inclusion(content), count))
        if [frozenset(map(key_word, v)) for v in fast] != reference:
            shown = " ".join(sorted(t or "-" for t in content))
            rep.fail(f"first {count} odd-ones extensions of {{{shown}}} at length {length} differ")
    return rep


def check_classes(diag_depth: int = 10, capped_scripts: int = 50, seed: int = 0) -> CheckReport:
    if diag_depth < 2:  # a diagonal suite draws at least one tree, below its depth
        raise InputError(f"suite classes takes --depth at least 2, got {diag_depth}")
    rep = CheckReport("classes")
    rng = random.Random(seed)
    for si in range(15):
        rep.cases += 1
        trees = diagonal_suite(rng, rng.randint(1, min(8, diag_depth - 1)), diag_depth)
        taus = graft_points(trees, diag_depth)
        combined = diagonalize(trees[0], taus)
        for e in verify_diagonalize(trees, diag_depth, taus, combined):
            rep.fail(f"suite {si}: {e}")
    all_paths = set(paths_at_depth(Tree(6), 6))
    # per final set of script strings, all of length ≤ 6: whether the
    # complement tree's paths are the words its depth-6 expansion leaves out
    complement_ok: dict[frozenset[str], bool] = {}
    for ci in range(capped_scripts):
        script = random_string_script(rng)
        for n in range(1, 9):
            rep.cases += 1
            replays = measure_capped_enumeration(script, n, script.horizon)
            for e in verify_capped(script, n, replays):
                rep.fail(f"script {ci}: {e}")
            for e, replay in replays.items():
                final = replay.final()
                if final not in complement_ok:
                    leftover = all_paths - expansion_at_depth(final, 6)
                    paths = paths_at_depth(tree_of_complement(final, 6), 6)
                    complement_ok[final] = leftover == set(paths)
                if not complement_ok[final]:
                    rep.fail(f"script {ci}: complement view broken for index {e}")
    words = list(strings_up_to(7))
    for oi in range(20):
        rep.cases += 1
        halted = optimal_covering(random_string_set(rng, 5, 4, 1))
        budgets = {m: len(m) + rng.randint(0, 2) for m in halted}

        halts = {s: any(s.startswith(b) and len(s) >= budgets[b] for b in budgets) for s in words}
        tree = tree_from_halting_oracle(lambda s, e: halts[s], 0, 7)
        # a word is on the tree when its parent is and it is a node itself;
        # length-lexicographic order decides the parent first
        on_tree: set[str] = set()
        for s in words:
            if (not s or s[:-1] in on_tree) and s in tree.nodes:
                on_tree.add(s)
            if (s in on_tree) == halts[s]:
                rep.fail(f"oracle case {oi}: membership mismatch at {s or 'ε'}")
                break
    return rep


class Suite(NamedTuple):
    """A `check` suite: its function, the parameter of that function that
    each `check` flag it takes sets, by flag name, the largest value of each
    flag whose work grows fast with it, and how that work grows."""

    run: Callable[..., CheckReport]
    params: dict[str, str]
    caps: dict[str, int] = {}
    growth: str = "exponentially"


# The caps, each run in at most 2 s on a 2-core host (Python 3.11.7, in-process,
# where every suite at its defaults takes 0.03–0.07 s):
# - dyadic --len 18 (0.6 s): every word of length ≤ len is round-tripped,
#   2^(len+1);
# - coverings --depth 5 (1.3 s): every set of at most 3 of the 2^(depth+1) − 1
#   words of length ≤ depth is covered, about 2^(3·depth+2)/3 sets;
# - complexity --depth 15 (0.3 s): the oracle lists each of three trees' nodes
#   of length ≤ depth, 2^(depth+1) words per tree;
# - classes --depth 250 (2.0 s): the diagonal cases build and graft trees with
#   a depth-long spine; the time grows about as the square of the depth
#   (0.29 s at 100, 1.2 s at 200, 2.7 s at 300).
SUITES: dict[str, Suite] = {
    "dyadic": Suite(check_dyadic, {"cases": "sets", "len": "max_len"}, {"len": 18}),
    "coverings": Suite(
        check_coverings, {"cases": "random_sets", "depth": "depth"}, {"depth": 5}
    ),
    "complexity": Suite(
        check_complexity, {"cases": "machines", "depth": "tree_depth"}, {"depth": 15}
    ),
    "constructions": Suite(check_constructions, {"cases": "merge_cases"}),
    "classes": Suite(
        check_classes, {"cases": "capped_scripts", "depth": "diag_depth"}, {"depth": 250},
        "polynomially",
    ),
}


def run_suite(name: str, seed: int = 0, **flags: int | None) -> CheckReport:
    """Run the named suite with the seed.  Each flag given (`cases`, `depth`
    or `len`; None is not given) sets the suite parameter SUITES names for
    it; a flag the suite does not take, or a value over the flag's cap, is an
    input error raised before any work."""
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite = SUITES[name]
    kwargs = {}
    for flag, value in flags.items():
        if value is None:
            continue
        if flag not in suite.params:
            raise InputError(f"suite {name} takes no --{flag}")
        if value > suite.caps.get(flag, value):
            raise InputError(
                f"suite {name} takes --{flag} at most {suite.caps[flag]}, got {value}"
                f" (its work grows {suite.growth} with the value)"
            )
        kwargs[suite.params[flag]] = value
    return suite.run(seed=seed, **kwargs)
