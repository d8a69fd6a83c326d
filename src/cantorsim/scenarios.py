"""Scripted scenario library.

A scenario bundles fixture file texts with one CLI invocation; the same
texts back the library-level safety tests, the check suites, and the
byte-determinism runs.  The numbers are chosen so every trace stays
monotone: triggers fire on prefixes that carry no dropped 1-bits, matching
the situations the constructions are meant for.
"""

from __future__ import annotations

import os
from typing import Mapping, NamedTuple

__all__ = ["FIXTURE_FILES", "SCENARIOS", "Scenario", "write_fixtures"]


FIXTURE_FILES: Mapping[str, str] = {
    # --- machines: code<TAB>output<TAB>halt_stage ---
    "m_silent.tsv": "# no programs ever halt\n",
    "m_splice.tsv": ("0\t0000\t3\n" "10\t111\t8\n"),
    "m_zero.tsv": "001\t1\t2\n",
    "m_hatm.tsv": ("10\t0\t2\n" "110\t00\t8\n"),
    "m_hatm_recover.tsv": ("10\t0\t2\n" "0\t1\t8\n"),
    "m_mirror.tsv": ("0\t1\t0\n" "10\t11\t0\n" "1100\t0\t4\n"),
    # --- scripts: stage<TAB>index<TAB>kind<TAB>payload ---
    "s_empty.tsv": "# no events\n",
    "s_flat.tsv": "0\t0\tdyadic\t1/2^2\n",
    "s_half.tsv": "0\t0\tdyadic\t1/2^1\n",
    "s_low.tsv": "1\t0\tdyadic\t1/2^5\n",
    "s_recover.tsv": ("1\t0\tdyadic\t1/2^5\n" "7\t0\tdyadic\t1/2^3\n"),
    "s_jump.tsv": "5\t0\tdyadic\t1/2^1\n",
    "s_regret_dup.tsv": ("1\t0\tdyadic\t1/2^5\n" "1\t1\tdyadic\t1/2^5\n"),
    "s_regret_recover.tsv": ("1\t0\tdyadic\t1/2^5\n" "6\t0\tdyadic\t1/2^3\n"),
    "s_beta2.tsv": ("1\t0\tdyadic\t1/2^2\n" "2\t1\tdyadic\t1/2^1\n"),
    "s_beta_tree.tsv": (
        "0\t0\tdyadic\t0/2^0\n" "1\t1\tdyadic\t1/2^2\n" "2\t2\tdyadic\t3/2^2\n"
    ),
    "s_capped.tsv": ("1\t0\tstr\t00\n" "2\t0\tstr\t01\n" "3\t0\tstr\t1\n"),
    # --- listings: one string per line ---
    "l_star.txt": "00\n010\n",
    "l_star_skip.txt": "00\n01\n",
    # --- trees: one node per line ---
    "t_beta.txt": "0\n00\n000\n01\n010\n011\n1\n11\n110\n",
}


class Scenario(NamedTuple):
    name: str
    argv: tuple[str, ...]  # file names resolved against the fixture directory
    # (fixture, depth) of a tree whose rightmost path the beta trace must reach
    tree: tuple[str, int] | None = None

    @property
    def kind(self) -> str:
        return self.argv[1]


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "splice-passthrough",
        ("run", "splice", "--script", "s_flat.tsv", "--machine", "m_silent.tsv", "--c", "0", "--horizon", "8"),
    ),
    Scenario(
        "splice-permanent",
        ("run", "splice", "--script", "s_low.tsv", "--machine", "m_splice.tsv", "--c", "1", "--horizon", "12"),
    ),
    Scenario(
        "splice-recover",
        ("run", "splice", "--script", "s_recover.tsv", "--machine", "m_splice.tsv", "--c", "1", "--horizon", "12"),
    ),
    Scenario(
        "hatm-degenerate-boundary",
        ("run", "hatm", "--script", "s_flat.tsv", "--machine", "m_zero.tsv", "--k", "2", "--horizon", "6"),
    ),
    Scenario(
        "hatm-tracking",
        ("run", "hatm", "--script", "s_empty.tsv", "--machine", "m_hatm.tsv", "--k", "2", "--horizon", "6"),
    ),
    Scenario(
        "hatm-violation",
        ("run", "hatm", "--script", "s_jump.tsv", "--machine", "m_hatm.tsv", "--k", "2", "--horizon", "10"),
    ),
    Scenario(
        "hatm-recover",
        ("run", "hatm", "--script", "s_jump.tsv", "--machine", "m_hatm_recover.tsv", "--k", "2", "--horizon", "10"),
    ),
    Scenario(
        "hatm-mirror-tracking",
        ("run", "hatm", "--script", "s_half.tsv", "--machine", "m_hatm.tsv", "--k", "2", "--horizon", "8", "--mirror"),
    ),
    Scenario(
        "hatm-mirror-parked",
        ("run", "hatm", "--script", "s_half.tsv", "--machine", "m_mirror.tsv", "--k", "2", "--horizon", "8", "--mirror"),
    ),
    Scenario(
        "regret-quiet",
        ("run", "regret", "--script", "s_flat.tsv", "--machine", "m_silent.tsv", "--c", "0", "--horizon", "8"),
    ),
    Scenario(
        "regret-permanent",
        ("run", "regret", "--script", "s_regret_dup.tsv", "--machine", "m_splice.tsv", "--c", "1", "--horizon", "12"),
    ),
    Scenario(
        "regret-recover-padding",
        ("run", "regret", "--script", "s_regret_recover.tsv", "--machine", "m_splice.tsv", "--c", "1", "--horizon", "12"),
    ),
    Scenario(
        "beta-pair",
        ("run", "beta", "--script", "s_beta2.tsv", "--horizon", "6"),
    ),
    Scenario(
        "beta-tree",
        ("run", "beta", "--script", "s_beta_tree.tsv", "--horizon", "8"),
        tree=("t_beta.txt", 3),
    ),
    Scenario(
        "star-cases",
        ("run", "star", "--listing", "l_star.txt", "--horizon", "10"),
    ),
    Scenario(
        "star-skip",
        ("run", "star", "--listing", "l_star_skip.txt", "--horizon", "10"),
    ),
    Scenario(
        "capped-pair",
        ("run", "capped", "--script", "s_capped.tsv", "--cap-n", "2", "--horizon", "5"),
    ),
)


def write_fixtures(directory: str) -> None:
    """Materialize every fixture file into the directory."""
    os.makedirs(directory, exist_ok=True)
    for name, text in FIXTURE_FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
