"""Exact combinatorics on finite binary strings and dyadic rationals.

A finite word over {0, 1} is a plain `str`, everywhere in the package: the
prefix order is `startswith`, concatenation `+`, a prefix a slice, and the
length-lexicographic order the key (len(w), w).  ε is the empty string; an
output or a message shows it as ε, or as '-' in a tab-separated field.
`BitString` is the same `str` checked at the text boundary: its constructor
raises `DomainError` on anything but a 0/1 word, and `BitString.parse`
reads '', 'ε' and '-' as ε.  It equals and hashes as its `str`, and any
slice or concatenation of it is a plain `str` again.

Two value types build on the words: dyadic rationals kept in lowest terms
inside [0, 1], and reduced antichains that canonically represent unions of
cones.  Each is a `__slots__` class whose constructor validates its
arguments and raises `DomainError` on a bad one; an instance is immutable
(assigning or deleting an attribute raises `AttributeError`); and it equals
only an instance of its own type, with a hash that agrees with that
equality, so a `Dyadic` never equals a tuple.  Inside the package,
`trusted_antichain` builds an antichain without the checks, for callers that
hold members already known to be valid; it is not exported.  Nor is
`lenlex`, which lists words in length-lexicographic order, nor are
`word_key` and `key_word`, which map a word to the integer key
int("1" + word, 2) and back: keys order as the words do
length-lexicographically, so the recipes hash, sort and slice sets of words
as sets and ranges of integers (`covered_deltas` returns keys).  All
arithmetic is integer-exact; there is no floating point anywhere because
the constructions compare reals for strict order, where rounding is fatal.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import DomainError, ParseError, records

__all__ = [
    "Antichain",
    "BitString",
    "Dyadic",
    "EMPTY",
    "ONE",
    "Order",
    "ZERO",
    "all_strings",
    "covered_deltas",
    "covered_up_to",
    "grow_covering",
    "is_acceptable",
    "lex_compare_padded",
    "minimal_strings",
    "optimal_covering",
    "prefix_set_measure",
    "rational_of_string",
    "string_of_rational",
    "strings_up_to",
]


class Order(enum.IntEnum):
    """Three-way comparison outcome."""

    LT = -1
    EQ = 0
    GT = 1


class _Value:
    """Base of the package's validating value types; records of plain fields
    are `NamedTuple`s.  A subclass names its fields in `__slots__` (with
    '__dict__' for a `cached_property`), and its `__init__` validates them
    and stores them with `_store`; no assignment follows.  An instance
    equals only an instance of its own class with equal fields, hashes as
    the tuple of its fields (as the one field when there is one), pickles
    through its constructor and shows its fields in its repr.  These methods
    are written once, here: a decorator that `exec`s generated methods, as
    `dataclasses` does, costs about 0.5 ms per class at every import."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._key = attrgetter(*cls._fields)

    def _store(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return other is self or self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class BitString(str):
    """A `str` checked to be a finite word over {0, 1}."""

    __slots__ = ()

    def __new__(cls, bits: str = "") -> "BitString":
        if bits.strip("01"):
            raise DomainError(f"not a 0/1 word: {bits!r}")
        return super().__new__(cls, bits)

    @classmethod
    def parse(cls, text: str) -> "BitString":
        """Accept a 0/1 word; '', 'ε' and '-' all denote the empty word."""
        text = text.strip()
        return cls("" if text in ("ε", "-") else text)

    @property
    def bits(self) -> str:
        """The word as a plain `str`, as `cantorbench/gate.py` reads it."""
        return str(self)


def parse_words(text: str, source: str, several: bool = False) -> list:
    """The word of each line, in order, read by `errors.records` ('#' starts a
    comment), or with ``several`` the tuple of each line's whitespace-separated
    words; a line or token that is not a word is a parse error naming its line."""
    lines = []
    for lineno, (line,) in records(text, sep=None):
        try:
            words = tuple(map(BitString.parse, line.split() if several else [line]))
        except DomainError as exc:
            raise ParseError(str(exc), source=source, line=lineno)
        lines.append(words if several else words[0])
    return lines


EMPTY = ""


def lenlex(words: Iterable[str]) -> list[str]:
    """The words in length-lexicographic order."""
    out = sorted(words)
    out.sort(key=len)  # stable: lexicographic within a length
    return out


def word_key(word: str) -> int:
    """The integer key of a word: its bits read in binary after a leading 1,
    so ε has key 1 and the n-bit word of value v has key 2ⁿ + v.  Keys of
    shorter words are shorter integers, and at one length the key order is
    the value order, so keys order exactly as the words length-
    lexicographically, and the n-bit values [lo, hi) are the key range
    [2ⁿ + lo, 2ⁿ + hi)."""
    return int("1" + word, 2)


def key_word(key: int) -> str:
    """The word of an integer key: its binary digits after the leading 1."""
    return format(key, "b")[1:]


# the longest words kept whole by _cached_words: the default check suites ask
# for no longer ones, and 2^11 − 1 words in all stay small
_CACHED_WORD_LENGTH = 10


@lru_cache(maxsize=_CACHED_WORD_LENGTH + 1)
def _cached_words(length: int) -> tuple[str, ...]:
    """Every word of a length ≤ _CACHED_WORD_LENGTH, lexicographically, built
    once per process."""
    if not length:
        return ("",)
    spec = f"0{length}b"
    return tuple(format(v, spec) for v in range(1 << length))


def all_strings(length: int, lo: int = 0, hi: int | None = None) -> Iterator[str]:
    """The words of the given length whose binary value v satisfies
    lo ≤ v < hi (every word when hi is None), in lexicographic order: each
    is v written in binary and zero-filled to the length, ε for length 0.
    A short length with a range inside [0, 2^length] is a slice of its
    cached words."""
    if hi is None:
        hi = 1 << length
    if length <= _CACHED_WORD_LENGTH and 0 <= lo and hi <= 1 << length:
        yield from _cached_words(length)[lo:hi]
        return
    for v in range(lo, hi):
        yield format(v, "b").zfill(length) if length else ""


def strings_up_to(length: int) -> Iterator[str]:
    """All words of length ≤ the bound, in length-lexicographic order."""
    for n in range(length + 1):
        yield from all_strings(n)


def lex_compare_padded(a: str, b: str) -> Order:
    """Compare the zero-padded extensions a0^ω and b0^ω lexicographically."""
    n = max(len(a), len(b))
    x, y = a.ljust(n, "0"), b.ljust(n, "0")
    if x == y:
        return Order.EQ
    return Order.LT if x < y else Order.GT


class Dyadic(_Value):
    """num / 2**exp in lowest terms, always within [0, 1].

    Canonical form: num is odd or zero, and zero carries exponent zero, so
    structural equality coincides with numeric equality.
    """

    __slots__ = ("num", "exp")
    num: int
    exp: int

    def __init__(self, num: int = 0, exp: int = 0) -> None:
        if num < 0 or exp < 0:
            raise DomainError(f"negative dyadic parts: {num}/2^{exp}")
        if num:
            # strip the common factors of 2: num's trailing zeroes, at most exp of them
            shift = min((num & -num).bit_length() - 1, exp)
            n, e = num >> shift, exp - shift
            if n > (1 << e):
                raise DomainError(f"dyadic exceeds 1: {num}/2^{exp}")
        else:
            n = e = 0
        _set_num(self, n)
        _set_exp(self, e)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        text = text.strip()
        if "/" not in text:
            return cls(int(text), 0)
        left, right = text.split("/", 1)
        if not right.startswith("2^"):
            raise DomainError(f"expected a/2^b, got {text!r}")
        return cls(int(left), int(right[2:]))

    def render(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __str__(self) -> str:
        return self.render()

    # the annotation is a string (PEP 563) that imports fractions only when
    # typing.get_type_hints evaluates it, so a run, which never reads a dyadic
    # as a Fraction, does not load fractions (and decimal)
    def as_fraction(self) -> __import__("fractions").Fraction:
        from fractions import Fraction

        return Fraction(self.num, 1 << self.exp)

    def __lt__(self, other: "Dyadic") -> bool:
        return self.num << other.exp < other.num << self.exp

    def __le__(self, other: "Dyadic") -> bool:
        return self.num << other.exp <= other.num << self.exp

    def __gt__(self, other: "Dyadic") -> bool:
        return self.num << other.exp > other.num << self.exp

    def __ge__(self, other: "Dyadic") -> bool:
        return self.num << other.exp >= other.num << self.exp

    def __add__(self, other: "Dyadic") -> "Dyadic":
        exp = max(self.exp, other.exp)
        num = (self.num << (exp - self.exp)) + (other.num << (exp - other.exp))
        return Dyadic(num, exp)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        exp = max(self.exp, other.exp)
        num = (self.num << (exp - self.exp)) - (other.num << (exp - other.exp))
        if num < 0:
            raise DomainError("dyadic subtraction went below 0")
        return Dyadic(num, exp)

    def scaled(self, k: int) -> "Dyadic":
        """The value divided by 2**k."""
        if k < 0:
            raise DomainError("scale exponent must be ≥ 0")
        return Dyadic(self.num, self.exp + k)

    def in_cone(self, prefix: str) -> "Dyadic":
        """The value of prefix followed by this real's expansion."""
        return rational_of_string(prefix) + self.scaled(len(prefix))

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        return cls(1, k)


_set_num = Dyadic.num.__set__  # type: ignore[attr-defined]
_set_exp = Dyadic.exp.__set__  # type: ignore[attr-defined]

ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)


def rational_of_string(s: str) -> Dyadic:
    """Σ s(i)·2^{-(i+1)}: the value of s followed by zeroes."""
    if not s:
        return ZERO
    return Dyadic(int(s, 2), len(s))


def string_of_rational(q: Dyadic) -> str:
    """The finite expansion of q ending in 1 (ε for q = 0); requires q < 1."""
    if q == ONE:
        raise DomainError("q must lie in [0, 1)")
    if q.num == 0:
        return EMPTY
    return format(q.num, "b").zfill(q.exp)


class Antichain(_Value):
    """A reduced antichain: the minimal representative of a filter-closed set.

    No member is a prefix of another, and no two members are siblings, so
    the represented set of covered strings determines the members and vice
    versa.  Members are kept in length-lexicographic order.
    """

    __slots__ = ("members",)
    members: tuple[str, ...]

    def __init__(self, members: Iterable[str] = ()) -> None:
        distinct = set(members)
        words = tuple(lenlex(distinct))
        for k, b in enumerate(words):
            if b.strip("01"):
                raise DomainError(f"not a 0/1 word: {b!r}")
            if k and b.startswith(words[:k]):  # of the earlier words, only a shorter one can match
                prefix = next(w for w in words[:k] if b.startswith(w))
                raise DomainError(f"antichain violation: {prefix or 'ε'} ⪯ {b}")
            if b[-1:] == "1" and b[:-1] + "0" in distinct:
                raise DomainError(f"not reduced: both children of {b[:-1] or 'ε'} present")
        _set_members(self, words)

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def covers(self, s: str) -> bool:
        """Membership in the represented filter-closed set: s extends a member.
        The members of a reduced antichain are the minimal strings whose cones
        lie inside the union, so this also says whether the whole cone [s]
        lies under the member cones."""
        return s.startswith(self.members)

    def total_bits(self) -> int:
        return sum(map(len, self.members))

    def render(self) -> str:
        if not self.members:
            return "-"
        return ",".join(m or "ε" for m in self.members)


_set_members = Antichain.members.__set__  # type: ignore[attr-defined]


def trusted_antichain(members: tuple[str, ...]) -> Antichain:
    """The Antichain of members the caller already holds as a reduced
    antichain in length-lexicographic order: the constructor's result,
    without its sort and checks."""
    a = object.__new__(Antichain)
    _set_members(a, members)
    return a


def _spans(antichain: Antichain, n: int) -> list[tuple[int, int]]:
    """The keys of the n-bit words that the members cover, as sorted disjoint
    intervals: a member of key k and length l ≤ n covers the key range
    [k·2^(n−l), (k+1)·2^(n−l)), its extensions of length n."""
    return sorted(
        (k << n - len(m), k + 1 << n - len(m))
        for m in antichain.members
        if len(m) <= n
        for k in (word_key(m),)
    )


def covered_deltas(old: Antichain, new: Antichain, length: int) -> list[int]:
    """The keys of the strings of length ≤ the bound that new covers and old
    does not, in increasing order: at each length, new's intervals minus
    old's, each remaining interval added as one range."""
    out: list[int] = []
    for n in range(length + 1):
        holes = _spans(old, n)
        for lo, hi in _spans(new, n):
            for a, b in holes:
                if a >= hi:
                    break
                if b > lo:
                    out += range(lo, a)
                    lo = b
            out += range(lo, hi)
    return out


def covered_up_to(antichain: Antichain, depth: int) -> frozenset[str]:
    """Members of the represented filter-closed set up to the given length:
    the words of the keys that the antichain covers over the empty one."""
    return frozenset(map(key_word, covered_deltas(Antichain(), antichain, depth)))


def _minimal_bits(strings: Iterable[str]) -> set[str]:
    """The members with no proper prefix among the members."""
    bits = set(strings)
    return {b for b in bits if not any(b[:i] in bits for i in range(len(b)))}


def prefix_set_measure(strings: Iterable[str]) -> Dyadic:
    """Exact fair-coin measure of the union of cones [σ], σ in the set.

    Strings extending another member are dropped first so the remaining
    cones are disjoint and the measures add.
    """
    minimal = _minimal_bits(strings)
    if not minimal:
        return ZERO
    exp = max(len(b) for b in minimal)
    num = sum(1 << (exp - len(b)) for b in minimal)
    return Dyadic(num, exp)


def minimal_strings(strings: Iterable[str]) -> frozenset[str]:
    """The members with no proper prefix among the members."""
    return frozenset(_minimal_bits(strings))


def optimal_covering(strings: Iterable[str]) -> Antichain:
    """The minimal strings whose cones are contained in the union of cones.

    Members that extend another member add nothing and are dropped; the rest
    form an antichain of disjoint cones.  Two sibling cones make up their
    parent's cone, so sibling pairs are merged into their parent from a
    worklist until no pair is left; what remains is the reduced antichain.
    """
    nodes = _minimal_bits(strings)
    work = list(nodes)
    while work:
        b = work.pop()
        if b and b in nodes:
            sibling = b[:-1] + ("1" if b[-1] == "0" else "0")
            if sibling in nodes:
                nodes -= {b, sibling}
                nodes.add(b[:-1])
                work.append(b[:-1])
    return Antichain(nodes)


def grow_covering(antichain: Antichain, s: str) -> Antichain:
    """The optimal covering of a reduced antichain's members and s, grown in
    one step: the antichain itself when it covers s; otherwise s takes the
    place of the members extending it and, while its sibling is a member,
    merges with it into their parent.  No member is a prefix of s, so none
    extends the parent but the sibling."""
    if antichain.covers(s):
        return antichain
    kept = {m for m in antichain.members if not m.startswith(s)}
    while s and (sibling := s[:-1] + ("1" if s[-1] == "0" else "0")) in kept:
        kept.remove(sibling)
        s = s[:-1]
    kept.add(s)
    return trusted_antichain(tuple(lenlex(kept)))


def is_acceptable(strings: Iterable[str]) -> bool:
    """Whether the optimal covering has even cardinality (the empty set
    counts: its covering is empty and 0 is even)."""
    return len(optimal_covering(strings)) % 2 == 0
