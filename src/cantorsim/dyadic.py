"""Exact combinatorics on finite binary strings and dyadic rationals.

Everything downstream builds on three value types: bit strings carrying the
prefix partial order and the length-lexicographic total order, dyadic
rationals kept in lowest terms inside [0, 1], and reduced antichains that
canonically represent unions of cones.  All arithmetic is integer-exact;
there is no floating point anywhere because the constructions compare reals
for strict order, where rounding is fatal.

The three types share one contract.  Each is a `__slots__` class whose
constructor validates its arguments and raises `DomainError` on a bad one;
an instance is immutable (assigning or deleting an attribute raises
`AttributeError`); and it equals only an instance of its own type, with a
hash that agrees with that equality, so a `BitString` never equals its
`str` and a `Dyadic` never equals a tuple.  Inside the package,
`trusted_bitstring` and `trusted_antichain` build the same values without
the checks, for callers that hold words or members already known to be
valid; they are not exported.  Nor are `word_key` and `key_word`, which map
a word to the integer key int("1" + word, 2) and back: keys order as the
words do length-lexicographically, so the recipes hash, sort and slice sets
of words as sets and ranges of integers (`covered_deltas` yields keys).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DomainError

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
    """Base of the value types: slots only, and no assignment after the
    constructor has validated and stored the fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BitString(_Value):
    """A finite word over {0, 1}; the empty word is written ε."""

    __slots__ = ("bits",)
    bits: str

    def __init__(self, bits: str = "") -> None:
        if bits.strip("01"):
            raise DomainError(f"not a 0/1 word: {bits!r}")
        _set_bits(self, bits)

    def __repr__(self) -> str:
        return f"BitString(bits={self.bits!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.bits == other.bits  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.bits)

    def __reduce__(self) -> tuple:
        return BitString, (self.bits,)

    @classmethod
    def parse(cls, text: str) -> "BitString":
        """Accept a 0/1 word; '', 'ε' and '-' all denote the empty word."""
        text = text.strip()
        if text in ("", "ε", "-"):
            return cls("")
        return cls(text)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits or "ε"

    def display(self) -> str:
        """Render for tab-separated CLI output; ε shows as '-'."""
        return self.bits or "-"

    @property
    def lenlex_key(self) -> tuple[int, str]:
        return (len(self.bits), self.bits)

    def cat(self, other: "BitString") -> "BitString":
        return BitString(self.bits + other.bits)

    def take(self, n: int) -> "BitString":
        return BitString(self.bits[:n])

    def parent(self) -> "BitString":
        if not self.bits:
            raise DomainError("ε has no parent")
        return BitString(self.bits[:-1])

    def sibling(self) -> "BitString":
        if not self.bits:
            raise DomainError("ε has no sibling")
        flipped = "1" if self.bits[-1] == "0" else "0"
        return BitString(self.bits[:-1] + flipped)

    def is_prefix_of(self, other: "BitString") -> bool:
        return other.bits.startswith(self.bits)

    def comparable(self, other: "BitString") -> bool:
        return self.is_prefix_of(other) or other.is_prefix_of(self)

    def ones(self) -> int:
        return self.bits.count("1")

    def padded(self, n: int) -> str:
        """Raw bits extended with zeroes up to length n (never truncates)."""
        return self.bits + "0" * (n - len(self.bits))


_set_bits = BitString.bits.__set__  # type: ignore[attr-defined]


def trusted_bitstring(bits: str) -> BitString:
    """The BitString of a word the caller has already checked to be 0/1:
    the constructor's result, without its check."""
    b = object.__new__(BitString)
    _set_bits(b, bits)
    return b


EMPTY = BitString("")


def word_key(word: BitString) -> int:
    """The integer key of a word: its bits read in binary after a leading 1,
    so ε has key 1 and the n-bit word of value v has key 2ⁿ + v.  Keys of
    shorter words are shorter integers, and at one length the key order is
    the value order, so keys order exactly as the words length-
    lexicographically, and the n-bit values [lo, hi) are the key range
    [2ⁿ + lo, 2ⁿ + hi)."""
    return int("1" + word.bits, 2)


def key_word(key: int) -> BitString:
    """The word of an integer key: its binary digits after the leading 1."""
    return trusted_bitstring(format(key, "b")[1:])


# the longest words kept whole by _cached_words: the default check suites ask
# for no longer ones, and 2^11 − 1 words in all stay small
_CACHED_WORD_LENGTH = 10


@lru_cache(maxsize=_CACHED_WORD_LENGTH + 1)
def _cached_words(length: int) -> tuple[BitString, ...]:
    """Every word of a length ≤ _CACHED_WORD_LENGTH, lexicographically, built
    once per process; `format` writes only 0/1, so the words need no check."""
    if not length:
        return (EMPTY,)
    spec = f"0{length}b"
    return tuple(trusted_bitstring(format(v, spec)) for v in range(1 << length))


def all_strings(length: int, lo: int = 0, hi: int | None = None) -> Iterator[BitString]:
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
        yield BitString(format(v, "b").zfill(length) if length else "")


def strings_up_to(length: int) -> Iterator[BitString]:
    """All words of length ≤ the bound, in length-lexicographic order."""
    for n in range(length + 1):
        yield from all_strings(n)


def lex_compare_padded(a: BitString, b: BitString) -> Order:
    """Compare the zero-padded extensions a0^ω and b0^ω lexicographically."""
    n = max(len(a), len(b))
    x, y = a.padded(n), b.padded(n)
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

    def __repr__(self) -> str:
        return f"Dyadic(num={self.num!r}, exp={self.exp!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.num == other.num and self.exp == other.exp  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def __reduce__(self) -> tuple:
        return Dyadic, (self.num, self.exp)

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

    def as_fraction(self) -> Fraction:
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

    def in_cone(self, prefix: BitString) -> "Dyadic":
        """The value of prefix followed by this real's expansion."""
        return rational_of_string(prefix) + self.scaled(len(prefix))

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        return cls(1, k)


_set_num = Dyadic.num.__set__  # type: ignore[attr-defined]
_set_exp = Dyadic.exp.__set__  # type: ignore[attr-defined]

ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)


def rational_of_string(s: BitString) -> Dyadic:
    """Σ s(i)·2^{-(i+1)}: the value of s followed by zeroes."""
    if not len(s):
        return ZERO
    return Dyadic(int(s.bits, 2), len(s))


def string_of_rational(q: Dyadic) -> BitString:
    """The finite expansion of q ending in 1 (ε for q = 0); requires q < 1."""
    if q == ONE:
        raise DomainError("q must lie in [0, 1)")
    if q.num == 0:
        return EMPTY
    return BitString(format(q.num, "b").zfill(q.exp))


class Antichain(_Value):
    """A reduced antichain: the minimal representative of a filter-closed set.

    No member is a prefix of another, and no two members are siblings, so
    the represented set of covered strings determines the members and vice
    versa.  Members are kept in length-lexicographic order.
    """

    __slots__ = ("members", "_words")
    members: tuple[BitString, ...]

    def __init__(self, members: Iterable[BitString] = ()) -> None:
        by_word = {m.bits: m for m in members}
        order = sorted(by_word)
        order.sort(key=len)  # stable: length-lexicographic
        words = tuple(order)
        for k, b in enumerate(words):
            if k and b.startswith(words[:k]):  # of the earlier words, only a shorter one can match
                prefix = next(w for w in words[:k] if b.startswith(w))
                raise DomainError(f"antichain violation: {prefix} ⪯ {b}")
            if b[-1:] == "1" and b[:-1] + "0" in by_word:
                raise DomainError(f"not reduced: both children of {b[:-1] or 'ε'} present")
        _set_members(self, tuple(map(by_word.__getitem__, words)))
        _set_words(self, words)

    def __repr__(self) -> str:
        return f"Antichain(members={self.members!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.members == other.members  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.members)

    def __reduce__(self) -> tuple:
        return Antichain, (self.members,)

    def __iter__(self) -> Iterator[BitString]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def covers(self, s: BitString) -> bool:
        """Membership in the represented filter-closed set: s extends a member.
        The members of a reduced antichain are the minimal strings whose cones
        lie inside the union, so this also says whether the whole cone [s]
        lies under the member cones."""
        return s.bits.startswith(self._words)

    def total_bits(self) -> int:
        return sum(len(m) for m in self.members)

    def render(self) -> str:
        if not self.members:
            return "-"
        return ",".join(str(m) for m in self.members)


_set_members = Antichain.members.__set__  # type: ignore[attr-defined]
_set_words = Antichain._words.__set__  # type: ignore[attr-defined]


def trusted_antichain(members: tuple[BitString, ...]) -> Antichain:
    """The Antichain of members the caller already holds as a reduced
    antichain in length-lexicographic order: the constructor's result,
    without its sort and checks."""
    a = object.__new__(Antichain)
    _set_members(a, members)
    _set_words(a, tuple(m.bits for m in members))
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


def covered_deltas(old: Antichain, new: Antichain, length: int) -> Iterator[int]:
    """The keys of the strings of length ≤ the bound that new covers and old
    does not, in increasing order: at each length, new's intervals minus
    old's."""
    for n in range(length + 1):
        holes = _spans(old, n)
        for lo, hi in _spans(new, n):
            for a, b in holes:
                if a >= hi:
                    break
                if b > lo:
                    yield from range(lo, a)
                    lo = b
            yield from range(lo, hi)


def covered_up_to(antichain: Antichain, depth: int) -> frozenset[BitString]:
    """Members of the represented filter-closed set up to the given length.

    A member m with binary value v covers, at each length n from |m| to the
    depth, exactly the n-bit values in [v·2^(n−|m|), (v+1)·2^(n−|m|)).
    """
    out: set[BitString] = set()
    for m in antichain.members:
        v = int("0" + m.bits, 2)
        for n in range(len(m), depth + 1):
            shift = n - len(m)
            out.update(all_strings(n, v << shift, (v + 1) << shift))
    return frozenset(out)


def _minimal_bits(strings: Iterable[BitString]) -> set[str]:
    """The bits of the members with no proper prefix among the members."""
    bits = {s.bits for s in strings}
    return {b for b in bits if not any(b[:i] in bits for i in range(len(b)))}


def prefix_set_measure(strings: Iterable[BitString]) -> Dyadic:
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


def minimal_strings(strings: Iterable[BitString]) -> frozenset[BitString]:
    """The members with no proper prefix among the members."""
    return frozenset(BitString(b) for b in _minimal_bits(strings))


def optimal_covering(strings: Iterable[BitString]) -> Antichain:
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
    return Antichain(tuple(BitString(b) for b in nodes))


def grow_covering(antichain: Antichain, s: BitString) -> Antichain:
    """The optimal covering of a reduced antichain's members and s, grown in
    one step: the antichain itself when it covers s; otherwise s takes the
    place of the members extending it and, while its sibling is a member,
    merges with it into their parent.  No member is a prefix of s, so none
    extends the parent but the sibling."""
    if antichain.covers(s):
        return antichain
    w = s.bits
    kept = {m.bits: m for m in antichain.members if not m.bits.startswith(w)}
    while w and (sibling := w[:-1] + ("1" if w[-1] == "0" else "0")) in kept:
        del kept[sibling]
        w = w[:-1]
    kept[w] = s if w == s.bits else trusted_bitstring(w)
    return trusted_antichain(tuple(sorted(kept.values(), key=lambda m: (len(m.bits), m.bits))))


def is_acceptable(strings: Iterable[BitString]) -> bool:
    """Whether the optimal covering has even cardinality (the empty set
    counts: its covering is empty and 0 is even)."""
    return len(optimal_covering(strings)) % 2 == 0
