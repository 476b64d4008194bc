"""Symbolic address words for a doubly infinite self-similar model.

Three word families describe locations in the model:

* ``NatWord``    -- finite words over the positive integers, addressing the
  one-dimensional blocks of the infinitely generated system.
* ``PairWord``   -- finite words over pairs (i, j), addressing the basic
  rectangles of the planar system.
* ``BinaryWord`` -- finite words over {1, 2}, addressing the classical
  two-map Cantor refinement.

The conjugation map ``F_map`` translates NatWords (with or without an
infinite-tail flag) into BinaryWords: each symbol n becomes n-1 twos
followed by a one, and a trailing infinite symbol n becomes n twos.  The
translation is a bijection; ``F_inverse`` parses any binary word back.
The infinite flag names the union of all blocks past the written last
symbol, so with the flag set on each coordinate that runs to infinity a
basic rectangle and its three sibling tail unions all become product
Cantor cells U_s[0,1] x U_t[0,1].  ``BinaryWord.lattice`` places such a
cell on the integer lattice.

All values are immutable and totally ordered, so downstream enumeration
is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True, order=True)
class NatWord:
    """A finite word of positive integer symbols."""

    symbols: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for s in self.symbols:
            if not isinstance(s, int) or s < 1:
                raise ValueError(f"NatWord symbols must be integers >= 1, got {s!r}")

    @classmethod
    def of(cls, *symbols: int) -> "NatWord":
        return cls(tuple(symbols))

    @classmethod
    def parse(cls, text: str) -> "NatWord":
        """Parse the dot-separated form, e.g. "1.3" -> word (1, 3)."""
        if text == "":
            return cls()
        return cls(tuple(int(part) for part in text.split(".")))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return ".".join(str(s) for s in self.symbols)


_PAIR_RE = re.compile(r"\((\d+),(\d+)\)")


@dataclass(frozen=True, slots=True, order=True)
class PairWord:
    """A finite word of pairs (i, j) of positive integers."""

    symbols: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for i, j in self.symbols:
            if i < 1 or j < 1:
                raise ValueError(f"PairWord components must be >= 1, got ({i},{j})")

    @classmethod
    def of(cls, *symbols: tuple[int, int]) -> "PairWord":
        return cls(tuple(symbols))

    @classmethod
    def parse(cls, text: str) -> "PairWord":
        """Parse the concatenated pair form, e.g. "(1,2)(3,1)"."""
        if text == "":
            return cls()
        pairs = _PAIR_RE.findall(text)
        if "".join(f"({i},{j})" for i, j in pairs) != text:
            raise ValueError(f"malformed PairWord text: {text!r}")
        return cls(tuple((int(i), int(j)) for i, j in pairs))

    def append(self, i: int, j: int) -> "PairWord":
        return PairWord(self.symbols + ((i, j),))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return "".join(f"({i},{j})" for i, j in self.symbols)


def components(word: PairWord) -> tuple[NatWord, NatWord]:
    """Project a pair word onto its two coordinate words."""
    return (
        NatWord(tuple(i for i, _ in word.symbols)),
        NatWord(tuple(j for _, j in word.symbols)),
    )


@dataclass(frozen=True, slots=True, order=True)
class BinaryWord:
    """A finite word over {1, 2}, stored as its digit string."""

    symbols: str = ""

    def __post_init__(self) -> None:
        if self.symbols.strip("12"):
            raise ValueError(f"BinaryWord digits must be 1 or 2: {self.symbols!r}")

    def append(self, symbol: int) -> "BinaryWord":
        if symbol not in (1, 2):
            raise ValueError(f"binary symbol must be 1 or 2, got {symbol}")
        return BinaryWord(self.symbols + str(symbol))

    @property
    def lattice(self) -> int:
        """The X of the cell U_s[0,1] = [X, X+1] * 3^-|s|: the base-3
        number spelled with digit 0 for U_1 and 2 for U_2."""
        return int("0" + self.symbols.replace("1", "0"), 3)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return (int(c) for c in self.symbols)

    def __str__(self) -> str:
        return self.symbols


def f_map(symbol: int, infinite: bool = False) -> BinaryWord:
    """Translate one symbol: n -> 2...21 (n-1 twos), infinite n -> 2...2 (n twos)."""
    if symbol < 1:
        raise ValueError(f"symbol must be >= 1, got {symbol}")
    if infinite:
        return BinaryWord("2" * symbol)
    return BinaryWord("2" * (symbol - 1) + "1")


def F_map(word: NatWord, infinite: bool = False) -> BinaryWord:
    """Concatenate f_map over the word; the last symbol uses the infinite branch
    when ``infinite`` is set.  The empty word maps to the empty word."""
    if infinite and len(word) == 0:
        raise ValueError("infinite tail requires at least one symbol")
    parts = []
    for pos, s in enumerate(word.symbols):
        tail = infinite and pos == len(word.symbols) - 1
        parts.append(f_map(s, tail).symbols)
    return BinaryWord("".join(parts))


def F_inverse(word: BinaryWord) -> tuple[NatWord, bool]:
    """Parse a binary word into (NatWord, infinite flag).

    Maximal blocks 2^k 1 become the symbol k+1; a trailing run of k >= 1
    twos with no closing one becomes a final symbol k with the infinite
    flag set.  Every binary word parses uniquely, and
    F_inverse(F_map(w, inf)) == (w, inf).
    """
    out: list[int] = []
    twos = 0
    for c in word.symbols:
        if c == "2":
            twos += 1
        else:
            out.append(twos + 1)
            twos = 0
    if twos:
        out.append(twos)
        return NatWord(tuple(out)), True
    return NatWord(tuple(out)), False

