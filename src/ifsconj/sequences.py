"""Symbol sequence generators over a finite alphabet of 1-based indices.

A sequence realizes one point of the full shift: symbol(i) is the i-th index
(i >= 1) and prefix(n) the first n of them. Generation is deterministic; the
Bernoulli generator draws its stream from the seed alone, so equal seeds give
identical prefixes of every length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RULE_PERFECT_SQUARES = "perfect-squares"
RULE_POWERS_OF_TWO = "powers-of-two"


class SymbolSequence:
    """Base interface: symbol(i) for i >= 1 and vectorized prefix(n)."""

    alphabet: tuple[int, ...]

    def symbol(self, i: int) -> int:
        if i < 1:
            raise ValueError("symbol positions are 1-based")
        return int(self.prefix(i)[i - 1])

    def prefix(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def _validate_n(self, n: int):
        if n < 0:
            raise ValueError("prefix length must be >= 0")


@dataclass(frozen=True)
class ExplicitSequence(SymbolSequence):
    symbols: tuple[int, ...]
    alphabet: tuple[int, ...] = (1, 2)

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        bad = [s for s in self.symbols if s not in self.alphabet]
        if bad:
            raise ValueError(f"symbol {bad[0]} not in alphabet {self.alphabet}")

    def prefix(self, n: int) -> np.ndarray:
        self._validate_n(n)
        if n > len(self.symbols):
            raise ValueError(
                f"explicit sequence has {len(self.symbols)} symbols, {n} requested"
            )
        return np.array(self.symbols[:n], dtype=np.int64)


@dataclass(frozen=True)
class PeriodicSequence(SymbolSequence):
    pattern: tuple[int, ...]
    alphabet: tuple[int, ...] = (1, 2)

    def __post_init__(self):
        object.__setattr__(self, "pattern", tuple(int(s) for s in self.pattern))
        if not self.pattern:
            raise ValueError("periodic pattern must be nonempty")
        bad = [s for s in self.pattern if s not in self.alphabet]
        if bad:
            raise ValueError(f"symbol {bad[0]} not in alphabet {self.alphabet}")

    def prefix(self, n: int) -> np.ndarray:
        self._validate_n(n)
        reps = -(-n // len(self.pattern))
        return np.tile(np.array(self.pattern, dtype=np.int64), reps)[:n]


@dataclass(frozen=True)
class BernoulliSequence(SymbolSequence):
    """Two-symbol coin flips: P(alphabet[0]) = p, from a Philox stream."""

    p: float
    seed: int
    alphabet: tuple[int, ...] = (1, 2)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be a probability")
        if len(self.alphabet) != 2:
            raise ValueError("Bernoulli sequences use a two-symbol alphabet")

    def prefix(self, n: int) -> np.ndarray:
        self._validate_n(n)
        cached = self._cache.get("u")
        if cached is None or len(cached) < n:
            gen = np.random.Generator(np.random.Philox(key=self.seed))
            cached = gen.random(max(n, 2 * len(cached) if cached is not None else n))
            self._cache["u"] = cached
        # np.where on the Python-int symbols takes the slow object path
        a0, a1 = self.alphabet
        return a1 + (a0 - a1) * (cached[:n] < self.p).astype(np.int64)


@dataclass(frozen=True)
class SparseDensitySequence(SymbolSequence):
    """The special index appears only on a thin set of positions.

    With the perfect-squares rule the special symbol sits at positions
    1, 4, 9, ...; its count up to n grows like sqrt(n), so the ratio of the
    other symbol's count to it diverges. The powers-of-two rule (positions
    1, 2, 4, 8, ...) gives logarithmic growth instead.
    """

    special_index: int
    rule: str = RULE_PERFECT_SQUARES
    alphabet: tuple[int, ...] = (1, 2)

    def __post_init__(self):
        if self.rule not in (RULE_PERFECT_SQUARES, RULE_POWERS_OF_TWO):
            raise ValueError(f"unknown position rule {self.rule!r}")
        if self.special_index not in self.alphabet:
            raise ValueError("special index must belong to the alphabet")
        if len(self.alphabet) != 2:
            raise ValueError("sparse-density sequences use a two-symbol alphabet")

    @property
    def common_index(self) -> int:
        a, b = self.alphabet
        return b if self.special_index == a else a

    def prefix(self, n: int) -> np.ndarray:
        self._validate_n(n)
        pos = np.arange(1, n + 1)
        if self.rule == RULE_PERFECT_SQUARES:
            roots = np.sqrt(pos).round().astype(np.int64)
            special = roots * roots == pos
        else:
            special = (pos & (pos - 1)) == 0
        return np.where(special, self.special_index, self.common_index).astype(np.int64)


def count_symbols(sigma: SymbolSequence, n: int, block1) -> tuple[int, int]:
    """Counts (n1, n2) of prefix symbols inside and outside block1.

    block1 must be a nonempty proper subset of the alphabet, so the two
    blocks partition it; n1 + n2 = n by construction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    block1 = frozenset(int(b) for b in block1)
    alpha = frozenset(sigma.alphabet)
    if not block1 or not block1 < alpha:
        raise ValueError("block1 must be a nonempty proper subset of the alphabet")
    syms = sigma.prefix(n)
    n1 = int(np.isin(syms, list(block1)).sum())
    return n1, n - n1
