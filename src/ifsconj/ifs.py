"""Iterated function systems on the line and orbit composition.

An IFS is an ordered family of catalog maps indexed 1..N. The n-step orbit
composite applies maps in sequence order, first symbol innermost:

    F_sigma_n(x) = f_{s_n}( ... f_{s_2}( f_{s_1}(x) ) ... )
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .catalog import ScalarMap
from .errors import DomainEscapeError, UnsupportedMapError
from .sequences import SymbolSequence


@dataclass(frozen=True)
class IfsDescriptor:
    maps: tuple[ScalarMap, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise ValueError("an IFS needs at least one map")
        domains = {m.domain for m in self.maps}
        if len(domains) > 1:
            raise ValueError("all maps of an IFS must share one domain")

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def alphabet(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.maps) + 1))

    @property
    def domain(self):
        return self.maps[0].domain

    def map_for(self, symbol: int) -> ScalarMap:
        if not 1 <= symbol <= len(self.maps):
            raise ValueError(f"symbol {symbol} outside alphabet 1..{len(self.maps)}")
        return self.maps[symbol - 1]

    @property
    def is_linear(self) -> bool:
        return all(m.is_linear for m in self.maps)

    def kernel_table(self):
        rows = [m.kernel_row() for m in self.maps]
        codes = np.array([r[0] for r in rows], dtype=np.int64)
        ks = np.array([r[1] for r in rows])
        cs = np.array([r[2] for r in rows])
        bs = np.array([r[3] for r in rows])
        return codes, ks, cs, bs


def _symbols_for(ifs: IfsDescriptor, sigma: SymbolSequence, n: int) -> np.ndarray:
    syms = sigma.prefix(n)
    if syms.size and (syms.min() < 1 or syms.max() > len(ifs)):
        bad = int(syms[(syms < 1) | (syms > len(ifs))][0])
        raise ValueError(f"sequence symbol {bad} outside IFS alphabet 1..{len(ifs)}")
    return syms


def orbit_trajectory(F: IfsDescriptor, sigma: SymbolSequence, n: int, x: float) -> np.ndarray:
    """All partial composites F_sigma_i(x) for i = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    syms = _symbols_for(F, sigma, n)
    if F.domain is None:
        codes, ks, cs, bs = F.kernel_table()
        return _kernels.orbit_chain(codes, ks, cs, bs, syms - 1, float(x))
    lo, hi = F.domain
    out = np.empty(n)
    val = float(x)
    if not lo <= val <= hi:
        raise DomainEscapeError(
            f"starting point {val} outside the domain [{lo}, {hi}]", step=0, value=val
        )
    for i, s in enumerate(syms):
        val = float(F.maps[s - 1](val))
        out[i] = val
        if not lo <= val <= hi:
            # maps with a declared domain are self-maps of it; a value that
            # escapes is attributed to the step that produced it
            raise DomainEscapeError(
                f"orbit left the domain [{lo}, {hi}] at step {i + 1}",
                step=i + 1,
                value=val,
            )
    return out


def compose_orbit(F: IfsDescriptor, sigma: SymbolSequence, n: int, x: float) -> float:
    """n-step composite along sigma, first symbol applied first."""
    return float(orbit_trajectory(F, sigma, n, x)[-1])


def effective_slope(F: IfsDescriptor, sigma: SymbolSequence, n: int) -> float:
    """Product of the slopes along sigma; equals the composite's linear slope."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for i, m in enumerate(F.maps):
        if not m.is_linear:
            raise UnsupportedMapError(
                f"effective_slope needs linear maps; map {i + 1} is {m.kind!r}"
            )
    syms = _symbols_for(F, sigma, n)
    slopes = np.array([m.k for m in F.maps])
    return float(np.prod(slopes[syms - 1]))
