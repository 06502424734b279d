"""Iterated function systems on the line and orbit composition.

An IFS is an ordered family of catalog maps indexed 1..N. The n-step orbit
composite applies maps in sequence order, first symbol innermost:

    F_sigma_n(x) = f_{s_n}( ... f_{s_2}( f_{s_1}(x) ) ... )
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .catalog import ScalarMap
from .errors import UnsupportedMapError
from .sequences import SymbolSequence


@dataclass(frozen=True)
class IfsDescriptor:
    maps: tuple[ScalarMap, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise ValueError("an IFS needs at least one map")

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def alphabet(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.maps) + 1))

    @property
    def is_linear(self) -> bool:
        return all(m.is_linear for m in self.maps)

    def kernel_table(self):
        return _kernels.pack_rows([m.kernel_row() for m in self.maps])


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
    codes, ks, cs, bs = F.kernel_table()
    return _kernels.orbit_chain(codes, ks, cs, bs, syms - 1, float(x))


def compose_orbit(F: IfsDescriptor, sigma: SymbolSequence, n: int, x: float) -> float:
    """n-step composite along sigma, first symbol applied first."""
    return float(orbit_trajectory(F, sigma, n, x)[-1])


def effective_slope(F: IfsDescriptor, sigma: SymbolSequence, n: int) -> float:
    """Product of the slopes along sigma; equals the composite's linear slope.

    A product past the float range is +-inf, and one below it is 0. A zero
    slope makes it the zero of the product's sign, even after an overflow.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for i, m in enumerate(F.maps):
        if not m.is_linear:
            raise UnsupportedMapError(
                f"effective_slope needs linear maps; map {i + 1} is {m.kind!r}"
            )
    slopes = [float(m.k) for m in F.maps]
    picked = [slopes[s - 1] for s in _symbols_for(F, sigma, n).tolist()]
    if 0.0 in picked:  # inf * 0 would be nan
        negative = sum(math.copysign(1.0, k) < 0.0 for k in picked)
        return -0.0 if negative % 2 else 0.0
    # Python floats overflow to +-inf silently, and math.prod multiplies in
    # order, as np.prod does
    return math.prod(picked)
