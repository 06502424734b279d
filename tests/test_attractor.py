"""Chaos-game sampling: determinism, absorption, Cantor gap structure."""

import numpy as np
import pytest

from ifsconj import (
    AffineMap,
    IfsDescriptor,
    build_linear_conjugacy,
    chaos_game,
    estimate_lipschitz,
    linear,
    linear_plus_lipschitz,
    sine_bump,
)
from ifsconj.errors import HypothesisError
from ifsconj.multidim import DiagonalMap


def cantor_maps():
    return [AffineMap(1.0 / 3.0, 0.0), AffineMap(1.0 / 3.0, 2.0 / 3.0)]


def test_deterministic_given_seed():
    a = chaos_game(cantor_maps(), 5000, 100, seed=9, x0=0.5, allow_affine=True)
    b = chaos_game(cantor_maps(), 5000, 100, seed=9, x0=0.5, allow_affine=True)
    assert a.points.tobytes() == b.points.tobytes()


def test_cantor_middle_third_empty():
    s = chaos_game(cantor_maps(), 100_000, 60, seed=3, x0=0.5, allow_affine=True)
    inside = np.sum((s.points > 1 / 3 + 1e-9) & (s.points < 2 / 3 - 1e-9))
    assert inside == 0
    assert np.all((s.points >= 0.0) & (s.points <= 1.0))


def test_cantor_membership_by_ternary_digits():
    # every post-burn-in point must avoid digit 1 in its leading ternary digits
    s = chaos_game(cantor_maps(), 20_000, 60, seed=12, x0=0.5, allow_affine=True)
    pts = s.points.copy()
    for _ in range(12):
        digits = np.floor(pts * 3).astype(int)
        assert not np.any(digits == 1)
        pts = pts * 3 - digits


def test_geometric_absorption():
    F = IfsDescriptor((linear(0.5),))
    s = chaos_game(F, 200, 60, seed=1, x0=9.0)
    assert np.max(np.abs(s.points)) <= 2.0**-60 * 9.0 + 1e-12


def test_two_map_absorption():
    F = IfsDescriptor((linear(0.5), linear(0.25)))
    s = chaos_game(F, 2000, 60, seed=5, x0=10.0)
    assert np.max(np.abs(s.points)) <= 1e-6


def test_empty_sample_when_burnin_equals_iterations():
    s = chaos_game(cantor_maps(), 500, 500, seed=2, x0=0.1, allow_affine=True)
    assert len(s.points) == 0


def test_affine_requires_flag():
    with pytest.raises(ValueError):
        chaos_game(cantor_maps(), 100, 10, seed=1, x0=0.5)


def test_non_contractive_rejected():
    with pytest.raises(HypothesisError):
        chaos_game(IfsDescriptor((linear(1.5),)), 100, 10, seed=1, x0=0.5)


def test_contraction_is_read_from_the_exact_slope_range():
    # sup f' = 0.5 + 0.5 = 1 at x = 0, between the points of a 256-point grid
    # of [-10, 10], whose difference quotients stay below 1
    f = linear_plus_lipschitz(0.5, sine_bump(0.5))
    assert estimate_lipschitz(f, (-10.0, 10.0), 256) < 1.0
    for maps in ([f], [linear(0.5), linear(float("nan"))]):
        with pytest.raises(HypothesisError, match=f"map {len(maps)} is not contractive"):
            chaos_game(maps, 100, 10, seed=1, x0=0.5)
    # sup |f'| = 0.9
    s = chaos_game([linear_plus_lipschitz(0.5, sine_bump(0.4))], 100, 10, seed=1, x0=0.5)
    assert s.points.shape == (90,)


def test_diagonal_chaos_game():
    maps = [DiagonalMap((0.5, 0.3)), DiagonalMap((0.25, 0.6))]
    s = chaos_game(maps, 1000, 50, seed=7, x0=np.array([5.0, -5.0]))
    assert s.points.shape == (950, 2)
    assert np.max(np.abs(s.points)) < 1e-6


def test_pushforward_min_max_sanity():
    # both single-map linear families collapse onto the origin; the image of
    # one sample under the conjugacy must agree with the other's support
    F = IfsDescriptor((linear(0.5),))
    G = IfsDescriptor((linear(0.3),))
    h = build_linear_conjugacy(0.5, 0.3, 1.0, "power-law")
    sf = chaos_game(F, 100_000, 500, seed=21, x0=5.0)
    sg = chaos_game(G, 100_000, 500, seed=22, x0=5.0)
    mapped = h(sf.points)
    assert abs(float(np.min(mapped)) - float(np.min(sg.points))) < 1e-3
    assert abs(float(np.max(mapped)) - float(np.max(sg.points))) < 1e-3
