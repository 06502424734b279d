"""Diagonal families on R^m: composition, componentwise and similarity
conjugacies."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifsconj import (
    BernoulliSequence,
    ExplicitSequence,
    IfsDescriptor,
    compose_orbit,
    linear,
)
from ifsconj.conjugacy import BRIDGE_LINEAR, BRIDGE_POWER_LAW
from ifsconj.errors import (
    DimensionMismatchError,
    NonConjugateError,
    NonHyperbolicError,
    NumericFailureError,
)
from ifsconj.multidim import (
    ComponentwiseHomeomorphism,
    DiagonalMap,
    LinearChangeOfBasis,
    SimilarityIfs,
    _residual_at,
    componentwise_conjugacy,
    componentwise_residual,
    diag_compose,
    similarity_conjugacy,
)


def test_diag_compose_hand_example():
    A = DiagonalMap((0.5, 0.2))
    B = DiagonalMap((0.25, 0.4))
    out = diag_compose([A, B], ExplicitSequence((1, 2)), 2, np.array([8.0, 10.0]))
    assert out == pytest.approx([1.0, 0.8])


def test_diag_compose_trivial_cases():
    D = DiagonalMap((0.5, 0.5))
    sig = ExplicitSequence((1,), alphabet=(1,))
    assert diag_compose([D], sig, 1, np.array([2.0, 2.0])) == pytest.approx([1.0, 1.0])
    assert diag_compose([D], sig, 1, np.zeros(2)) == pytest.approx([0.0, 0.0])


def test_diag_compose_matches_iterated_application():
    rng = np.random.default_rng(5)
    maps = [DiagonalMap(tuple(rng.uniform(0.2, 0.9, 3))) for _ in range(2)]
    sig = BernoulliSequence(0.5, seed=8, alphabet=(1, 2))
    X = rng.uniform(-5, 5, 3)
    n = 9
    fast = diag_compose(maps, sig, n, X)
    slow = X.copy()
    for s in sig.prefix(n):
        slow = maps[s - 1](slow)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * (1 + np.max(np.abs(slow)))


def test_diag_compose_matches_scalar_orbits():
    maps = [DiagonalMap((0.5, 0.3)), DiagonalMap((0.25, 0.6))]
    sig = ExplicitSequence((1, 2, 1, 1))
    X = np.array([3.0, -2.0])
    vec = diag_compose(maps, sig, 4, X)
    for i in range(2):
        F = IfsDescriptor((linear(maps[0].diag[i]), linear(maps[1].diag[i])))
        assert vec[i] == pytest.approx(compose_orbit(F, sig, 4, X[i]))


def test_diag_compose_zero_entry_after_overflow_is_a_signed_zero():
    # 1e200 * 1e200 overflows; the zero entry then decides the coordinate,
    # as in effective_slope, with no RuntimeWarning (pytest makes one fail)
    maps = [DiagonalMap((1e200, 0.5)), DiagonalMap((0.0, 0.25))]
    out = diag_compose(maps, ExplicitSequence((1, 1, 2), alphabet=(1, 2)), 3, np.ones(2))
    assert out.tobytes() == np.array([0.0, 0.0625]).tobytes()
    maps = [DiagonalMap((-1e200, 0.5)), DiagonalMap((-0.0, 3.0))]
    out = diag_compose(maps, ExplicitSequence((1, 2, 2), alphabet=(1, 2)), 3, np.ones(2))
    assert out.tobytes() == np.array([-0.0, 4.5]).tobytes()
    # without a zero the product is the signed infinity
    maps = [DiagonalMap((1e200, -1e200)), DiagonalMap((-2.0, 0.5))]
    out = diag_compose(maps, ExplicitSequence((1, 1, 2), alphabet=(1, 2)), 3, np.ones(2))
    assert out.tobytes() == np.array([-math.inf, math.inf]).tobytes()


def test_diag_compose_maps_zero_to_zero_after_overflow():
    # the product 1e200 * 1e200 overflows; a composite of linear maps still
    # maps 0 to 0, signed as the steps taken one by one, with no
    # RuntimeWarning
    maps = [DiagonalMap((1e200,))]
    out = diag_compose(maps, ExplicitSequence((1, 1), alphabet=(1,)), 2, np.zeros(1))
    assert out.tobytes() == np.array([0.0]).tobytes()
    maps = [DiagonalMap((-1e200, 1e200)), DiagonalMap((0.5, -1e200))]
    sigma = ExplicitSequence((1, 2, 1), alphabet=(1, 2))
    X = np.array([[0.0, -0.0], [-0.0, 0.0], [2.0, 1.0]])
    stepped = X.copy()
    with np.errstate(over="ignore"):
        for s in (1, 2, 1):
            stepped = maps[s - 1](stepped)
    out = diag_compose(maps, sigma, 3, X)
    assert out.tobytes() == stepped.tobytes()
    assert [v.hex() for v in out[:2].ravel()] == ["0x0.0p+0", "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0"]


def test_diag_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        diag_compose(
            [DiagonalMap((0.5, 0.5)), DiagonalMap((0.5,))],
            ExplicitSequence((1, 2)),
            2,
            np.zeros(2),
        )


def test_componentwise_conjugacy_residual():
    F = [DiagonalMap((0.5, 0.3)), DiagonalMap((0.25, 0.6))]
    G = [DiagonalMap((0.4, 0.2)), DiagonalMap((0.35, 0.5))]
    sig = ExplicitSequence((1, 2))
    h = componentwise_conjugacy(F, G, sig, 2)
    assert componentwise_residual(F, G, h, sig, 2) <= 1e-8


def test_componentwise_high_dimension_spot_check():
    rng = np.random.default_rng(41)
    m = 4
    F = [DiagonalMap(tuple(rng.uniform(0.2, 0.8, m))) for _ in range(2)]
    G = [DiagonalMap(tuple(rng.uniform(0.2, 0.8, m))) for _ in range(2)]
    sig = BernoulliSequence(0.5, seed=14)
    h = componentwise_conjugacy(F, G, sig, 4)
    assert componentwise_residual(F, G, h, sig, 4) <= 1e-8
    # no dimension cap: a 9-D family reports its residual
    big = [DiagonalMap(tuple(rng.uniform(0.2, 0.8, 9))) for _ in range(2)]
    hb = componentwise_conjugacy(big, big, sig, 2)
    assert componentwise_residual(big, big, hb, sig, 2, grid_per_axis=5) <= 1e-8


def _box_residual(F, G, h, sigma, n, grid_per_axis, radius):
    """Reference: the residual on the full grid_per_axis**m box."""
    m = F[0].dimension
    axes = [np.linspace(-radius, radius, grid_per_axis)] * m
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    return _residual_at(F, G, h, sigma, n, mesh)


def _outcome(fn):
    try:
        return ("value", fn())
    except Exception as exc:  # a typed error, or a RuntimeWarning turned into one
        return ("error", type(exc), str(exc))


@st.composite
def _diagonal_families(draw):
    m = draw(st.integers(1, 4))
    maps = draw(st.integers(1, 2))
    # one slope interval per coordinate: sign and contractive or expansive
    classes = [(draw(st.sampled_from((-1.0, 1.0))), draw(st.booleans())) for _ in range(m)]

    def entry(sign, expansive):
        u = draw(st.floats(0.05, 0.95))
        return sign * (1.0 / u if expansive else u)

    F = [DiagonalMap(tuple(entry(*c) for c in classes)) for _ in range(maps)]
    G = [DiagonalMap(tuple(entry(*c) for c in classes)) for _ in range(maps)]
    n = draw(st.integers(1, 60))
    symbols = draw(st.lists(st.integers(1, maps), min_size=n, max_size=n))
    sigma = ExplicitSequence(tuple(symbols), tuple(range(1, maps + 1)))
    # the 33**4 box takes about a second and 250 MB, so m = 4 stops at 17
    grid = draw(st.sampled_from((5, 17, 33) if m < 4 else (5, 17)))
    return F, G, sigma, n, grid


@settings(max_examples=150, deadline=None)
@given(
    _diagonal_families(),
    st.sampled_from((BRIDGE_LINEAR, BRIDGE_POWER_LAW)),
    st.floats(1e-3, 1e150),
)
def test_componentwise_residual_on_axis_points_equals_box(families, bridge, radius):
    F, G, sigma, n, grid = families
    try:
        h = componentwise_conjugacy(F, G, sigma, n, bridge=bridge, per_coordinate=True)
    except NumericFailureError:
        assume(False)
    axis = _outcome(lambda: componentwise_residual(F, G, h, sigma, n, grid, radius))
    box = _outcome(lambda: _box_residual(F, G, h, sigma, n, grid, radius))
    if axis[0] == box[0] == "value" and math.isnan(axis[1]):
        assert math.isnan(box[1])
    else:
        assert axis == box


def test_componentwise_identity():
    F = [DiagonalMap((0.5, 0.3)), DiagonalMap((0.25, 0.6))]
    sig = ExplicitSequence((1, 2))
    h = componentwise_conjugacy(F, F, sig, 2)
    assert componentwise_residual(F, F, h, sig, 2) <= 1e-12


def test_componentwise_interval_mix_rejected():
    F = [DiagonalMap((0.5, 0.3)), DiagonalMap((2.0, 0.6))]
    G = [DiagonalMap((0.4, 0.2)), DiagonalMap((0.35, 0.5))]
    with pytest.raises(NonConjugateError) as err:
        componentwise_conjugacy(F, G, ExplicitSequence((1, 2)), 2)
    assert "coordinate 1" in str(err.value)


@pytest.mark.parametrize("per_coordinate", [False, True])
def test_componentwise_boundary_entry_raises_before_any_mix(per_coordinate):
    # coordinate 1 is the boundary slope 1.0 in both families; coordinate 2
    # differs from it, which a mix check that ran first reported as pooled
    F = [DiagonalMap((1.0, 0.5))]
    with pytest.raises(NonHyperbolicError, match=r"^F\[1\] has boundary diagonal "
                       r"entry 1\.0 in coordinate 1$"):
        componentwise_conjugacy(F, F, ExplicitSequence((1,), (1,)), 1,
                                per_coordinate=per_coordinate)
    # a boundary entry of G wins over the sign mix in coordinate 1 too
    F, G = [DiagonalMap((0.5, 0.5))], [DiagonalMap((-0.5, 0.0))]
    with pytest.raises(NonHyperbolicError, match=r"^G\[1\] .* 0\.0 in coordinate 2$"):
        componentwise_conjugacy(F, G, ExplicitSequence((1,), (1,)), 1,
                                per_coordinate=per_coordinate)


def test_componentwise_pooled_hypothesis_and_opt_out():
    # coordinate 1 contractive, coordinate 2 expansive: per-coordinate fine
    F = [DiagonalMap((0.5, 3.0)), DiagonalMap((0.25, 2.0))]
    G = [DiagonalMap((0.4, 4.0)), DiagonalMap((0.35, 5.0))]
    sig = ExplicitSequence((1, 2))
    with pytest.raises(NonConjugateError):
        componentwise_conjugacy(F, G, sig, 2)
    h = componentwise_conjugacy(F, G, sig, 2, per_coordinate=True)
    assert componentwise_residual(F, G, h, sig, 2, grid_per_axis=17) <= 1e-8


def test_componentwise_homeomorphism_shape_checks():
    h = ComponentwiseHomeomorphism(
        tuple(componentwise_conjugacy(
            [DiagonalMap((0.5, 0.3))], [DiagonalMap((0.4, 0.2))],
            ExplicitSequence((1,), alphabet=(1,)), 1
        ).components)
    )
    X = np.array([1.0, 2.0])
    y = h(X)
    assert y.shape == (2,)
    assert h.invert(y) == pytest.approx(X, abs=1e-8)
    with pytest.raises(DimensionMismatchError):
        h(np.zeros(3))


def test_componentwise_bijection_on_grid_box():
    F = [DiagonalMap((0.5, 0.3)), DiagonalMap((0.25, 0.6))]
    G = [DiagonalMap((0.4, 0.2)), DiagonalMap((0.35, 0.5))]
    sig = ExplicitSequence((1, 2))
    h = componentwise_conjugacy(F, G, sig, 2)
    assert h(np.zeros(2)) == pytest.approx([0.0, 0.0], abs=0.0)
    line = np.linspace(-5, 5, 101)
    for i in range(2):
        pts = np.zeros((101, 2))
        pts[:, i] = line
        assert np.all(np.diff(h(pts)[:, i]) > 0)


def test_similarity_conjugacy_exact_example():
    S = SimilarityIfs(
        (DiagonalMap((0.5, 0.25)),),
        np.array([[1.0, 1.0], [0.0, 1.0]]),
    )
    sig = ExplicitSequence((1, 1), alphabet=(1,))
    out = similarity_conjugacy(S, sig, 2, np.array([1.0, 2.0]))
    assert out.residual <= 1e-12
    assert out.conditioning_warning is None


@pytest.mark.parametrize("entry", [5e-324, math.inf])
def test_similarity_refuses_a_nan_identity_gap(entry):
    # A times its computed inverse is nan: the gap check fails rather than
    # passing on nan > 1e-10, and no RuntimeWarning leaks
    A = np.array([[entry, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="off the identity by nan"):
        SimilarityIfs((DiagonalMap((0.5, 0.25)),), A)


def test_similarity_identity_matrix():
    S = SimilarityIfs((DiagonalMap((0.5, 0.25)),), np.eye(2))
    sig = ExplicitSequence((1,), alphabet=(1,))
    out = similarity_conjugacy(S, sig, 1, np.array([3.0, -4.0]))
    assert out.residual == 0.0


def test_similarity_zero_vector():
    S = SimilarityIfs((DiagonalMap((0.5, 0.25)),), np.array([[2.0, 1.0], [1.0, 1.0]]))
    sig = ExplicitSequence((1,), alphabet=(1,))
    assert similarity_conjugacy(S, sig, 1, np.zeros(2)).residual == 0.0


def test_similarity_conditioning_warning():
    A = np.array([[1.0, 0.0], [0.0, 1e-9]])
    S = SimilarityIfs((DiagonalMap((0.5, 0.25)),), A)
    sig = ExplicitSequence((1,), alphabet=(1,))
    out = similarity_conjugacy(S, sig, 1, np.array([1.0, 1.0]))
    assert out.conditioning_warning is not None


def test_linear_change_of_basis_round_trip():
    A = np.array([[2.0, 1.0], [0.5, 1.0]])
    h = LinearChangeOfBasis(A)
    X = np.array([1.0, -2.0])
    assert h.invert(h(X)) == pytest.approx(X)
