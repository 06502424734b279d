"""Row-stacked fundamental-domain evaluation: fd_eval_rows against fd_eval
row by row, and the stacked linear-conjugacy residuals against
verify_conjugacy, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ifsconj import _kernels as K
from ifsconj.conjugacy import (
    BRIDGE_LINEAR,
    BRIDGE_POWER_LAW,
    _linear_residual_sups,
    build_linear_conjugacy,
    verify_conjugacy,
)
from ifsconj.errors import NumericFailureError

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-315, math.inf, -math.inf, math.nan,
           1e308, -1e308, 1e-308, -1.7976931348623157e308]

# slopes of each interval as products of up to 10 factors: (0,1), (1,inf),
# (-1,0), (-inf,-1)
INTERVALS = [(0.02, 0.999, 1.0), (1.001, 50.0, 1.0), (0.02, 0.999, -1.0), (1.001, 50.0, -1.0)]


def slope(interval):
    lo, hi, sign = INTERVALS[interval]
    factors = st.lists(st.floats(lo, hi), min_size=1, max_size=10)
    return factors.map(lambda fs: sign * math.prod(fs))


@st.composite
def conjugacies(draw, interval=None):
    i = draw(st.integers(0, 3)) if interval is None else interval
    return build_linear_conjugacy(draw(slope(i)), draw(slope(i)))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fd_eval_rows_matches_fd_eval_per_row(data):
    rows = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 24))
    bridge = data.draw(st.sampled_from([K.BRIDGE_LINEAR, K.BRIDGE_POWER]))
    anchor = data.draw(st.sampled_from([1.0, 0.37, 2.5, 1e-3]))
    core = [data.draw(conjugacies()).core_slopes for _ in range(rows)]
    x = data.draw(arrays(np.float64, (rows, n),
                         elements=st.one_of(st.floats(), st.sampled_from(SPECIAL))))
    kc, mc = zip(*core)
    got = K.fd_eval_rows(x, kc, mc, anchor, bridge)
    assert got.shape == x.shape
    for r in range(rows):
        want = K.fd_eval(x[r], kc[r], mc[r], anchor, bridge, None)
        assert np.array_equal(bits(got[r]), bits(want)), (kc[r], mc[r], anchor, bridge)


@pytest.mark.parametrize("bridge", [K.BRIDGE_LINEAR, K.BRIDGE_POWER])
def test_fd_eval_rows_keeps_square_and_root_exponents(bridge):
    # log(0.5)/log(0.25) is exactly 0.5 and its inverse exactly 2, where
    # numpy's ** takes sqrt and square instead of pow
    kc, mc = [0.25, 0.5, 0.3], [0.5, 0.25, 0.3]
    x = np.tile(np.linspace(-10.0, 10.0, 257), (3, 1)) * np.array([[1.0], [0.37], [1e-5]])
    got = K.fd_eval_rows(x, kc, mc, 1.0, bridge)
    for r in range(3):
        assert np.array_equal(bits(got[r]), bits(K.fd_eval(x[r], kc[r], mc[r], 1.0, bridge, None)))


def test_fd_eval_rows_takes_logs_as_fd_eval():
    # slopes whose np.log is not math.log's float (numpy's vector log rounds
    # some inputs otherwise), where the power bridge's exponent would move
    ks = np.random.default_rng(0).uniform(0.05, 0.95, 5000)
    odd = ks[np.log(ks) != np.array([math.log(k) for k in ks])].tolist()
    kc, mc = odd[:6] + [0.3], [0.6] + odd[:6]
    x = np.tile(np.linspace(-10.0, 10.0, 257), (len(kc), 1))
    for bridge in (K.BRIDGE_LINEAR, K.BRIDGE_POWER):
        got = K.fd_eval_rows(x, kc, mc, 1.0, bridge)
        for r in range(len(kc)):
            want = K.fd_eval(x[r], kc[r], mc[r], 1.0, bridge, None)
            assert np.array_equal(bits(got[r]), bits(want))


def verified_sup(h, radius):
    """verify_conjugacy's residual_sup for the linear pair h conjugates, or
    inf where h(x) overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return verify_conjugacy(lambda x: h.k * x, lambda x: h.m * x, h, 257,
                                    radius=radius).residual_sup
        except NumericFailureError:
            return math.inf


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stacked_residuals_match_verify_conjugacy(data):
    i = data.draw(st.integers(0, 3))
    bridge = data.draw(st.sampled_from([BRIDGE_LINEAR, BRIDGE_POWER_LAW]))
    anchor = data.draw(st.sampled_from([1.0, 0.37, 4.0]))
    radius = data.draw(st.sampled_from([10.0, 0.5, 123.4, 1e6]))
    hs = [build_linear_conjugacy(h.k, h.m, anchor, bridge)
          for h in data.draw(st.lists(conjugacies(i), min_size=1, max_size=4))]
    got = _linear_residual_sups(hs, 257, radius)
    want = [verified_sup(h, radius) for h in hs]
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("k, m", [(1e306, 3.0), (-1e306, -3.0), (1e-300, 0.5), (0.5, 1e-300)])
def test_stacked_residuals_match_verify_conjugacy_at_extreme_slopes(k, m):
    # h.k times the grid overflows for the first two: nan residuals
    h = build_linear_conjugacy(k, m)
    assert bits(_linear_residual_sups([h], 257, 1e3)) == bits(verified_sup(h, 1e3))


def test_stacked_residuals_are_inf_where_h_overflows():
    # h(10) = m**(log 10 / log k) overflows for k near 1 and a large m
    hs = [build_linear_conjugacy(0.5, 0.25), build_linear_conjugacy(1.001, 1e17),
          build_linear_conjugacy(-1.001, -1e17)]
    for h in hs[1:]:
        with pytest.raises(NumericFailureError):
            verify_conjugacy(lambda x: h.k * x, lambda x: h.m * x, h, 257)
    sups = _linear_residual_sups(hs, 257, 10.0)
    assert sups[0] == verified_sup(hs[0], 10.0) < 1e-8
    assert sups[1] == sups[2] == math.inf


def test_stacked_residuals_need_one_anchor_and_bridge():
    hs = [build_linear_conjugacy(0.5, 0.25), build_linear_conjugacy(0.5, 0.25, 2.0)]
    with pytest.raises(ValueError, match="one anchor and bridge"):
        _linear_residual_sups(hs, 257, 10.0)
