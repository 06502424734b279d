"""The slope-interval policy: the sites that ask a conjugacy question of
slopes agree with each other, and the policy stays in intervals.py."""

import ast
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifsconj
from ifsconj import (
    DiagonalMap,
    ExplicitSequence,
    IfsDescriptor,
    build_linear_conjugacy,
    componentwise_conjugacy,
    koenigs_conjugacy,
    linear,
    linear_part,
    perturbation_probe,
    same_interval_test,
    smooth,
    weak_conjugacy_linear,
)
from ifsconj import intervals
from ifsconj.errors import HypothesisError, NonConjugateError, NonHyperbolicError
from ifsconj.intervals import classify_slope_interval, slope_feasibility
from ifsconj.linearize import CASE_INAPPLICABLE, CASE_MIXED_RATIO, CASE_SAME_INTERVAL

ORIENTATION = intervals.OBSTRUCTION_ORIENTATION
ATTRACT_REPEL = intervals.OBSTRUCTION_ATTRACT_REPEL
NON_HYPERBOLIC = "non-hyperbolic"


def test_slope_feasibility_fields():
    fs = slope_feasibility([0.5, 0.25, 1.0, 2.0, -3.0])
    assert fs.tags == ("(0,1)", "(0,1)", "boundary", "(1,+inf)", "(-inf,-1)")
    assert (fs.boundary, fs.mismatch, fs.obstruction) == (2, 2, ORIENTATION)
    assert slope_feasibility([0.5, 2.0]).obstruction == ATTRACT_REPEL
    assert slope_feasibility([-0.5, -2.0]).obstruction == ATTRACT_REPEL
    assert slope_feasibility([-0.5, -0.25]) == (("(-1,0)", "(-1,0)"), None, None, None)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_slope_is_a_hypothesis_error(s):
    with pytest.raises(HypothesisError, match="is not finite"):
        classify_slope_interval(s)
    F, G = IfsDescriptor((linear(s),)), IfsDescriptor((linear(0.5),))
    sigma = ExplicitSequence((1,), (1,))
    for site in (
        lambda: linear_part(F),
        lambda: same_interval_test(F, G),
        lambda: weak_conjugacy_linear(F, G, sigma, 1),
        lambda: perturbation_probe(F, 0.01, 2, 0),
        lambda: build_linear_conjugacy(s, 0.5),
    ):
        with pytest.raises(HypothesisError, match="is not finite"):
            site()


@pytest.mark.parametrize("f", [linear(math.nan), smooth(math.inf, 0.1), linear(-math.inf)])
def test_koenigs_non_finite_slope_fails_at_once(f):
    # it ran all 256 table steps, then raised ConvergenceFailureError for a
    # nan step size
    with pytest.raises(HypothesisError, match="is not finite"):
        koenigs_conjugacy(f)


# -- the sites agree ---------------------------------------------------------

SLOPES = st.one_of(
    st.floats(0.05, 0.95),
    st.floats(-0.95, -0.05),
    st.floats(1.05, 20.0),
    st.floats(-20.0, -1.05),
    st.sampled_from([0.0, 1.0, -1.0]),
)
CASE_CLASS = {CASE_SAME_INTERVAL: None, CASE_MIXED_RATIO: ATTRACT_REPEL,
              CASE_INAPPLICABLE: ORIENTATION}


def outcome(site, read=lambda result: None):
    """NON_HYPERBOLIC, the obstruction class of a NonConjugateError, or the
    class read off what the site returns (None: conjugable)."""
    try:
        result = site()
    except NonHyperbolicError:
        return NON_HYPERBOLIC
    except NonConjugateError as exc:
        return exc.obstruction
    return read(result)


def build_outcome(slopes):
    """The list is conjugable iff every pair (slopes[0], s) is: the worst
    outcome of build_linear_conjugacy over those pairs."""
    got = {outcome(lambda: build_linear_conjugacy(slopes[0], s)) for s in slopes}
    return next((o for o in (NON_HYPERBOLIC, ORIENTATION, ATTRACT_REPEL) if o in got), None)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(SLOPES, min_size=1, max_size=4))
def test_sites_agree_on_boundary_and_obstruction(slopes):
    F = IfsDescriptor(tuple(linear(s) for s in slopes))
    G = IfsDescriptor(tuple(linear(s) for s in reversed(slopes)))
    sigma = ExplicitSequence((1,), F.alphabet)
    Fd = [DiagonalMap((s,)) for s in slopes]
    Gd = Fd[::-1]
    # linear_part's class is its hg_case read through CASE_CLASS, so its
    # agreement with the others is the check that hg_case matches the class
    got = {
        "build_linear_conjugacy": build_outcome(slopes),
        "same_interval_test": outcome(lambda: same_interval_test(F, G), lambda r: r.obstruction),
        "weak_conjugacy_linear": outcome(lambda: weak_conjugacy_linear(F, G, sigma, 1)),
        "linear_part": outcome(lambda: linear_part(F), lambda r: CASE_CLASS[r.hg_case]),
    }
    assert len(set(got.values())) == 1, got
    want = got["linear_part"]
    koenigs = {outcome(lambda: koenigs_conjugacy(linear(s))) for s in slopes}
    assert (NON_HYPERBOLIC in koenigs) == (want == NON_HYPERBOLIC)
    # one coordinate: its mix class stands for both pooled classes
    column = outcome(lambda: componentwise_conjugacy(Fd, Gd, sigma, 1))
    if want in (None, NON_HYPERBOLIC):
        assert column == want
    else:
        assert column == intervals.OBSTRUCTION_COORDINATE_MIX


# -- the policy stays in one place ---------------------------------------------

OBSTRUCTION_STRINGS = {
    v for k, v in vars(intervals).items() if k.startswith("OBSTRUCTION_")
}


def policy_violations(source: str) -> list[str]:
    """Lines of source that reference BOUNDARY (or its tag), spell an
    obstruction class, or test abs(x) == 1 on a slope."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name == "BOUNDARY":
            found.append(f"line {node.lineno}: references BOUNDARY")
        elif isinstance(node, ast.Constant) and (
            node.value in OBSTRUCTION_STRINGS or node.value == intervals.BOUNDARY
        ):
            found.append(f"line {node.lineno}: spells {node.value!r}")
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, sides, sides[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and {_kind(a), _kind(b)} == {"abs", 1}:
                    found.append(f"line {node.lineno}: tests abs(x) == 1")
    return found


def _kind(node):
    """The string abs for a call of abs, np.abs or math.fabs, 1 for the
    constant 1, else None."""
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "id", None) == "abs" or getattr(func, "attr", None) in ("abs", "fabs"):
            return "abs"
    if isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 1:
        return 1
    return None


def test_policy_guard_catches_each_rule():
    assert len(policy_violations("if t == intervals.BOUNDARY: pass")) == 1
    assert len(policy_violations("from .intervals import BOUNDARY")) == 1
    assert len(policy_violations("x = 'orientation-mismatch'")) == 1
    assert len(policy_violations("raise E(obstruction='pooled-interval-mix')")) == 1
    assert len(policy_violations("if s == 0.0 or abs(s) == 1.0: pass")) == 1
    assert len(policy_violations("ok = 1.0 != np.abs(lam)")) == 1
    assert policy_violations("margin = abs(abs(d) - 1.0)\nexpansive = abs(lam) > 1.0") == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in pathlib.Path(ifsconj.__file__).parent.glob("*.py")
           if p.name != "intervals.py"),
    ids=lambda p: p.name,
)
def test_slope_policy_lives_in_intervals_only(path):
    assert policy_violations(path.read_text()) == []
