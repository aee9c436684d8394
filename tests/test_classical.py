import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsim.classical import (DEFAULT_PARAMS, PolyCoeffs, SampleAccess,
                            SigmoidParams, _median, classical_poly_value,
                            estimate_yk_sampling, exact_value, fit_polynomial,
                            sampling_group_count, sampling_group_size,
                            sigmoid_volume, tang_inner, tang_walk)
from qsim.encoding import StateDecompositionTree
from qsim.sim import RngStream


def ref_tang_sample(access, rng):
    """Scalar tree walk: one uniform per level, one sample at a time."""
    tree = access.tree
    pos = 0
    for level in range(tree.n):
        left = tree.levels[level + 1][2 * pos]
        right = tree.levels[level + 1][2 * pos + 1]
        total = left * left + right * right
        if total == 0.0:
            raise ValueError("zero subtree during sampling")
        go_right = rng.generator.random() * total >= left * left
        pos = 2 * pos + int(go_right)
    return pos


def ref_tang_inner(v_access, w_query, epsilon, alpha, rng):
    """Per-sample median of means whose output bits tang_inner must keep."""
    if v_access.norm == 0.0:
        raise ValueError("zero vector")
    w = np.asarray(w_query, dtype=float)
    groups = sampling_group_count(alpha)
    size = sampling_group_size(epsilon)
    means = []
    norm_sq = v_access.norm**2
    root = v_access.tree.root
    for _ in range(groups):
        total = 0.0
        for _ in range(size):
            j = ref_tang_sample(v_access, rng)
            leaf = float(v_access.tree.leaves[j] * v_access.norm / root)
            total += norm_sq * w[j] / leaf
        means.append(total / size)
    return float(np.median(means))


def _outcome(fn, *args):
    """repr of the return value (exact for floats), or the ValueError raised."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def sampling_cases(draw):
    """An l2 sampling tree of depth 0..4 whose levels are drawn independently
    (so zero subtrees occur), a query vector, and (epsilon, alpha)."""
    n = draw(st.integers(0, 4))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
    levels = [np.array([draw(st.floats(0.1, 3.0))])]
    for level in range(1, n + 1):
        size = 1 << level
        levels.append(np.array(draw(st.lists(weight, min_size=size, max_size=size))))
    access = SampleAccess(tree=StateDecompositionTree(levels=levels),
                          norm=draw(st.floats(0.1, 10.0)))
    w = draw(st.lists(st.floats(-3.0, 3.0), min_size=1 << n, max_size=1 << n))
    return access, np.array(w), draw(st.floats(0.2, 1.0)), draw(st.floats(0.5, 0.99))


class TestSigmoid:
    def test_value_at_origin(self):
        # f(0) = A / (1 + (35/40)^3) + D
        expected = 20000.0 / (1.0 + (35.0 / 40.0) ** 3) + 6000.0
        assert sigmoid_volume(0.0, DEFAULT_PARAMS) == pytest.approx(expected)

    def test_monotone_below_t0(self):
        # demand falls as temperature rises toward T0
        grid = np.linspace(-30.0, 35.0, 200)
        vals = sigmoid_volume(grid, DEFAULT_PARAMS)
        assert np.all(np.diff(vals) < 0)

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            sigmoid_volume(40.0, DEFAULT_PARAMS)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SigmoidParams(A=1.0, B=1.0, C=3.0, D=1.0, T0=40.0)


class TestFit:
    def test_taylor_coefficients(self):
        coeffs = fit_polynomial(DEFAULT_PARAMS, 0.0, 3, "taylor")
        targets = [17976.0, -360.0, -7.17, 0.0072]
        for b, target in zip(coeffs.b, targets):
            assert abs(b - target) / abs(target) < 0.01

    def test_least_squares_coefficients(self):
        coeffs = fit_polynomial(DEFAULT_PARAMS, 0.0, 3, "least_squares",
                                domain=(-15.0, 30.0))
        targets = [17957.0, -393.0, -6.50, 0.225]
        for b, target in zip(coeffs.b, targets):
            assert abs(b - target) / abs(target) < 0.05

    def test_taylor_matches_function_locally(self):
        coeffs = fit_polynomial(DEFAULT_PARAMS, 10.0, 3, "taylor")
        x = 11.5
        approx = float(coeffs(x - 10.0))
        assert approx == pytest.approx(sigmoid_volume(x, DEFAULT_PARAMS),
                                       rel=1e-4)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            fit_polynomial(DEFAULT_PARAMS, 0.0, 3, "taylor", domain=(5.0, 5.0))
        with pytest.raises(ValueError):
            fit_polynomial(DEFAULT_PARAMS, 0.0, 3, "taylor", domain=(0.0, 45.0))
        with pytest.raises(ValueError):
            fit_polynomial(DEFAULT_PARAMS, 0.0, 3, "spline")

    @pytest.mark.parametrize("mode, domain", [("taylor", None),
                                              ("least_squares", [-15.0, 30.0])])
    def test_fit_is_memoised_and_read_only(self, mode, domain):
        # equal arguments share one b (a list domain is keyed as a tuple),
        # and neither writing into b nor replacing it reaches the memo
        first = fit_polynomial(DEFAULT_PARAMS, 3.0, 3, mode, domain)
        kept = first.b.copy()
        with pytest.raises(ValueError, match="read-only"):
            first.b[0] = 0.0
        first.b = np.zeros(4)
        again = fit_polynomial(DEFAULT_PARAMS, 3.0, 3, mode, domain)
        assert again is not first
        assert again.b.tobytes() == kept.tobytes()
        assert again.b is fit_polynomial(DEFAULT_PARAMS, 3.0, 3, mode, domain).b

    @pytest.mark.parametrize("mode", ["taylor", "least_squares"])
    def test_negative_degree_rejected(self, mode):
        # taylor once returned b = [] for K = -1, and only NumPy's polyfit
        # refused it in least-squares mode
        with pytest.raises(ValueError, match="degree"):
            fit_polynomial(DEFAULT_PARAMS, 10.0, -1, mode)


class TestValues:
    def test_exact_value(self):
        t = [12.0, 17.0]
        e = [30.0, 24.0]
        expected = (sigmoid_volume(12.0, DEFAULT_PARAMS) * 30.0
                    + sigmoid_volume(17.0, DEFAULT_PARAMS) * 24.0)
        assert exact_value(t, e, DEFAULT_PARAMS) == pytest.approx(expected)

    def test_poly_value_matches_direct_sum(self):
        coeffs = fit_polynomial(DEFAULT_PARAMS, 0.0, 2, "taylor")
        t = np.array([5.0, 8.0])
        e = np.array([30.0, 24.0])
        direct = sum(coeffs.b[k] * np.sum(e * t**k) for k in range(3))
        assert classical_poly_value(t, e, coeffs) == pytest.approx(direct)


class TestPolyCoeffs:
    # finite values only: an inf input meets x * 0 and warns on both paths
    @given(b=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=7),
           x=st.one_of(
               st.floats(allow_nan=False, allow_infinity=False),
               st.floats(allow_nan=False, allow_infinity=False).map(np.array),
               st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]),
                                  st.floats(allow_nan=False, allow_infinity=False)),
                        max_size=9).map(np.array)))
    @settings(max_examples=300, deadline=None)
    def test_call_matches_polyval(self, b, x):
        coeffs = PolyCoeffs(b=np.array(b), eta=0.0, fit_mode="taylor")
        # large values overflow to inf, and then to nan, the same on both paths
        with np.errstate(over="ignore", invalid="ignore"):
            got = coeffs(x)
            want = np.polynomial.polynomial.polyval(x, coeffs.b)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestMedian:
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf,
                                               -math.inf, math.nan]),
                              st.floats()),
                    min_size=1, max_size=41))
    @settings(max_examples=500, deadline=None)
    def test_matches_np_median(self, values):
        # inf - inf and huge sums warn in NumPy; Python floats do not
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.median(np.array(values)))
        # repr tells -0.0 from 0.0
        assert repr(_median(values)) == repr(want)

    def test_middle_of_negative_zeros_is_positive_zero(self):
        assert repr(_median([-0.0])) == repr(_median([-0.0, -0.0])) == "0.0"


class TestSampling:
    def test_tang_sample_distribution(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        access = SampleAccess.from_values(vals)
        n = 4000
        u = RngStream(0).generator.random((n, access.tree.n))
        counts = np.bincount(tang_walk(access.tree, u), minlength=4)
        target = vals**2 / np.sum(vals**2)
        np.testing.assert_allclose(counts / n, target, atol=0.03)

    def test_group_formulas(self):
        assert sampling_group_size(0.1) == 400
        assert sampling_group_count(0.9) == 6 * 4  # ceil(lg 10) = 4

    @given(sampling_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_tang_inner_matches_scalar_walk(self, case, seed):
        access, w, eps, alpha = case
        assert (_outcome(tang_inner, access, w, eps, alpha, RngStream(seed))
                == _outcome(ref_tang_inner, access, w, eps, alpha, RngStream(seed)))

    @pytest.mark.parametrize("n_vals,eps,alpha", [(1, 0.5, 0.6), (8, 0.2, 0.9),
                                                  (4, 0.3, 0.99)])
    def test_tang_inner_consumes_stream_as_scalar_walk(self, n_vals, eps, alpha):
        # the next uniform after the estimate is the same, so a caller that
        # keeps drawing from the stream sees the same values
        access = SampleAccess.from_values(np.linspace(1.0, 2.0, n_vals))
        w = np.linspace(-1.0, 3.0, n_vals)
        streams = RngStream(17), RngStream(17)
        tang_inner(access, w, eps, alpha, streams[0])
        ref_tang_inner(access, w, eps, alpha, streams[1])
        assert streams[0].generator.random() == streams[1].generator.random()

    def test_tang_inner_draws_whole_groups_under_cap(self):
        # 6 groups of 367,310 samples on a 2-level tree: 734,620 doubles per
        # group, so a 2^22-double draw holds 5 groups and a second draw the 6th
        eps, alpha = 0.0033, 0.5
        groups, size = sampling_group_count(alpha), sampling_group_size(eps)
        access = SampleAccess.from_values([1.0, 2.0, 3.0, 4.0])
        w = np.array([0.5, -1.0, 2.0, 1.5])

        class Recorder:
            """A generator that records the shape of every draw."""

            def __init__(self, generator):
                self.generator, self.shapes = generator, []

            def random(self, shape):
                self.shapes.append(shape)
                return self.generator.random(shape)

        rng = RngStream(4)
        rng.generator = Recorder(rng.generator)
        got = tang_inner(access, w, eps, alpha, rng)
        rows = [r for r, _ in rng.generator.shapes]
        assert all(cols == 2 for _, cols in rng.generator.shapes)
        assert all(r % size == 0 and r * 2 <= max(size * 2, 1 << 22) for r in rows)
        assert sum(rows) == groups * size
        assert rows == [5 * size, size]
        # one draw, walk and cumsum per group gives the same bits
        ref = RngStream(4)
        means = []
        for _ in range(groups):
            j = tang_walk(access.tree, ref.generator.random((size, 2)))
            x = access.norm**2 * w[j] / access.leaf_value(j)
            means.append(np.cumsum(x)[-1] / size)
        assert repr(got) == repr(float(np.median(means)))

    def test_tang_inner_zero_subtree(self):
        # the root's left child has weight but both of its children are zero
        tree = StateDecompositionTree(levels=[np.array([1.0]), np.array([1.0, 0.0]),
                                              np.array([0.0, 0.0, 1.0, 0.0])])
        access = SampleAccess(tree=tree, norm=1.0)
        with pytest.raises(ValueError, match="zero subtree"):
            tang_inner(access, np.ones(4), 0.5, 0.9, RngStream(0))

    def test_tang_walk_unreached_zero_subtree(self):
        # the root's right child has no weight, so no row reaches its zero
        # subtree, and the rows walk as the scalar walk does
        tree = StateDecompositionTree(levels=[np.array([1.0]), np.array([1.0, 0.0]),
                                              np.array([0.6, 0.8, 0.0, 0.0])])
        access = SampleAccess(tree=tree, norm=1.0)
        got = tang_walk(tree, RngStream(5).generator.random((400, 2)))
        ref = RngStream(5)
        assert got.tolist() == [ref_tang_sample(access, ref) for _ in range(400)]

    def test_tang_walk_zero_tree(self):
        # a zero root raises once a row walks, and a walk of no rows raises
        # nothing
        tree = StateDecompositionTree(levels=[np.array([0.0]), np.zeros(2), np.zeros(4)])
        got = tang_walk(tree, np.empty((0, 2)))
        assert got.shape == (0,) and got.dtype == np.int64
        with pytest.raises(ValueError, match="zero subtree"):
            tang_walk(tree, np.full((3, 2), 0.5))

    def test_tang_inner_zero_leaves_raise_no_warning(self):
        # the per-leaf estimator table skips the zero leaves, never drawn
        access = SampleAccess.from_values([0.0, 2.0, 0.0, 1.0])
        w = np.array([0.0, -1.0, 3.0, 1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tang_inner(access, w, 0.3, 0.9, RngStream(2))
        assert repr(got) == repr(ref_tang_inner(access, w, 0.3, 0.9, RngStream(2)))

    def test_tang_inner_accuracy(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0.5, 2.0, size=8)
        w = rng.uniform(0.5, 2.0, size=8)
        access = SampleAccess.from_values(v)
        est = tang_inner(access, w, 0.05, 0.9, RngStream(3))
        truth = float(np.dot(v, w))
        bound = 0.05 * np.linalg.norm(v) * np.linalg.norm(w)
        assert abs(est - truth) <= bound

    def test_estimate_yk_sampling(self):
        t = np.array([12.0, 17.0, 23.0, 28.0])
        e = np.array([30.0, 24.0, 36.0, 28.0])
        k = 2
        est, queries = estimate_yk_sampling(t, e, 10.0, k, 0.05, 0.9,
                                            RngStream(0))
        truth = float(np.sum(e * (t - 10.0) ** k))
        v = t - 10.0
        w = e * v ** (k - 1)
        bound = 0.05 * np.linalg.norm(v) * np.linalg.norm(w)
        assert abs(est - truth) <= bound
        assert queries == sampling_group_count(0.9) * sampling_group_size(0.05)

    def test_sampling_requires_positive_shift(self):
        with pytest.raises(ValueError):
            estimate_yk_sampling([12.0, 17.0], [1.0, 1.0], 15.0, 1, 0.1, 0.9,
                                 RngStream(0))
