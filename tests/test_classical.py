import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

import helpers
from qsim import classical

from qsim.classical import (DEFAULT_PARAMS, SampleAccess, SigmoidParams, _median,
                            classical_poly_value, estimate_yk_sampling, exact_value,
                            fit_polynomial, sampling_access, sampling_group_count,
                            sampling_group_size, sigmoid_volume, tang_counts,
                            tang_inner)
from qsim.encoding import StateDecompositionTree
from qsim.sim import RngStream


def binomial_two_sided(k, n, p):
    """Exact two-sided tail probability of k successes in n trials of
    probability p: twice the smaller one-sided tail, at most 1."""
    return min(1.0, 2.0 * min(binom.cdf(k, n, p), binom.sf(k - 1, n, p)))


def reachable_nodes(access):
    """Per tree level, the nodes a sample can reach: every split on the path
    from the root sends it there with positive probability."""
    reach = [np.array([True])]
    for p in access.split:
        live = reach[-1] & ~np.isnan(p)
        reach.append(np.column_stack((live & (p < 1.0), live & (p > 0.0))).ravel())
    return reach


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

    @pytest.mark.parametrize("K", [33, 2**128])
    def test_degree_above_32_refused(self, K):
        # a degree of 2^128 once looped without end, and 320 overflowed
        with pytest.raises(ValueError, match="'degree' must be >= 0 and <= 32"):
            fit_polynomial(DEFAULT_PARAMS, 0.0, K, "taylor")

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


class TestMedian:
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf,
                                               -math.inf, math.nan]),
                              st.floats()),
                    min_size=1, max_size=41))
    @settings(max_examples=helpers.examples(500), deadline=None)
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
        self._check_tang_sample_distribution([1.0, 2.0, 3.0, 4.0])

    def test_tang_sample_distribution_with_zero_leaves(self):
        self._check_tang_sample_distribution([0.0, 2.0, 0.0, 1.0, 3.0, 0.5, 0.0, 1.5])

    @pytest.mark.parametrize("size", [4, 8])
    def test_tang_sample_distribution_walk_and_boundary(self, size):
        # 8 leaves: a group of 4 samples walks the tree level by level, one
        # of 8 draws its leaf counts from the leaf law in one multinomial
        access = self._check_tang_sample_distribution(
            [0.0, 2.0, 0.0, 1.0, 3.0, 0.5, 0.0, 1.5], size)
        assert ("leaf_law" in vars(access)) == (size == 8)

    @staticmethod
    def _check_tang_sample_distribution(vals, size=20):
        # with q_j = v_j^2/||v||^2, over G groups of S samples leaf j's total
        # count is Binomial(G S, q_j) and the number of groups holding it is
        # Binomial(G, 1 - (1 - q_j)^S); all 2 N exact two-sided tests pass
        # together at a false-failure rate of at most 1e-6 (Bonferroni)
        vals = np.array(vals)
        q = vals**2 / (vals**2).sum()
        access = SampleAccess.from_values(vals)
        groups = 2000
        key, count = tang_counts(access, groups, size, RngStream(0))
        group, leaf = key >> access.tree.n, key & (vals.size - 1)
        assert (np.diff(key) > 0).all() and (count > 0).all()
        assert (np.bincount(group, count, minlength=groups) == size).all()
        checks = [(np.bincount(leaf, count, minlength=vals.size), groups * size, q),
                  (np.bincount(leaf, minlength=vals.size), groups, 1 - (1 - q)**size)]
        for observed, trials, prob in checks:
            for j in range(vals.size):
                assert binomial_two_sided(observed[j], trials, prob[j]) > 1e-6 / (2 * vals.size)
        return access

    def test_group_formulas(self):
        assert sampling_group_size(0.1) == 400
        assert sampling_group_count(0.9) == 6 * 4  # ceil(lg 10) = 4
        # a binomial draw takes at most 2^63 - 1 samples, and a group at
        # least one, where 4/eps^2 rounds to zero
        assert sampling_group_size(6.6e-10) < 2**63
        assert sampling_group_size(1e160) == sampling_group_size(1e300) == 1
        for eps in (6.5e-10, 1e-160, 1e-300):
            with pytest.raises(ValueError, match="epsilon"):
                sampling_group_size(eps)

    @given(sampling_cases(), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=helpers.examples(100), deadline=None)
    def test_tang_counts_invariants(self, case, groups, seed):
        # sorted live entries, whole groups, reachable leaves only; a
        # ValueError only when a reachable node has a zero subtree
        access, _w, eps, _alpha = case
        size = sampling_group_size(eps)
        reach = reachable_nodes(access)
        zero_reached = any((r & np.isnan(p)).any() for r, p in zip(reach, access.split))
        try:
            key, count = tang_counts(access, groups, size, RngStream(seed))
        except ValueError as exc:
            assert str(exc) == "zero subtree during sampling" and zero_reached
            return
        n = access.tree.n
        assert (np.diff(key) > 0).all() and (count > 0).all()
        assert (np.bincount(key >> n, count, minlength=groups) == size).all()
        assert reach[-1][key & ((1 << n) - 1)].all()
        # every sample reaches the root, so a zero root subtree raises
        assert groups == 0 or not (access.split and np.isnan(access.split[0][0]))

    def test_tang_inner_draws_whole_groups_under_cap(self, monkeypatch):
        # a cap of 10 live entries on a 4-leaf tree holds 2 of the 24 groups
        # of 400 samples; the estimate is the median over groups of
        # sum_j c_j X_j / size, X_j = ||v||^2 w_j / v_j, each group's terms
        # added in leaf order, and the stream is left where the chunks'
        # draws leave it
        monkeypatch.setattr(classical, "LIVE_ENTRIES", 10)
        calls = helpers.recorded_calls(monkeypatch, classical, "tang_counts")
        eps, alpha = 0.1, 0.9
        size = sampling_group_size(eps)
        access = SampleAccess.from_values([1.0, 2.0, 3.0, 4.0])
        w = np.array([0.5, -1.0, 2.0, 1.5])
        rng = RngStream(4)
        got = tang_inner(access, w, eps, alpha, rng)
        assert [c[1:3] for c in calls] == [(2, size)] * 12
        v = access.tree.leaves * access.norm / access.tree.root
        ref, means = RngStream(4), []
        for _ in calls:
            key, count = tang_counts(access, 2, size, ref)
            totals = [0.0, 0.0]
            for k, c in zip(key.tolist(), count.tolist()):
                totals[k >> 2] += c * (access.norm**2 * w[k & 3] / v[k & 3])
            means += [t / size for t in totals]
        assert repr(got) == repr(float(np.median(means)))
        assert rng.generator.random() == ref.generator.random()

    def test_tang_inner_draws_one_multinomial_per_chunk(self, monkeypatch):
        # 4 leaves, 400 samples a group: a chunk of 2 groups (a cap of 10
        # live entries) is one multinomial draw of the leaf law, the product
        # of the splits on each leaf's path, and the stream is left where
        # the 12 chunks' draws leave it
        monkeypatch.setattr(classical, "LIVE_ENTRIES", 10)
        eps, alpha = 0.1, 0.9
        size = sampling_group_size(eps)
        access = SampleAccess.from_values([1.0, 2.0, 3.0, 4.0])
        q = access.leaf_law[0]
        np.testing.assert_allclose(q, np.array([1.0, 4.0, 9.0, 16.0]) / 30.0, rtol=1e-15)
        w = np.array([0.5, -1.0, 2.0, 1.5])
        x = access.norm**2 * w / (access.tree.leaves * access.norm / access.tree.root)
        rng, ref, means = RngStream(4), RngStream(4), []
        got = tang_inner(access, w, eps, alpha, rng)
        for _ in range(sampling_group_count(alpha) // 2):
            for row in ref.generator.multinomial(size, q, size=2).tolist():
                means.append(sum(c * x_j for c, x_j in zip(row, x.tolist()) if c) / size)
        assert repr(got) == repr(float(np.median(means)))
        assert rng.generator.random() == ref.generator.random()

    @pytest.mark.parametrize("size", [3, 4])
    def test_zero_subtree_refusal_in_both_regimes(self, size):
        # 4 leaves, walked below 4 samples a group and drawn in one
        # multinomial at 4: the root sends every sample left, into a zero
        # subtree, which raises in both; with the weight below the left child
        # instead, no sample can reach the right child's zero subtree, and
        # neither raises
        def access(lower):
            return SampleAccess(tree=StateDecompositionTree(
                levels=[np.array([1.0]), np.array([1.0, 0.0]), np.array(lower)]), norm=1.0)

        with pytest.raises(ValueError, match="zero subtree during sampling"):
            tang_counts(access([0.0, 0.0, 1.0, 0.0]), 50, size, RngStream(5))
        key, count = tang_counts(access([0.6, 0.8, 0.0, 0.0]), 50, size, RngStream(5))
        assert set((key & 3).tolist()) == {0, 1}
        assert (np.bincount(key >> 2, count) == size).all()

    def test_tang_inner_zero_subtree(self):
        # the root's left child has weight but both of its children are zero
        tree = StateDecompositionTree(levels=[np.array([1.0]), np.array([1.0, 0.0]),
                                              np.array([0.0, 0.0, 1.0, 0.0])])
        access = SampleAccess(tree=tree, norm=1.0)
        with pytest.raises(ValueError, match="zero subtree"):
            tang_inner(access, np.ones(4), 0.5, 0.9, RngStream(0))

    def test_tang_inner_weight_overflowing_float64_refused(self):
        # ||v||^2 w_j overflowed to inf, and evaluate reported V = -inf
        access = SampleAccess.from_values([1e154, 1.0])
        with pytest.raises(ValueError, match="overflows float64"):
            tang_inner(access, [1e154, 1.0], 0.1, 0.9, RngStream(0))

    def test_tang_counts_unreached_zero_subtree(self):
        # the root's right child has no weight, so no sample reaches its zero
        # subtree, and every group's samples land on the two left leaves
        tree = StateDecompositionTree(levels=[np.array([1.0]), np.array([1.0, 0.0]),
                                              np.array([0.6, 0.8, 0.0, 0.0])])
        key, count = tang_counts(SampleAccess(tree=tree, norm=1.0), 50, 8, RngStream(5))
        assert set((key & 3).tolist()) == {0, 1}
        assert (np.bincount(key >> 2, count) == 8).all()

    def test_tang_counts_zero_tree(self):
        # a zero root raises once a group has samples, and no groups raise
        # nothing
        tree = StateDecompositionTree(levels=[np.array([0.0]), np.zeros(2), np.zeros(4)])
        access = SampleAccess(tree=tree, norm=1.0)
        key, count = tang_counts(access, 0, 5, RngStream(0))
        assert key.size == count.size == 0
        with pytest.raises(ValueError, match="zero subtree"):
            tang_counts(access, 3, 5, RngStream(0))

    def test_tang_inner_zero_leaves_raise_no_warning(self):
        # neither the split table of a tree with zero subtrees nor the
        # per-leaf estimator table, which skips the zero leaves, warns
        w = np.array([0.0, -1.0, 3.0, 1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            access = SampleAccess.from_values([0.0, 2.0, 0.0, 0.0])
            assert math.isnan(access.split[1][1])
            got = tang_inner(access, w, 0.3, 0.9, RngStream(2))
        assert got == access.norm**2 * w[1] / 2.0

    def test_tang_inner_memory_does_not_grow_with_precision(self):
        # at N = 2^14 every group at eps = 1e-3 (4e6 samples) or 1e-6 (4e12)
        # outnumbers the leaves, so both hold the same live entries
        access = SampleAccess.from_values(np.linspace(1.0, 2.0, 1 << 14))
        w = np.linspace(-1.0, 1.0, 1 << 14)
        peaks = []
        for eps in (1e-3, 1e-6):
            tracemalloc.start()
            try:
                tang_inner(access, w, eps, 0.5, RngStream(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

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
        t, e = np.array(helpers.FIXTURE_T), np.array(helpers.FIXTURE_E)
        k = 2
        est, queries = estimate_yk_sampling(sampling_access(t, 10.0), e, k, 0.05, 0.9,
                                            RngStream(0))
        truth = float(np.sum(e * (t - 10.0) ** k))
        v = t - 10.0
        w = e * v ** (k - 1)
        bound = 0.05 * np.linalg.norm(v) * np.linalg.norm(w)
        assert abs(est - truth) <= bound
        assert queries == sampling_group_count(0.9) * sampling_group_size(0.05)

    def test_sampling_requires_positive_shift(self):
        with pytest.raises(ValueError):
            sampling_access([12.0, 17.0], 15.0)
