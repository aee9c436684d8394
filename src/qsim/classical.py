"""Classical baselines: exact and polynomial valuation, sigmoid fitting,
and the tree-based sampling inner-product estimator."""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import fields
from .encoding import StateDecompositionTree, build_tree, validate_raw


SigmoidParams = fields.request("SigmoidParams", fields.SIGMOID, __name__, frozen=True)
DEFAULT_PARAMS = SigmoidParams()  # the reference contract


def sigmoid_volume(tp, params):
    """Temperature-to-volume curve f(T') = A / (1 + (B/(T'-T0))^C) + D."""
    tp = np.asarray(tp, dtype=float)
    if (tp >= params.T0).any():
        raise ValueError(f"temperature must stay below T0={params.T0}")
    ratio = params.B / (tp - params.T0)
    with np.errstate(over="ignore"):  # a power past float64 is inf, and f its limit A/inf + D
        out = params.A / (1.0 + ratio**params.C) + params.D
    return float(out) if out.ndim == 0 else out


@dataclass
class PolyCoeffs:
    b: np.ndarray
    eta: float
    fit_mode: str

    def __call__(self, x_shifted):
        """Evaluate the polynomial at T' - eta, a float or a float array."""
        return np.polynomial.polynomial.polyval(x_shifted, self.b)


def _central_derivative(f, x, order, h):
    if order == 0:
        return f(x)
    total = 0.0
    for i in range(order + 1):
        total += (-1) ** i * math.comb(order, i) * f(x + (order / 2.0 - i) * h)
    return total / h**order


def _richardson_derivative(f, x, order, h):
    d_h = _central_derivative(f, x, order, h)
    d_h2 = _central_derivative(f, x, order, h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def fit_polynomial(params, eta, K, mode="taylor", domain=None):
    """Degree-K polynomial approximation of the sigmoid around eta.

    taylor: Richardson-refined central finite differences at eta;
    least_squares: ordinary least squares on 512 uniform domain points.
    Fits are memoised on the arguments: calls with equal arguments share
    one read-only coefficient array b.
    """
    fields.check(fields.FIT, {"eta": eta, "degree": K, "mode": mode, "domain": domain})
    b = _fitted_b(params, eta, K, mode, None if domain is None else tuple(domain))
    return PolyCoeffs(b=b, eta=float(eta), fit_mode=mode)


@lru_cache(maxsize=256)
def _fitted_b(params, eta, K, mode, domain):
    derived = domain is None
    if derived:
        domain = (eta - 40.0, min(eta + 39.0, params.T0 - 1.0))
    lo, hi = domain
    if not lo < hi:
        raise ValueError(f"eta={eta!r} leaves the default fit window [eta - 40, "
                         f"min(eta + 39, T0 - 1)] = [{lo!r}, {hi!r}] empty"
                         if derived else f"'domain' must hold LO < HI, got {list(domain)!r}")
    if hi >= params.T0:
        raise ValueError(f"'domain' must stay below T0 = {params.T0!r}, got {list(domain)!r}")
    if not (derived or lo <= eta <= hi):
        raise ValueError(f"eta={eta!r} lies outside the fit domain [{lo!r}, {hi!r}]")

    def f(x):
        return sigmoid_volume(x, params)

    if mode == "taylor":
        h = 1e-3 * (hi - lo)
        b = np.array([_richardson_derivative(f, eta, k, h) / math.factorial(k)
                      for k in range(K + 1)])
    else:
        grid = np.linspace(lo, hi, 512)
        try:  # a window so wide that its powers leave float64 would reach LAPACK
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                b = np.polynomial.polynomial.polyfit(grid - eta, f(grid), K)
        except FloatingPointError:
            raise ValueError(f"'domain' {list(domain)!r} is too wide: its degree-{K} "
                             "least-squares basis overflows float64") from None
    b.setflags(write=False)
    return b


def exact_value(rawT, rawE, params):
    """v = sum_j f(T'_j) E'_j by direct summation."""
    t = np.asarray(rawT, dtype=float)
    e = np.asarray(rawE, dtype=float)
    return float((sigmoid_volume(t, params) * e).sum())


def classical_poly_value(rawT, rawE, coeffs):
    """v* = sum_{j,k} b_k E'_j (T'_j - eta)^k by direct double sum."""
    t = np.asarray(rawT, dtype=float)
    e = np.asarray(rawE, dtype=float)
    return float((coeffs(t - coeffs.eta) * e).sum())


# ---------------------------------------------------------------------------
# Sampling baseline
# ---------------------------------------------------------------------------

@dataclass
class SampleAccess:
    """Tree-backed l2 sampling access to a vector with known norm; split[l][i]
    is right^2/(left^2 + right^2) at node i of level l, NaN at a zero subtree.

    leaf_law, built on the first draw that needs it, is (q, zero_reached):
    q[j] is the product of the splits on leaf j's path (v_j^2/||v||^2 for a
    tree built from values), and zero_reached says whether a sample can
    reach a zero subtree (a NaN split under a path of positive probability).
    """

    tree: StateDecompositionTree
    norm: float
    split: list = field(init=False, repr=False)  # computed once, at construction

    def __post_init__(self):
        self.split = []
        for child in self.tree.levels[1:]:
            right_sq = child[1::2] * child[1::2]
            total = child[0::2] * child[0::2] + right_sq
            self.split.append(np.divide(right_sq, total, out=np.full_like(total, np.nan),
                                        where=total != 0.0))

    @cached_property
    def leaf_law(self):
        q, zero_reached = np.ones(1), False
        for p in self.split:
            zero = np.isnan(p)
            if zero.any():
                zero_reached = zero_reached or bool(q[zero].any())
                p = np.where(zero, 0.0, p)
            child = np.empty(2 * q.size)
            np.multiply(q, 1.0 - p, out=child[0::2])
            np.multiply(q, p, out=child[1::2])
            q = child
        return q, zero_reached

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        tree = build_tree(values)
        return cls(tree=tree, norm=math.sqrt((values * values).sum()))


def _median(values):
    """np.median of a sequence of floats, bit for bit, as a Python float.

    The middle value, or the mean of the two middle values, of the sorted
    values; like NumPy's mean, the sum starts from +0.0, so a middle of
    -0.0 values gives +0.0.  NaN when any value is NaN.
    """
    s = sorted(values)
    if any(map(math.isnan, s)):
        return math.nan
    h = len(s) // 2
    if len(s) % 2:
        return 0.0 + s[h]
    return (0.0 + s[h - 1] + s[h]) / 2


def sampling_group_count(alpha):
    return 6 * max(1, math.ceil(math.log2(1.0 / (1.0 - alpha))))


def sampling_group_size(epsilon):
    """ceil(4/eps^2), at least 1; ValueError above 2^63 - 1, a binomial's limit."""
    if not epsilon * epsilon > 2.0**-61:  # so 4/eps^2 < 2^63
        raise ValueError(f"epsilon={epsilon!r} too small: ceil(4/epsilon^2) > 2^63 - 1")
    return max(1, math.ceil(4.0 / (epsilon * epsilon)))


def tang_counts(access, groups, size, rng):
    """Leaf counts of `groups` groups of `size` samples from access's tree.

    Tang's sample access walks each sample down the tree; here a group's
    leaf counts c_j are drawn whole, with the law of that walk's counts,
    Multinomial(size, q_j), q_j the product of the splits on leaf j's path.
    Where the tree has no more leaves than a group has samples (N <= size),
    one multinomial draw over access.leaf_law gives every group's counts;
    ValueError when a sample can reach a zero subtree.  Otherwise a node
    sends Binomial(c, p) of its c samples right (p from access.split), each
    level making one binomial draw over the live (group, node) entries,
    sorted by group, then node, dropping empty ones; ValueError when
    samples reach a zero subtree.
    Returns (key, count) over the live leaves, key = (group << n) | leaf.
    """
    if access.tree.leaves.size <= size:
        q, zero_reached = access.leaf_law
        if zero_reached and groups:
            raise ValueError("zero subtree during sampling")
        count = rng.generator.multinomial(size, q, size=groups).ravel()
        key = count.nonzero()[0]  # a row-major index is (group << n) | leaf
        return key, count[key]
    key = np.arange(groups)  # (group << l) | node at level l
    count = np.full(groups, size)
    for level, p_right in enumerate(access.split):
        p = p_right[key & ((1 << level) - 1)]
        if np.isnan(p).any():
            raise ValueError("zero subtree during sampling")
        right = rng.generator.binomial(count, p)
        count = np.column_stack((count - right, right)).ravel()
        live = count.nonzero()[0]
        key, count = 2 * key[live >> 1] + (live & 1), count[live]
    return key, count


LIVE_ENTRIES = 1 << 20  # (group, node) entries one chunk of groups may hold


def tang_inner(v_access, w_query, epsilon, alpha, rng):
    """Median-of-means estimate of <v, w> to additive error ||v|| ||w|| eps.

    6*ceil(lg 1/(1-alpha)) groups of size = ceil(4/eps^2) samples; a group's
    mean is sum_j c_j X_j / size over its leaf counts c_j (tang_counts),
    X_j = ||v||^2 w_j / v_j.  Groups go in chunks of at most
    LIVE_ENTRIES // min(N, size), in group order.  Where N <= size a chunk
    is one multinomial draw, N - 1 binomials per group; above, it is lg N
    levels of binomial draws over at most size live nodes per group.  So a
    call costs O(groups N) at any eps, not a per-sample walk's
    O(groups size lg N).  The median is _median's, which equals np.median's
    bits.
    """
    if v_access.norm == 0.0:
        raise ValueError("zero vector")
    w = np.asarray(w_query, dtype=float)
    groups = sampling_group_count(alpha)
    size = sampling_group_size(epsilon)
    tree = v_access.tree
    leaf = tree.leaves * v_access.norm / tree.root
    with np.errstate(over="ignore"):
        x_leaf = np.divide(v_access.norm**2 * w, leaf, out=np.zeros_like(leaf),
                           where=leaf != 0.0)
    if not np.isfinite(x_leaf).all():
        raise ValueError("||v||^2 w_j overflows float64: the series are too large to sample")
    chunk = max(1, LIVE_ENTRIES // min(leaf.size, size))
    means = []
    for first in range(0, groups, chunk):
        n_groups = min(chunk, groups - first)
        key, count = tang_counts(v_access, n_groups, size, rng)
        sums = np.bincount(key >> tree.n, count * x_leaf[key & (leaf.size - 1)],
                           minlength=n_groups)
        means.extend((sums / size).tolist())
    return _median(means)


def sampling_access(rawT, eta):
    """SampleAccess to T' - eta, which the sampling estimator needs positive;
    its tree's leaves are T' - eta itself."""
    t = validate_raw(rawT) - eta
    if (t <= 0).any():
        raise ValueError("requires T'_j - eta > 0")
    return SampleAccess.from_values(t)


def estimate_yk_sampling(access, rawE, k, epsilon, alpha, rng):
    """Sampling estimate of y'_k = sum_j E'_j (T'_j - eta)^k, where access =
    sampling_access(rawT, eta) is built once for every power.

    Returns (estimate, queries).  The sample count does not depend on k.
    """
    w = np.asarray(rawE, dtype=float) * access.tree.leaves ** (k - 1)
    est = tang_inner(access, w, epsilon, alpha, rng)
    queries = sampling_group_count(alpha) * sampling_group_size(epsilon)
    return est, queries
