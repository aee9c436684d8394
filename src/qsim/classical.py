"""Classical baselines: exact and polynomial valuation, sigmoid fitting,
and the tree-based sampling inner-product estimator."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoding import StateDecompositionTree, build_tree, validate_raw


@dataclass(frozen=True)
class SigmoidParams:
    A: float
    B: float
    C: float
    D: float
    T0: float

    def __post_init__(self):
        if self.A < 0 or self.B >= 0 or self.C <= 1 or self.D <= 0:
            raise ValueError("expected A >= 0, B < 0, C > 1, D > 0")


DEFAULT_PARAMS = SigmoidParams(A=20000.0, B=-35.0, C=3.0, D=6000.0, T0=40.0)


def sigmoid_volume(tp, params):
    """Temperature-to-volume curve f(T') = A / (1 + (B/(T'-T0))^C) + D."""
    tp = np.asarray(tp, dtype=float)
    if np.any(tp >= params.T0):
        raise ValueError(f"temperature must stay below T0={params.T0}")
    ratio = params.B / (tp - params.T0)
    out = params.A / (1.0 + ratio**params.C) + params.D
    return float(out) if out.ndim == 0 else out


@dataclass
class PolyCoeffs:
    b: np.ndarray
    eta: float
    fit_mode: str

    def __call__(self, x_shifted):
        """Evaluate the polynomial at T' - eta."""
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
    b = _fitted_b(params, eta, K, mode, None if domain is None else tuple(domain))
    return PolyCoeffs(b=b, eta=float(eta), fit_mode=mode)


@lru_cache(maxsize=256)
def _fitted_b(params, eta, K, mode, domain):
    if K < 0:
        raise ValueError(f"degree must be >= 0, got {K}")
    if domain is None:
        domain = (eta - 40.0, min(eta + 39.0, params.T0 - 1.0))
    lo, hi = domain
    if not lo < hi:
        raise ValueError("degenerate fit domain")
    if hi >= params.T0:
        raise ValueError("fit domain must stay below T0")

    def f(x):
        return sigmoid_volume(x, params)

    if mode == "taylor":
        h = 1e-3 * (hi - lo)
        b = np.array([_richardson_derivative(f, eta, k, h) / math.factorial(k)
                      for k in range(K + 1)])
    elif mode == "least_squares":
        grid = np.linspace(lo, hi, 512)
        b = np.polynomial.polynomial.polyfit(grid - eta, f(grid), K)
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    b.setflags(write=False)
    return b


def exact_value(rawT, rawE, params):
    """v = sum_j f(T'_j) E'_j by direct summation."""
    t = np.asarray(rawT, dtype=float)
    e = np.asarray(rawE, dtype=float)
    return float(np.sum(sigmoid_volume(t, params) * e))


def classical_poly_value(rawT, rawE, coeffs):
    """v* = sum_{j,k} b_k E'_j (T'_j - eta)^k by direct double sum."""
    t = np.asarray(rawT, dtype=float)
    e = np.asarray(rawE, dtype=float)
    return float(np.sum(coeffs(t - coeffs.eta) * e))


# ---------------------------------------------------------------------------
# Sampling baseline
# ---------------------------------------------------------------------------

@dataclass
class SampleAccess:
    """Tree-backed l2 sampling access to a vector with known norm."""

    tree: StateDecompositionTree
    norm: float

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        tree = build_tree(values)
        return cls(tree=tree, norm=float(np.linalg.norm(values)))

    def leaf_value(self, j):
        """v_j for an index or an index array."""
        return self.tree.leaves[j] * self.norm / self.tree.root


def tang_walk(tree, u):
    """Leaf indices drawn with probability leaf^2 / root^2, one per row of u.

    Row i walks the tree from the root, going right at level l when
    u[i, l] * (left^2 + right^2) >= left^2 for the children of its node.
    """
    pos = np.zeros(u.shape[0], dtype=np.int64)
    for level in range(tree.n):
        left = tree.levels[level + 1][2 * pos]
        right = tree.levels[level + 1][2 * pos + 1]
        total = left * left + right * right
        if np.any(total == 0.0):
            raise ValueError("zero subtree during sampling")
        pos = 2 * pos + (u[:, level] * total >= left * left)
    return pos


def sampling_group_count(alpha):
    return 6 * max(1, math.ceil(math.log2(1.0 / (1.0 - alpha))))


def sampling_group_size(epsilon):
    return math.ceil(4.0 / (epsilon * epsilon))


def tang_inner(v_access, w_query, epsilon, alpha, rng):
    """Median-of-means estimate of <v, w> to additive error ||v|| ||w|| eps.

    Uses 6*ceil(lg 1/(1-alpha)) groups of ceil(4/eps^2) samples each; the
    single-sample estimator is X = ||v||^2 w_J / v_J with J ~ v_j^2/||v||^2.
    Uniforms are drawn as group-major rows, whole groups per draw of at most
    max(size lg N, 2^22) doubles, from one stream, so chunking keeps the bits.
    """
    if v_access.norm == 0.0:
        raise ValueError("zero vector")
    w = np.asarray(w_query, dtype=float)
    groups = sampling_group_count(alpha)
    size = sampling_group_size(epsilon)
    tree = v_access.tree
    chunk = max(1, (1 << 22) // (size * max(tree.n, 1)))  # groups per draw
    means = []
    for first in range(0, groups, chunk):
        rows = min(chunk, groups - first) * size
        j = tang_walk(tree, rng.generator.random((rows, tree.n)))
        x = (v_access.norm**2 * w[j] / v_access.leaf_value(j)).reshape(-1, size)
        # row-wise cumsum adds each group in draw order; np.sum's pairs change bits
        means.extend(np.cumsum(x, axis=1)[:, -1] / size)
    return float(np.median(means))


def estimate_yk_sampling(rawT, rawE, eta, k, epsilon, alpha, rng):
    """Sampling estimate of y'_k = sum_j E'_j (T'_j - eta)^k.

    Returns (estimate, queries).  The sample count does not depend on k.
    """
    t = validate_raw(rawT) - eta
    e = np.asarray(rawE, dtype=float)
    if np.any(t <= 0):
        raise ValueError("requires T'_j - eta > 0")
    access = SampleAccess.from_values(t)
    w = e * t ** (k - 1)
    est = tang_inner(access, w, epsilon, alpha, rng)
    queries = sampling_group_count(alpha) * sampling_group_size(epsilon)
    return est, queries
