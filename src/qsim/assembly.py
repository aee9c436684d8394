"""Orchestration: per-k estimation across variants, error budgets,
value reconstruction, delta gross margin, resource reports and the
experiment harness.

All artifacts (JSON/CSV) are deterministic under a fixed seed: outputs
carry the seed and no timestamps.
"""

import csv
import functools
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import classical, fields, inner, qae
from .classical import DEFAULT_PARAMS, SigmoidParams
from .encoding import (boe_depth, boe_width, check_length, normalize_affine,
                       normalize_sqrt, validate_raw)
from .sim import RngStream


def _series_inputs(spec, config, t, e):
    """T's and E's series, and y'_0 = sum_j E'_j through the affine E, also
    where E is sqrt-normalised (golden digests pin d's rounding)."""
    series_T, series_E = spec.normalize(t, config.eta), spec.normalize(e, 0.0)
    affine_E = series_E if series_E.mode == "affine" else normalize_affine(e, 0.0)
    return series_T, series_E, float(affine_E.values.sum()) / affine_E.rho


def _estimated_power(spec, config, k, inputs, eps_k, alpha_k, rng):
    series_T, series_E, y0_prime = inputs
    if k == 0:
        return {"k": 0, "y_hat": None, "y_prime_hat": y0_prime, "epsilon_k": 0.0,
                "alpha_k": 1.0, "cost": 0, "method": "classical"}
    est = spec.estimate(config, k, series_T, series_E, eps_k, alpha_k, rng)
    return {"k": k, "y_hat": est.y_hat, "y_prime_hat": est.y_prime_hat,
            "epsilon_k": eps_k, "alpha_k": alpha_k, "cost": est.shots_used,
            "method": est.method, **spec.resources(k, series_T.n_qubits, config.s)}


def _sampling_power(spec, config, k, inputs, eps_k, alpha_k, rng):
    """Power k by Tang sampling over the raw series; every power runs at
    the global epsilon unless forced, and y_0 is the raw sum of E."""
    _series_T, access, e = inputs
    if k == 0:
        return {"k": 0, "y_prime_hat": float(e.sum()), "queries": 0, "method": "classical"}
    eps = config.epsilon if config.forced_epsilon_k is None else eps_k
    y_prime, queries = classical.estimate_yk_sampling(access, e, k, eps, alpha_k, rng)
    return {"k": k, "y_prime_hat": y_prime, "queries": queries, "method": "sampling"}


@dataclass(frozen=True)
class Variant:
    """What evaluate, resource_report and the CLI know of one variant.

    A direct sum's V is the reference that `value` names, "v_exact" or
    "v_star", which evaluate computes once for every variant.  An
    estimating variant's `inputs(spec, config, t, e)` makes what its powers
    read, once per evaluate, T's series from `normalize(raw, eta)` first,
    for the budget; `power(spec, config, k, inputs, eps_k, alpha_k, rng)`
    is power k's per_k row, k = 0 included; a-d's reads power k >= 1 from
    `estimate(config, k, series_T, series_E, eps_k, alpha_k, rng)`.
    `resources(k, n, s)` is power k's width and depth bound at n = lg N,
    which evaluate's rows and resource_report share and golden digests pin;
    `row(config, k, n, resources)` is the rest of resource_report's row.
    Records look their qsim functions up in the module when called, so a
    wrapper set on the module attribute sees every call.
    """
    row: Callable
    normalize: Callable = lambda raw, eta: normalize_affine(raw, eta)
    value: str = None
    inputs: Callable = _series_inputs
    power: Callable = _estimated_power
    estimate: Callable = None
    resources: Callable = lambda k, n, s: {}


def _direct(value):
    return Variant(value=value, row=lambda config, k, n, res: {
        "note": "direct classical evaluation, O(N) per value"})


AB_SAMPLES = "O(rho_E^2 rho_T^2k y'_k^-2 eps^-2)"

# a reports the mid_reset swap test (k serial loads), whose k = 1 state is
# the only one a simulates; b the no_mid_reset circuit (2 serial loads).
# The c/d widths count the flag qubit a hardware oracle copies its good
# outcome onto; the simulator reflects about that outcome in place and
# allocates one qubit fewer.  d has no depth bound.
VARIANTS = {
    "a": Variant(
        estimate=lambda config, k, T, E, eps_k, alpha_k, rng: inner.estimate_yk_swap(
            T, E, k, eps_k, alpha_k, rng),
        resources=lambda k, n, s: {"width": 2 * n + 1, "depth_bound": k * n + k + 3 * n + 1},
        row=lambda config, k, n, res: {"width": 2 * n, "width_with_ancilla": res["width"],
                                       "samples": AB_SAMPLES}),
    "b": Variant(
        estimate=lambda config, k, T, E, eps_k, alpha_k, rng: inner.estimate_yk_variant_ab(
            T, E, k, "no_mid_reset", eps_k, alpha_k, rng),
        resources=lambda k, n, s: {"width": k * n, "depth_bound": 2 * n + k},
        row=lambda config, k, n, res: {"samples": AB_SAMPLES}),
    "c": Variant(
        estimate=lambda config, k, T, E, eps_k, alpha_k, rng: qae.estimate_yk_variant_c(
            T, E, k, eps_k, alpha_k, config, rng),
        resources=lambda k, n, s: {"width": k * n + 1, "depth_bound": (k + 1) * n + k + 1},
        row=lambda config, k, n, res: {
            "depth": "2*C_load + O_k(lg N)", "samples": "O_alpha(1)",
            "oracle_complexity": "O(rho_E rho_T^k y'_k^-1 eps^-1)",
            "mcx_decomposed": {"controls": k * n, "ancillas": max(0, k * n - 2),
                               "toffolis": 2 * max(2, k * n) - 3}}),
    "d": Variant(
        normalize=lambda raw, eta: normalize_sqrt(raw, eta),
        estimate=lambda config, k, T, E, eps_k, alpha_k, rng: qae.estimate_ytilde_variant_d(
            T, E, k, config.s, eps_k, alpha_k, config, rng),
        resources=lambda k, n, s: {"width": (k + 1) * boe_width(1 << n, s) + 2,
                                   "depth_bound": None},
        row=lambda config, k, n, res: {
            "boe_width": boe_width(1 << n, config.s), "boe_depth": boe_depth(1 << n, config.s),
            "oracle_complexity": "O(rho~_E rho~_T^k y~'_k^-1 eps^-1)",
            "samples": "O_alpha(1)"}),
    "classical_exact": _direct("v_exact"),
    "classical_poly": _direct("v_star"),
    "classical_sampling": Variant(
        inputs=lambda spec, config, t, e: (spec.normalize(t, config.eta),
                                           classical.sampling_access(t, config.eta), e),
        power=_sampling_power,
        row=lambda config, k, n, res: {
            "queries": (classical.sampling_group_count(config.beta)
                        * classical.sampling_group_size(config.epsilon)),
            "samples": "O(eps^-2 lg(1/(1-alpha)))"}),
}
QUANTUM_VARIANTS = tuple(name for name, v in VARIANTS.items() if v.estimate)


@dataclass
class ContractSpec:
    params: SigmoidParams
    asp: float
    season_normal: np.ndarray = None


VariantConfig = fields.request("VariantConfig", fields.VARIANT_CONFIG, __name__)


@dataclass
class ErrorBudget:
    epsilon_k: dict
    alpha_k: dict


@dataclass
class RunReport:
    variant: str
    seed: int
    V: float
    v_star: float = None        # classical polynomial value
    v_exact: float = None       # exact sigmoid value when computable
    per_k: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def rel_error_vs_star(self):
        if self.v_star in (None, 0.0):
            return None
        return abs(self.V - self.v_star) / abs(self.v_star)

    def rel_error_vs_exact(self):
        if self.v_exact in (None, 0.0):
            return None
        return abs(self.V - self.v_exact) / abs(self.v_exact)

    def to_dict(self):
        return {
            "variant": self.variant,
            "seed": self.seed,
            "V": self.V,
            "v_star": self.v_star,
            "v_exact": self.v_exact,
            "rel_error_vs_star": self.rel_error_vs_star(),
            "rel_error_vs_exact": self.rel_error_vs_exact(),
            "per_k": self.per_k,
            "config": self.config,
        }

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def allocate_budget(coeffs, rho_T, epsilon, beta, K, quadratic=False):
    """Per-k accuracy eps_k = eps rho_T^{k-1} K^{-1} |b_k|^{-1} on the
    normalised y_k, for every k with b_k != 0, and default confidences
    alpha_k = (K-1+beta)/K; quadratic=True applies the sqrt-encoding
    scaling rho^{2(k-1)}.  As y'_k = y_k / (rho_T^k rho_E), squared under the
    sqrt encoding, sum_{k>=1} |b_k| |dy'_k| <= eps ||T-eta||_2 ||E||_2, or
    eps sum(T-eta) sum(E): an absolute bound, not one relative to V.
    """
    b = np.asarray(coeffs.b, dtype=float)
    if (b == 0.0).all():
        raise ValueError("all polynomial coefficients are zero")
    scaling = 2 if quadratic else 1
    try:  # in Python floats, whose product past float64 is inf with no warning
        epsilon_k = {k: epsilon * rho_T ** (scaling * (k - 1)) / (K * abs(b_k))
                     for k, b_k in enumerate(b[:K + 1].tolist()) if b_k != 0.0}
    except OverflowError:
        raise ValueError(f"eta={coeffs.eta!r} leaves T - eta so near 0 that rho_T = "
                         f"{rho_T!r} and the budget's rho_T^(k-1) overflows float64") from None
    alpha = (K - 1 + beta) / K
    if alpha >= 1.0:
        raise ValueError(f"beta={beta!r} is too close to 1: the per-power "
                         f"confidence (K - 1 + beta)/K rounds to 1 at K={K}")
    return ErrorBudget(epsilon_k=epsilon_k, alpha_k={k: alpha for k in epsilon_k})


def evaluate(config, rawT, rawE, contract=None):
    """Estimate V = sum_k b_k y'_k for the requested variant.

    A direct sum reports one of the references v_exact and v_star, which
    are computed once and must be finite.  Every other variant reports one
    per_k row per power k with b_k != 0, from its record's `power`, and sums
    b_k y'_k over the rows from k = 0 upward.
    """
    t = validate_raw(rawT)
    e = validate_raw(rawE)
    if t.size != e.size:
        raise ValueError(f"T has {t.size} entries and E has {e.size}: "
                         "the series must be of one length")
    params = contract.params if contract is not None else DEFAULT_PARAMS
    coeffs = classical.fit_polynomial(params, config.eta, config.K, config.fit_mode)
    spec = VARIANTS[config.variant]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            v_exact = classical.exact_value(t, e, params)
        except ValueError:
            if spec.value == "v_exact":
                raise  # the exact variant's own refusal
            v_exact = None
        references = {"v_exact": v_exact,
                      "v_star": classical.classical_poly_value(t, e, coeffs)}
    for name, value in references.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} = {value} overflows float64: series or eta too large")

    base = {"K": config.K, "eta": config.eta, "epsilon": config.epsilon,
            "beta": config.beta, "variant": config.variant,
            "fit_mode": coeffs.fit_mode, "b": [float(x) for x in coeffs.b]}
    V, per_k = 0.0, []
    if spec.value:
        V = references[spec.value]
    else:
        inputs = spec.inputs(spec, config, t, e)
        budget = allocate_budget(coeffs, inputs[0].rho, config.epsilon, config.beta,
                                 config.K, quadratic=inputs[0].mode == "sqrt")
        epsilon_k = (budget.epsilon_k if config.forced_epsilon_k is None
                     else dict.fromkeys(budget.epsilon_k, config.forced_epsilon_k))
        streams = RngStream(config.seed).split(config.K + 1)
        # Power k draws from the stream at path (k + 1,), whatever the order
        # of the powers.  The highest power runs first: canonical QAE builds
        # an oracle at every k, widest at the highest, so a request too wide
        # for memory fails before any state is allocated.  Elsewhere only the
        # k = 1 swap tests of a and d allocate.
        rows = {k: spec.power(spec, config, k, inputs, epsilon_k[k], budget.alpha_k[k],
                              streams[k]) for k in sorted(epsilon_k, reverse=True)}
        per_k = [rows[k] for k in sorted(rows)]
        for row in per_k:
            V += float(coeffs.b[row["k"]]) * row["y_prime_hat"]
    return RunReport(variant=config.variant, seed=config.seed, V=V,
                     per_k=per_k, config=base, **references)


def delta_gross_margin(config, rawT, contract, rawE):
    """Delta GM = sum_j (f(T'_j) - f(tau'_j)) (asp - E'_j).

    Decomposed into four positive bilinear evaluations: the asp part uses
    a constant price series, and the combination is classical.
    """
    if contract.season_normal is None:
        raise ValueError("contract has no season-normal series")
    tau = validate_raw(contract.season_normal)
    e = validate_raw(rawE)
    asp_series = np.full_like(e, float(contract.asp))
    if contract.asp <= 0 or np.any(e <= 0):
        raise ValueError("asp and price series must be positive")

    pieces = []
    for i, (tt, ee) in enumerate([(rawT, asp_series), (rawT, e),
                                  (tau, asp_series), (tau, e)]):
        sub = VariantConfig(**{**asdict(config), "seed": config.seed + i})
        pieces.append(evaluate(sub, tt, ee, contract=contract).V)
    return (pieces[0] - pieces[1]) - (pieces[2] - pieces[3])


def resource_report(config, N):
    """Closed-form width/depth/sample entries per power k.

    Exact values where a closed formula exists for our constructions;
    symbolic strings otherwise.  Each row is the variant's resources, less
    the depth bound d does not have (the resource_table experiment leaves
    its depth blank), then the rest of its row in VARIANTS.  Since no data
    series is attached, epsilon_k entries are reported at unit
    normalization (rho = 1).
    """
    K, s, epsilon = config.K, config.s, config.epsilon
    check_length(N)
    n = int(math.log2(N))
    spec = VARIANTS[config.variant]
    coeffs = classical.fit_polynomial(DEFAULT_PARAMS, config.eta, K, "taylor")
    unit_rho = allocate_budget(coeffs, 1.0, epsilon, config.beta, K).epsilon_k
    rows = []
    for k in range(1, K + 1):
        res = spec.resources(k, n, s)
        row = {"k": k, "b_k": float(coeffs.b[k])}
        if k in unit_rho:
            row["epsilon_k_unit_rho"] = unit_rho[k]
            row["epsilon_k_formula"] = "epsilon*rho_T^(k-1)/(K*|b_k|)"
        row.update({key: value for key, value in res.items() if value is not None})
        row.update(spec.row(config, k, n, res))
        rows.append(row)
    return {"variant": config.variant, "N": N, "K": K, "s": s, "epsilon": epsilon,
            "rows": rows}


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

def _pair_with_overlap(p):
    """Two positive 2-vectors with inner product p."""
    phi = 0.5 * math.asin(p)
    return [math.cos(phi), math.sin(phi)], [math.sin(phi), math.cos(phi)]


_FIXTURE_T, _FIXTURE_E = (12.0, 17.0, 23.0, 28.0), (30.0, 24.0, 36.0, 28.0)


def _grid(rng, axes, draw):
    """[draw(*cell, stream)] over the product of the values of `axes`, a dict
    keyed by axis name, in product order, cell i on rng's child i + 1; a
    grid over fields.GRID_LIMIT cells is refused before any draw, naming its axes."""
    cells = math.prod(len(values) for values in axes.values())
    if cells > fields.GRID_LIMIT:
        raise ValueError(f"the grid over {' x '.join(map(repr, axes))} has {cells} "
                         f"cells, more than {fields.GRID_LIMIT}")
    return [draw(*cell, rng.child()) for cell in itertools.product(*axes.values())]


def _grouped(rows, column, reduce=np.mean):
    """reduce(row[column]) over the rows that share their first two entries,
    read in row order, keyed by those two entries."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[:2]), []).append(row[column])
    return {key: float(reduce(values)) for key, values in groups.items()}


def _fixture_series(N, eta, k):
    """The 4-point fixture tiled to N points: its series, y_k and y'_k."""
    t, e = np.tile(_FIXTURE_T, N // 4), np.tile(_FIXTURE_E, N // 4)
    ser_t, ser_e = normalize_affine(t, eta), normalize_affine(e, 0.0)
    y_exact = float(np.sum(ser_e.values * ser_t.values**k))
    return ser_t, ser_e, y_exact, y_exact / (ser_t.rho**k * ser_e.rho)


def _experiment_compare_inner(seed, shots, repeats, p_values):
    # each p's pair is built once, on its first draw, and keeps its readouts
    pair = functools.cache(lambda p: [normalize_affine(v, 0.0) for v in _pair_with_overlap(p)])

    def draw(p, method, rep, stream):
        est = (inner.estimate_yk_swap(*pair(p), 1, 0.05, 0.9, stream, shots=shots)
               if method == "swap" else inner.estimate_yk_variant_ab(
                   *pair(p), 1, "no_mid_reset", 0.05, 0.9, stream, shots=shots))
        return [method, p, rep, est.y_hat]

    rows = _grid(RngStream(seed), {"p_values": p_values, "method": ("swap", "ancilla_free"),
                                   "repeats": range(repeats)}, draw)
    summary = {f"{stat}_{method}_p{p}": value
               for stat, reduce in (("var", np.var), ("mean", np.mean))
               for (method, p), value in _grouped(rows, 3, reduce).items()}
    for p in p_values:  # null when every ancilla-free estimate came out the same
        free = summary[f"var_ancilla_free_p{p}"]
        summary[f"variance_ratio_p{p}"] = summary[f"var_swap_p{p}"] / free if free else None
    return ["method", "p", "repeat", "estimate"], rows, summary


def _experiment_error_scaling_k(seed, N_values, k_values, repeats, epsilon0, eta, shots):
    qcfg = VariantConfig("c", shots=shots)
    series = functools.cache(_fixture_series)  # once per (k, N), on its first draw

    def draw(k, N, rep, stream):
        ser_t, ser_e, y_exact, y_prime_exact = series(N, eta, k)
        eps_k = epsilon0 * N ** (-(k - 1) / 2.0)
        est = qae.estimate_yk_variant_c(ser_t, ser_e, k, eps_k, 0.9, qcfg, stream)
        rel = abs(est.y_prime_hat - y_prime_exact) / abs(y_prime_exact)
        return [k, N, rep, eps_k, est.y_hat, y_exact, rel]

    rows = _grid(RngStream(seed), {"k_values": k_values, "N_values": N_values,
                                   "repeats": range(repeats)}, draw)
    means = _grouped(rows, 6)
    summary = {"ratios": {}}
    for k in k_values:
        by_N = summary[f"k{k}_mean_rel_err"] = {N: means[k, N] for N in N_values}
        summary["ratios"][f"k{k}"] = max(by_N.values()) / min(by_N.values())
    return (["k", "N", "repeat", "epsilon_k", "y_hat", "y_exact", "rel_error"],
            rows, summary)


def _experiment_qae_vs_classical(seed, k, repeats, epsilons, eta, shots):
    ser_t, ser_e, _y_exact, y_prime_exact = _fixture_series(4, eta, k)
    access, e = classical.sampling_access(_FIXTURE_T, eta), _FIXTURE_E
    qcfg = VariantConfig("c", shots=shots)

    def draw(eps, rep, method, stream):
        if method == "iqae":
            est = qae.estimate_yk_variant_c(ser_t, ser_e, k, eps, 0.9, qcfg, stream)
            value, cost = est.y_prime_hat, est.shots_used
        else:
            value, cost = classical.estimate_yk_sampling(access, e, k, eps, 0.9, stream)
        return [method, eps, rep, cost, abs(value - y_prime_exact) / y_prime_exact]

    rows = _grid(RngStream(seed), {"epsilons": epsilons, "repeats": range(repeats),
                                   "method": ("iqae", "classical")}, draw)
    costs, errors = _grouped(rows, 3), _grouped(rows, 4)
    curves = {method: [(costs[method, eps], errors[method, eps]) for eps in epsilons]
              for method in ("iqae", "classical")}
    slopes = {}
    for method, pts in curves.items():
        x = np.log10([p[0] for p in pts])
        y = np.log10([max(p[1], 1e-12) for p in pts])
        # null when the costs span no line, as when every epsilon cost the same
        fit, _, rank, _, _ = np.polyfit(x, y, 1, full=True)
        slopes[method] = float(fit[0]) if rank == 2 else None
    return (["method", "epsilon", "repeat", "cost", "rel_error"], rows,
            {"slopes": slopes, "curves": curves})


def _experiment_end_to_end(seeds, K, variant, forced_epsilon_k, eta, shots, rawT, rawE):
    t, e = np.asarray(rawT, dtype=float), np.asarray(rawE, dtype=float)
    # the exact value may not be 0 (T and E of two lengths are evaluate's refusal)
    with np.errstate(over="ignore", invalid="ignore"):
        if t.size == e.size and classical.exact_value(t, e, DEFAULT_PARAMS) == 0.0:
            raise ValueError("'rawE' must not cancel against 'rawT': "
                             "the exact value is 0, and no error is relative to 0")
    reports = [evaluate(VariantConfig(variant=variant, K=K, eta=eta, epsilon=0.05, beta=0.9,
                                      seed=seed, shots=shots, forced_epsilon_k=forced_epsilon_k),
                        t, e) for seed in seeds]
    rels = [report.rel_error_vs_exact() for report in reports]
    rows = [[seed, r.V, r.v_exact, r.v_star, rel] for seed, r, rel in zip(seeds, reports, rels)]
    return (["seed", "V", "v_exact", "v_star", "rel_error"], rows,
            {"mean_rel_error": float(np.mean(rels)), "rel_errors": [float(r) for r in rels]})


def _experiment_resource_table(N, K, s, epsilon):
    # the tables have always printed epsilon as a float
    tables = {variant: resource_report(VariantConfig(variant, K=K, s=s, epsilon=float(epsilon)), N)
              for variant in QUANTUM_VARIANTS}
    rows = [[variant, row["k"], row.get("width"), row.get("depth_bound"),
             row.get("samples", row.get("oracle_complexity"))]
            for variant, table in tables.items() for row in table["rows"]]
    return ["variant", "k", "width", "depth", "cost"], rows, tables


EXPERIMENTS = {
    "compare_inner": _experiment_compare_inner,
    "error_scaling_k": _experiment_error_scaling_k,
    "qae_vs_classical": _experiment_qae_vs_classical,
    "end_to_end": _experiment_end_to_end,
    "resource_table": _experiment_resource_table,
}


def run_experiment(name, config, out_dir):
    """Run a named experiment on the values of `config` that its table in
    fields.EXPERIMENTS checks; writes <name>.csv and the <name>.json sidecar
    (the config as given, with its defaults filled in, and the summary)."""
    if not isinstance(config, dict):
        raise ValueError("an experiment config must be a JSON object, "
                         f"not a {type(config).__name__}")
    os.makedirs(out_dir, exist_ok=True)
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    config = fields.check(fields.EXPERIMENTS[name], dict(config), json=True)
    header, rows, summary = EXPERIMENTS[name](**config)
    with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{x:.12g}" if isinstance(x, float) else x for x in row]
                         for row in rows)
    with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
        json.dump({"experiment": name, "config": config, "summary": summary},
                  fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return summary
