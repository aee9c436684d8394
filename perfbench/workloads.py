"""The benchmark's workloads: the ops each one runs, generated from the
workload seed, with a width guard and an accuracy check per op.

An op calls one public qsim entry point (`assembly.evaluate`,
`qhp.run_with_dynamic_stopping`, `inner.estimate_*`) on inputs made here.
Calls go through the module attribute at call time, so the traced run sees
the wrapped functions.
"""

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from qsim import assembly, classical, encoding, inner, qhp
from qsim.sim import RngStream

# qsim has no width guard of its own; every op above this is refused before
# qsim is called.  Variant a at N=512 (28 qubits) was OOM-killed while the
# workloads were sized.
MAX_QUBITS = 21

FIXTURE_T = (12.0, 17.0, 23.0, 28.0)
FIXTURE_E = (30.0, 24.0, 36.0, 28.0)
ETA = 10.0

# Share of ops that must pass their accuracy check: the confidence beta at
# which every valuation in the workloads is run.
CORRECT_FLOOR = 0.9

# Per-estimate miss probability of the inner-product check; the tolerance is
# the accuracy the estimator's own sample-size formula gives at this level.
INNER_CHECK_MISS = 1e-4
INNER_SHOTS = 10_000
INNER_REPEATS = 20

# Seconds one pass over a workload's configurations takes with the NumPy
# kernels on a 2-vCPU x86 VM (2 MiB L2 per core, 300 MiB shared L3).  A run makes
# round(seconds / nominal) passes, so the op count, and with it the tail
# percentile, is fixed by --seconds rather than by the speed of the code.
NOMINAL_CYCLE_S = {"grover": 3.8, "shots": 1.7, "wide": 3.85}


def cycles_for(workload, seconds):
    return max(2, round(seconds / NOMINAL_CYCLE_S[workload]))


# ---------------------------------------------------------------------------
# Statevector widths, from the constructions in qae, qhp and inner
# ---------------------------------------------------------------------------

def evaluate_width(config, n_points):
    """Widest statevector `assembly.evaluate` simulates for this config."""
    n = int(math.log2(n_points))
    k = config["K"]
    variant = config["variant"]
    if variant == "a":
        # estimate_yk_swap simulates the no_mid_reset circuit: k loads plus
        # the price register and the swap ancilla
        return (k + 1) * n + 1
    if variant == "b":
        return k * n
    if variant == "c":
        return k * n + 1
    if variant == "d":
        return (k + 1) * encoding.boe_width(n_points, config["s"]) + 2
    return 0  # classical baselines simulate no state


def dynstop_width(enc, k, s, n_points):
    if enc == "amplitude":
        return 2 * int(math.log2(n_points))
    return k * encoding.boe_width(n_points, s)


def inner_width(method, n_points, k=1):
    n = int(math.log2(n_points))
    return (k + 1) * n + 1 if method == "swap" else k * n


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

@dataclass
class EvaluateOp:
    """`assembly.evaluate` on one series pair; checked against v_star."""

    key: str
    config: dict
    T: np.ndarray
    E: np.ndarray
    width: int = field(init=False)

    def __post_init__(self):
        self.width = evaluate_width(self.config, len(self.T))

    def call(self):
        return assembly.evaluate(assembly.VariantConfig(**self.config),
                                 self.T, self.E)

    def summarize(self, report):
        return report.to_dict()

    def check(self, out):
        coeffs = classical.fit_polynomial(classical.DEFAULT_PARAMS,
                                          self.config["eta"], self.config["K"])
        v_star = classical.classical_poly_value(self.T, self.E, coeffs)
        return abs(out["V"] - v_star) <= self.config["epsilon"] * abs(v_star)


@dataclass
class DynstopOp:
    """Mid-reset QHP shots with dynamic stopping on the fixture."""

    key: str
    encoding: str
    k: int
    s: int
    shots: int
    seed: int
    width: int = field(init=False)

    def __post_init__(self):
        self.width = dynstop_width(self.encoding, self.k, self.s, len(FIXTURE_T))

    def _series(self):
        return encoding.normalize_affine(np.array(FIXTURE_T), ETA)

    def call(self):
        loader = qhp.make_loader(self._series(), self.encoding, self.s)
        plan = qhp.PowerPlan(k=self.k, style="mid_reset",
                             encoding=self.encoding, s=self.s)
        return qhp.run_with_dynamic_stopping(plan, loader, self.shots,
                                             RngStream(self.seed))

    def summarize(self, outcomes):
        bits = "".join("1" if o.success else "0" for o in outcomes)
        return {"shots": len(outcomes), "successes": bits.count("1"),
                "loads": sum(o.loads for o in outcomes),
                "rounds": sum(o.rounds_executed for o in outcomes),
                "pattern": bits}

    def check(self, out):
        p = qhp.success_probability(self._series(), self.k)
        sigma = math.sqrt(p * (1.0 - p) / out["shots"])
        return abs(out["successes"] / out["shots"] - p) <= 3.0 * sigma


def _pair_with_overlap(p):
    """Two positive unit 2-vectors with inner product p (as in compare_inner)."""
    phi = 0.5 * math.asin(p)
    return [math.cos(phi), math.sin(phi)], [math.sin(phi), math.cos(phi)]


@dataclass
class InnerOp:
    """One compare_inner cell: repeated fixed-shot estimates of y_1 = p."""

    key: str
    method: str  # "swap" or "ancilla_free"
    p: float
    seed: int
    width: int = field(init=False)

    def __post_init__(self):
        self.width = inner_width(self.method, 2)

    def call(self):
        v0, v1 = _pair_with_overlap(self.p)
        ser_a = encoding.normalize_affine(v0, 0.0)
        ser_b = encoding.normalize_affine(v1, 0.0)
        rng = RngStream(self.seed)
        out = []
        for _ in range(INNER_REPEATS):
            stream = rng.child()
            if self.method == "swap":
                est = inner.estimate_yk_swap(ser_a, ser_b, 1, 0.05, 0.9, stream,
                                             shots=INNER_SHOTS)
            else:
                est = inner.estimate_yk_variant_ab(ser_a, ser_b, 1, "no_mid_reset",
                                                   0.05, 0.9, stream,
                                                   shots=INNER_SHOTS)
            out.append(est)
        return out

    def summarize(self, estimates):
        return {"y_hat": [e.y_hat for e in estimates],
                "clamped": sum(e.clamped for e in estimates)}

    def tolerance(self):
        """Accuracy of one estimate at INNER_SHOTS, from the variance the
        sample-size formulas shots_swap / shots_ancilla_free assume."""
        q = NormalDist().inv_cdf(1.0 - INNER_CHECK_MISS / 2.0)
        p = self.p
        if self.method == "swap":
            return q * math.sqrt((1.0 - p**4) / (4.0 * p * p * INNER_SHOTS))
        return q * math.sqrt((1.0 - p * p) / (4.0 * INNER_SHOTS))

    def check(self, out):
        tol = self.tolerance()
        return all(abs(y - self.p) <= tol for y in out["y_hat"])


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------

def _grover_configs():
    base = {"eta": ETA}
    return [
        ("c-K2-e0.1", {**base, "variant": "c", "K": 2, "epsilon": 0.1}),
        ("c-K1-e0.05", {**base, "variant": "c", "K": 1, "epsilon": 0.05}),
        ("d-K1-s1-e0.2", {**base, "variant": "d", "K": 1, "s": 1, "epsilon": 0.2}),
        ("d-K1-s2-e0.1", {**base, "variant": "d", "K": 1, "s": 2, "epsilon": 0.1}),
        ("c-canonical", {**base, "variant": "c", "K": 2, "epsilon": 0.1,
                         "engine": "canonical"}),
        ("d-canonical", {**base, "variant": "d", "K": 1, "s": 1, "epsilon": 0.2,
                         "engine": "canonical"}),
    ]


def _grover_cycle(cycle, _rng):
    # IQAE cost varies about 3x with the op's RNG seed, so the op seeds are
    # the fixed list 0, 1, 2, ... (one per cycle) in every run; the workload
    # seed only sets the order of the ops.
    T, E = np.array(FIXTURE_T), np.array(FIXTURE_E)
    return [EvaluateOp(f"{name}/{cycle}", {**cfg, "seed": cycle}, T, E)
            for name, cfg in _grover_configs()]


def _shots_cycle(cycle, rng):
    seeds = [int(x) for x in rng.integers(0, 2**31, size=9)]
    T, E = np.array(FIXTURE_T), np.array(FIXTURE_E)
    ops = [
        # the amplitude encoding's 2,000 shots per cycle run as two ops of
        # 1,000, which keeps the median op inside one op class
        DynstopOp(f"dynstop-amp-a/{cycle}", "amplitude", 3, 1, 1000, seeds[0]),
        DynstopOp(f"dynstop-amp-b/{cycle}", "amplitude", 3, 1, 1000, seeds[1]),
        DynstopOp(f"dynstop-boe-s1/{cycle}", "boe", 3, 1, 500, seeds[2]),
    ]
    for i, K in enumerate((2, 3)):
        cfg = {"variant": "classical_sampling", "K": K, "eta": ETA,
               "epsilon": 0.1, "seed": seeds[3 + i]}
        ops.append(EvaluateOp(f"sampling-K{K}/{cycle}", cfg, T, E))
    for i, (method, p) in enumerate([("swap", 0.072), ("swap", 0.767),
                                     ("ancilla_free", 0.072),
                                     ("ancilla_free", 0.767)]):
        ops.append(InnerOp(f"inner-{method}-p{p}/{cycle}", method, p, seeds[5 + i]))
    return ops


def _wide_cycle(cycle, rng):
    ops = []
    # b at N=64 runs twice per cycle so the median op lies inside one op
    # class rather than on the gap between the 0.3 s and 2 s ops
    specs = [("b", 3, 64), ("b", 3, 64), ("b", 3, 128), ("a", 2, 64), ("a", 3, 32)]
    for i, (variant, K, N) in enumerate(specs):
        T = rng.uniform(12.0, 28.0, size=N)
        E = rng.uniform(20.0, 40.0, size=N)
        cfg = {"variant": variant, "K": K, "eta": ETA, "epsilon": 0.05,
               "seed": int(rng.integers(0, 2**31))}
        ops.append(EvaluateOp(f"{variant}-K{K}-N{N}-{i}/{cycle}", cfg, T, E))
    return ops


_CYCLES = {"grover": _grover_cycle, "shots": _shots_cycle, "wide": _wide_cycle}


def guard_width(op):
    if op.width > MAX_QUBITS:
        raise ValueError(f"op {op.key} needs {op.width} qubits, above the "
                         f"{MAX_QUBITS}-qubit cap")
    return op


def build(workload, seed, cycles):
    """(timed ops, warm-up op) for `cycles` passes over the workload.

    Each pass gets fresh inputs, so no input repeats within a run.  The
    warm-up op is the workload's first configuration on inputs no timed op
    uses.
    """
    make = _CYCLES[workload]
    ops = []
    for cycle in range(cycles):
        rng = np.random.default_rng([seed, cycle])
        batch = make(cycle, rng)
        ops.extend(batch[i] for i in rng.permutation(len(batch)))
    warm = make(cycles, np.random.default_rng([seed, cycles]))[0]
    warm.key = "warmup"
    return [guard_width(op) for op in ops], guard_width(warm)
