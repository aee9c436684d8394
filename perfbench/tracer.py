"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the qsim modules from outside the
package: it replaces every module attribute that is the original function,
so copies bound by `from .encoding import ...` in qae, inner, qhp and
classical are wrapped too, and it patches methods on their class.  Each
wrapped call records a span (name, start, end, parent span, op id) in
memory.  A span's self time is its duration minus the time its child spans
cover; ops run one at a time on one thread, so children never overlap.
"""

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

from qsim import assembly, classical, encoding, inner, kernels, qae, qhp, sim

AMP_BYTES = 32  # one complex128 read plus one written per amplitude touched


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _obs_ctrl_1q(counters, args, kwargs, result):
    n, mask = args[1], args[2]
    counters["kernels.amps"] += 1 << (n - bin(mask).count("1"))
    counters["sim.peak_qubits"] = max(counters["sim.peak_qubits"], n)


def _obs_cswap(counters, args, kwargs, result):
    # the two swapped halves of the control subspace with qa != qb
    n, mask = args[1], args[2]
    counters["kernels.amps"] += 1 << (n - bin(mask).count("1") - 1)
    counters["sim.peak_qubits"] = max(counters["sim.peak_qubits"], n)


def _obs_iqae(counters, args, kwargs, result):
    counters["qae.iqae.rounds"] += len(result.rounds)
    counters["qae.oracle_calls"] += result.oracle_calls


def _obs_canonical(counters, args, kwargs, result):
    # the count qae's estimators charge for one canonical run
    m = _arg(qae.canonical_qae, args, kwargs, "m")
    medians = _arg(qae.canonical_qae, args, kwargs, "medians")
    counters["qae.oracle_calls"] += medians * ((1 << m) - 1)


def _obs_dynstop(counters, args, kwargs, result):
    counters["qhp.dynstop.shots"] += len(result)
    counters["qhp.dynstop.successes"] += sum(o.success for o in result)
    counters["qhp.dynstop.loads"] += sum(o.loads for o in result)


def _obs_tang(counters, args, kwargs, result):
    eps = _arg(classical.tang_inner, args, kwargs, "epsilon")
    alpha = _arg(classical.tang_inner, args, kwargs, "alpha")
    counters["classical.queries"] += (classical.sampling_group_count(alpha)
                                      * classical.sampling_group_size(eps))


def _obs_inner(counters, args, kwargs, result):
    counters["inner.shots"] += result.shots_used
    counters["inner.clamped"] += int(result.clamped)


def targets():
    """(layer, owner, attribute, observer) for every wrapped function."""
    return [
        ("kernels.ctrl_1q", kernels, "apply_ctrl_1q", _obs_ctrl_1q),
        ("kernels.cswap", kernels, "apply_cswap_pair", _obs_cswap),
        ("sim.apply_unitary", sim.Circuit, "apply_unitary", None),
        *[("sim.readout", sim, name, None)
          for name in ("measure", "project_bits", "marginal_probabilities",
                       "probability_of_bits", "postselect")],
        ("sim.rng_split", sim.RngStream, "split", None),
        ("qae.grover", qae.GroverOracle, "grover", None),
        ("qae.iqae", qae, "iqae", _obs_iqae),
        ("qae.canonical", qae, "canonical_qae", _obs_canonical),
        ("qae.oracle_build", qae, "build_oracle_variant_c", None),
        ("qae.oracle_build", qae, "build_oracles_variant_d", None),
        ("qhp.dynstop", qhp, "run_with_dynamic_stopping", _obs_dynstop),
        ("qhp.build", qhp, "build_power_circuit", None),
        ("classical.tang", classical, "tang_inner", _obs_tang),
        ("classical.fit", classical, "fit_polynomial", None),
        *[("encoding.loader", encoding, name, None)
          for name in ("build_tree", "load_amplitude", "load_boe",
                       "normalize_affine", "normalize_sqrt")],
        *[("inner.estimate", inner, name, _obs_inner)
          for name in ("estimate_yk_swap", "estimate_yk_variant_ab",
                       "estimate_ytilde_boe_swap")],
        ("assembly.evaluate", assembly, "evaluate", None),
    ]


LAYERS = sorted({t[0] for t in targets()})


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.op_id = None
        self._stack = []    # [span index, seconds covered by children]
        self._patches = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), None, parent, self.op_id])

    def exit(self):
        end = perf_counter()
        idx, children = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        name = span[0]
        self.calls[name] += 1
        self.self_s[name] += dur - children
        self.total_s[name] += dur
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "qsim" or key.startswith("qsim."))]
        for name, owner, attr, observe in targets():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, observe)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics per pass over the workload's op list."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / passes
            out[f"{layer}.self_s"] = self.self_s[layer] / passes
        c = self.counters
        amps = c["kernels.amps"]
        kernel_s = self.self_s["kernels.ctrl_1q"] + self.self_s["kernels.cswap"]
        out["kernels.amps"] = amps / passes
        out["kernels.bytes_computed"] = amps * AMP_BYTES / passes
        out["kernels.ns_per_amp"] = kernel_s / amps * 1e9 if amps else 0.0
        peak = int(c["sim.peak_qubits"])
        out["sim.peak_qubits"] = peak
        out["sim.peak_state_bytes"] = 16 * (1 << peak) if peak else 0
        calls = c["qae.oracle_calls"]
        qae_s = self.total_s["qae.iqae"] + self.total_s["qae.canonical"]
        out["qae.oracle_calls"] = calls / passes
        out["qae.iqae.rounds"] = c["qae.iqae.rounds"] / passes
        out["qae.host_us_per_oracle_call"] = qae_s / calls * 1e6 if calls else 0.0
        shots = c["qhp.dynstop.shots"]
        out["qhp.dynstop.shots"] = shots / passes
        out["qhp.dynstop.success_ratio"] = (c["qhp.dynstop.successes"] / shots
                                            if shots else 0.0)
        out["qhp.dynstop.loads_per_shot"] = c["qhp.dynstop.loads"] / shots if shots else 0.0
        out["classical.queries"] = c["classical.queries"] / passes
        estimates = self.calls["inner.estimate"]
        out["inner.shots"] = c["inner.shots"] / passes
        out["inner.clamped_frac"] = c["inner.clamped"] / estimates if estimates else 0.0
        return out

    def op_share(self, layers):
        """Share of the op spans' time spent as self time of `layers`."""
        op_s = self.total_s["op"]
        return sum(self.self_s[l] for l in layers) / op_s if op_s else 0.0

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
