"""Golden digests: SHA-256 of fixed-seed outputs.

Each digest pins the exact bits a fixed-seed run produces, so a change that
alters any output (a draw order, a summation order, a rounding) fails here
even when every statistical test still passes.  A digest moves only on
purpose, for one stated cause; CHANGES.md names each move and each rewrite
that reproduced a digest.

The two dynstop digests pin the outcome of every shot that
qhp.run_with_dynamic_stopping draws; test_qhp checks those outcomes against
the statevector chain helpers.ref_dynamic_stopping.

The variant-a and variant-b K=3 digests on a seeded 32-point series pin
states of up to 21 qubits (a) and 15 qubits (b), where the 4-point
fixture's registers have 2.  The exact and poly digests draw nothing.

The canonical-qae-runs digest pins canonical QAE's draws from a child
stream: every run's multinomial counts and modal estimate, and their
median, on a one-qubit oracle whose modal readout varies between runs.
The three canonical evaluate digests can hold when those draws change.

The resources-cli digest pins the exit code and output of 280 `qsim
resources` requests, refusals included.

The compare-inner digest pins the compare_inner experiment's CSV and JSON
at its defaults: 400 fixed-shot estimates of variants a and b's readouts,
each drawn on its own child stream.  The error-scaling-k, qae-vs-classical,
end-to-end and resource-table digests pin the other four experiments' CSV
and JSON at their defaults in the same way.  The three -grid digests pin
error_scaling_k, compare_inner and qae_vs_classical on grids other than
the defaults' (axes out of sorted order, three p values, k = 1 on two
epsilons), so that a change of draw order shows on more than one shape.

The BOE swap-test digest covers the estimate as it was recorded when the
digest was taken, with the inputs epsilon and alpha and a tallies record
that the estimate no longer carries.  Those fields are rebuilt here: the
counts from the estimator's own multinomial draw, repeated on the same seed,
and the probabilities from a statevector pass.
"""

import dataclasses
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import helpers
from helpers import FIXTURE_E, FIXTURE_T
from qsim import assembly, inner, qae, qhp
from qsim.cli import main
from qsim.encoding import normalize_affine, normalize_sqrt
from qsim.sim import Circuit, RngStream

ETA = 10.0


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _dynstop(encoding, k, s, shots, seed):
    loader = qhp.make_loader(normalize_affine(FIXTURE_T, ETA), encoding, s)
    plan = qhp.PowerPlan(k=k, style="mid_reset", encoding=encoding, s=s)
    return [[o.success, o.rounds_executed, o.loads]
            for o in qhp.run_with_dynamic_stopping(plan, loader, shots, RngStream(seed))]


def _evaluate(variant, K, seed, **options):
    config = assembly.VariantConfig(variant=variant, K=K, eta=ETA,
                                    epsilon=0.1, seed=seed, **options)
    return assembly.evaluate(config, FIXTURE_T, FIXTURE_E).to_dict()


def _evaluate_series32(variant, K, seed, data_seed):
    rng = np.random.default_rng(data_seed)
    T = rng.uniform(12.0, 28.0, size=32)
    E = rng.uniform(20.0, 40.0, size=32)
    config = assembly.VariantConfig(variant=variant, K=K, eta=ETA,
                                    epsilon=0.1, seed=seed)
    return assembly.evaluate(config, T, E).to_dict()


def _boe_swap(k, s, shots, seed):
    series_t, series_e = normalize_sqrt(FIXTURE_T, ETA), normalize_sqrt(FIXTURE_E, 0.0)
    est = inner.estimate_ytilde_boe_swap(series_t, series_e, k, s, 0.1, 0.9,
                                         RngStream(seed), shots=shots)
    pc = qhp.power_circuit(series_t, k, encoding="boe", s=s)
    e_loader = qhp.make_loader(series_e, "boe", s)
    c00, c01, _ = RngStream(seed).multinomial(
        shots, inner._qhp_swap_probabilities(series_t, series_e, k, "boe", s))
    p_z0, p_z0_x0 = helpers.swap_probabilities(pc, e_loader)
    return {**dataclasses.asdict(est), "epsilon": 0.1, "alpha": 0.9,
            "tallies": {"zz_and_x0": int(c00), "zz_and_x1": int(c01), "shots": shots,
                        "p_z0": p_z0, "p_z0_x0": p_z0_x0}}


def _canonical_runs(z, m, medians, seed):
    """canonical_qae's multinomial counts and modal estimate per run, and its
    median, on a one-qubit oracle whose good state has probability z."""
    prepare = Circuit(1).ry(0, 2.0 * math.acos(math.sqrt(z)))
    rng = RngStream(seed).child()
    draw, counts = rng.multinomial, []
    rng.multinomial = lambda n, pvals: counts.append(draw(n, pvals)) or counts[-1]
    z_hat = qae.canonical_qae(qae.GroverOracle(prepare, (0,)), m, medians, rng)
    modes = [int(np.argmax(c)) for c in counts]
    # sin^2(pi x / 2^m) reads x and 2^m - x alike; the readout must vary
    assert len({min(x, (1 << m) - x) for x in modes}) > 1
    estimates = [math.sin(math.pi * x / (1 << m)) ** 2 for x in modes]
    assert z_hat == float(np.median(estimates))
    return {"counts": [c.tolist() for c in counts], "estimates": estimates,
            "z_hat": z_hat}


def _experiment(name, **config):
    """The named experiment's CSV and JSON at its defaults, bar `config`."""
    with tempfile.TemporaryDirectory() as tmp:
        assembly.run_experiment(name, config, tmp)
        return [(Path(tmp) / f"{name}.{ext}").read_text() for ext in ("csv", "json")]


def _resources():
    """Exit code and output of `qsim resources` for every variant alias at
    N = 4, 16, 256, K = 1, 3 and each split level from 0 to lg N + 1, so
    that d's refusals are pinned too."""
    runner = CliRunner()
    results = []
    for variant in ("a", "b", "c", "d", "sampling", "exact", "poly"):
        for N in (4, 16, 256):
            for K in (1, 3):
                for s in range(N.bit_length() + 1):
                    result = runner.invoke(main, [
                        "resources", "--variant", variant, "--n", str(N),
                        "--degree", str(K), "--split-level", str(s)])
                    results.append([variant, N, K, s, result.exit_code, result.output])
    assert len(results) == 280
    return results


CASES = {
    "dynstop-amplitude-k3": (
        lambda: _dynstop("amplitude", 3, 1, 1000, 11),
        "ab5fb302c7ee816568d756f61fe615153fc951b8c3319d03bfcf4823dd9aafc7"),
    "dynstop-boe-s1-k3": (
        lambda: _dynstop("boe", 3, 1, 500, 12),
        "325e99d6210b0db3e2939e0b7f87df76dcd62e5145c5b9640a24d85de35971fc"),
    "sampling-K2": (
        lambda: _evaluate("classical_sampling", 2, 5),
        "a4ba1321a015e5c3c36a46a04bab7272fe70ace26a6c94a37cd3315e6f731e6b"),
    "sampling-K3": (
        lambda: _evaluate("classical_sampling", 3, 6),
        "7e53e1400e59640c57f6f89658fb2d99694cdee556926f4f3dafe3edea12d402"),
    "variant-a": (
        lambda: _evaluate("a", 2, 3),
        "01ef03fc40edb46e2c25efbcc2bd1e0b8ba6420720669fafc9f7c2eb33ddb081"),
    "variant-c": (
        lambda: _evaluate("c", 2, 3),
        "8741f7703744b6a69b162d9ef992006ed1d534f0e737f6e08c2bb0c4c8b400b1"),
    "variant-b": (
        lambda: _evaluate("b", 2, 3),
        "b3d6169741ce5eb2012c7bcd0c8651d1f369c044dc0e71de9fa710dde9a9ebd1"),
    "variant-a-K3-N32": (
        lambda: _evaluate_series32("a", 3, 3, 32),
        "98eb706f08c450d9df5452e296893995cece331378bd906d0705b58b43de0035"),
    "variant-b-K3-N32": (
        lambda: _evaluate_series32("b", 3, 3, 32),
        "7bc7ed75d058adafcb5d441f0321cad04e35af663f0a1af2d749631a87a705d1"),
    "variant-d-K1-s1": (
        lambda: _evaluate("d", 1, 3, s=1),
        "aae3bb1f7c917ec39bfbc48b48290fd85565ffaaf4368651bd8f844c85b6f501"),
    "variant-d-K2-s1": (
        lambda: _evaluate("d", 2, 3, s=1, forced_epsilon_k=0.02),
        "1dc9f7cb85580c3539b40fe5dd16012e1591d77e9d930b451b5510cea373c2cb"),
    "canonical-d-K2-s1": (
        lambda: _evaluate("d", 2, 3, s=1, engine="canonical"),
        "adac51a187df10959ce010a31b76c9e7a0aeaa1f5f0126600461dea0a770cfcd"),
    "canonical-c": (
        lambda: _evaluate("c", 2, 3, engine="canonical"),
        "89af932b34bdb1549556da902479d05821d0fe92afb111598064ce91ae7fe850"),
    "canonical-d-K1-s1": (
        lambda: _evaluate("d", 1, 3, s=1, engine="canonical"),
        "c97ea5033bebbc96890ced4c86344d817546f6c977de7f27980061ad8711215f"),
    "canonical-qae-runs": (
        lambda: _canonical_runs(0.3, 3, 9, 7),
        "f11c5fa805d5b44c9119c9fd4d8da29e7c62da49d80b3f3c27963e845c425036"),
    "sampling-K3-forced": (
        lambda: _evaluate("classical_sampling", 3, 5, forced_epsilon_k=0.08),
        "3dfcd44d46e2aaf9c7921e85de1ee9d787690ab71477a7ff962708129e0ade57"),
    "exact-K3": (
        lambda: _evaluate("classical_exact", 3, 0),
        "5ef9e92241f8bd8b9f7d9a7ff3cb564bc802829acd5c1d8a5e222ac2fb6500ff"),
    "poly-K3": (
        lambda: _evaluate("classical_poly", 3, 0),
        "ec0b3d365ca98519e030074ef22ebc5845557b843a9a0d427ab7044f1e512d8f"),
    "variant-d-K2-s2": (
        lambda: _evaluate("d", 2, 3, s=2),
        "926efe0b9eb5ea88131714ade6395560007da586a8bb94f23721c289d34733e5"),
    "boe-swap-k1-s1": (
        lambda: _boe_swap(1, 1, 2000, 13),
        "1ce8aa1e5fa727477045e516557cc351cde00bb0488259b7e02bc9f85cbe1d3c"),
    "compare-inner": (
        lambda: _experiment("compare_inner"),
        "c59f594b30016e997f81dbc4346411c315bd2a4453a9c36d4dcafefabdd34d6c"),
    "error-scaling-k": (
        lambda: _experiment("error_scaling_k"),
        "f6a70799746e5b72859e3d7eb2526acc3cbff37a5c04de62a8e51e1c6a0a08ec"),
    "qae-vs-classical": (
        lambda: _experiment("qae_vs_classical"),
        "8a7e7dc6a48219b6ef370eca06caed9807f0ac8bec1c2d1c096dc11153800b57"),
    "end-to-end": (
        lambda: _experiment("end_to_end"),
        "0a5f3ecf66d4e7ab671b857f3426e5ff1d94721a25d4f8031f31dbaadca3364b"),
    "resource-table": (
        lambda: _experiment("resource_table"),
        "1114fad0ba6158ba67b662b766afe6777d86f3a6e33115c08c3d8139fccd3c1e"),
    "error-scaling-k-grid": (
        lambda: _experiment("error_scaling_k", k_values=[2, 1], N_values=[8, 4], repeats=3),
        "0be6ee74656bc53aa05bc0ab7e11709190cef0e174676270a1f1d4e394f295e4"),
    "compare-inner-grid": (
        lambda: _experiment("compare_inner", p_values=[0.3, 0.9, 0.072], repeats=5),
        "d296420ffaa09ca40e9eb17344444772b2bec54168ba5036a0ac0d8e39097590"),
    "qae-vs-classical-grid": (
        lambda: _experiment("qae_vs_classical", k=1, epsilons=[0.1, 0.2], repeats=3),
        "754faf7a2d5ce91312d567ff1cd2174d54e570bf81e02aaa333bf0b65d01544b"),
    "resources-cli": (
        _resources,
        "a74a6d64957b2cdb716b383985ef681f8980c24e40f0354a7a17546d3a767d45"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    run, expected = CASES[name]
    assert _digest(run()) == expected
