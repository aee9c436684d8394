"""Golden digests: SHA-256 of fixed-seed outputs.

Each digest pins the exact bits a fixed-seed run produces, so a change that
alters any output (a draw order, a summation order, a rounding) fails here
even when every statistical test still passes.  The digests were computed
before the dynamic-stopping chain and the Tang walk were batched, and those
rewrites reproduce them.
"""

import hashlib
import json

import numpy as np
import pytest

from qsim import assembly, qhp
from qsim.encoding import normalize_affine
from qsim.sim import RngStream

FIXTURE_T = np.array([12.0, 17.0, 23.0, 28.0])
FIXTURE_E = np.array([30.0, 24.0, 36.0, 28.0])
ETA = 10.0


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _dynstop(encoding, k, s, shots, seed):
    series = normalize_affine(FIXTURE_T, ETA)
    loader = qhp.make_loader(series, encoding, s)
    plan = qhp.PowerPlan(k=k, style="mid_reset", encoding=encoding, s=s)
    outcomes = qhp.run_with_dynamic_stopping(plan, loader, shots,
                                             RngStream(seed), keep_states=True)
    states = [hashlib.sha256(o.state.amplitudes.tobytes()).hexdigest()
              for o in outcomes if o.success]
    return {"shots": [[o.success, o.rounds_executed, o.loads] for o in outcomes],
            "states": states}


def _evaluate(variant, K, seed):
    config = assembly.VariantConfig(variant=variant, K=K, eta=ETA,
                                    epsilon=0.1, seed=seed)
    return assembly.evaluate(config, FIXTURE_T, FIXTURE_E).to_dict()


CASES = {
    "dynstop-amplitude-k3": (
        lambda: _dynstop("amplitude", 3, 1, 1000, 11),
        "46c21c322f4760a5c54ce36e2051bb5ed102dfb2761423678a53921d1f706734"),
    "dynstop-boe-s1-k3": (
        lambda: _dynstop("boe", 3, 1, 500, 12),
        "f1b260d40b4edcac1241d1e0b9384954d8950fba9c5ebca52297acd1d4821c0f"),
    "sampling-K2": (
        lambda: _evaluate("classical_sampling", 2, 5),
        "47eaf97735c1d0611064f00aef7cc3ce37814bda9d1ea7e4ca9540fde882866f"),
    "sampling-K3": (
        lambda: _evaluate("classical_sampling", 3, 6),
        "75ccd0ae3470496950d044a57e283b1057b1aebb555b4d06f0f92bfa6abe22ba"),
    "variant-a": (
        lambda: _evaluate("a", 2, 3),
        "b8b9fb6d77b509f5cda07e5b7d34ccf560de70ff16e8bf6bcb154a9a71cfdc5b"),
    "variant-c": (
        lambda: _evaluate("c", 2, 3),
        "7d156e3e83d86d7b0ba8ef12e8b400669470b83790060bff8993e127d3d91b3a"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    run, expected = CASES[name]
    assert _digest(run()) == expected
