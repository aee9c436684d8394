"""What each request simulates, builds and allocates, as one table.

One recorder wraps every probe.  Each row is a request and the full record
it must leave: a column the row leaves out must stay empty.  Series are
numbered from 0 in the order the request makes them; a loader reads as the
first series whose |values| it loaded, and a kept law's key by its partner.
"""

import dataclasses

import numpy as np
import pytest

from helpers import FIXTURE_E, FIXTURE_T, fixture_pair
from qsim import classical, encoding, inner, qae, qhp
from qsim.assembly import VariantConfig, evaluate
from qsim.encoding import NormalizedSeries, normalize_affine, normalize_sqrt
from qsim.sim import Circuit, RngStream, Statevector


@dataclasses.dataclass
class Reach:
    states: tuple = ()    # qubits of each Statevector allocated
    applied: int = 0      # Circuit.apply_unitary calls
    inverted: int = 0     # Circuit.inverse calls
    powers: tuple = ()    # k of each qhp.build_power_circuit call
    trees: int = 0        # StateDecompositionTree builds
    loaders: tuple = ()   # the series each AmplitudeLoader or BoeLoader loaded
    exact: int = 0        # classical.exact_value calls
    poly: int = 0         # classical.classical_poly_value calls
    readouts: tuple = ()  # the key of each law kept in a series' readouts


def _record(monkeypatch):
    """Install every probe; return the log, one list per column."""
    log, series = {column.name: [] for column in dataclasses.fields(Reach)}, []

    def loaded(_loader, tree, *_args):
        return next(i for i, s in enumerate(series) if np.array_equal(abs(s.values), tree.leaves))

    class Kept(dict):  # series compare by identity, so index finds the one kept
        def __setitem__(self, key, law):
            log["readouts"].append(tuple(series.index(x) if isinstance(x, NormalizedSeries)
                                         else x for x in key))
            super().__setitem__(key, law)

    def numbered(self, post_init=NormalizedSeries.__post_init__):
        post_init(self)
        series.append(self)
        self.readouts = Kept()

    monkeypatch.setattr(NormalizedSeries, "__post_init__", numbered)
    for column, owner, name, value in [
            ("states", Statevector, "__init__", lambda _state, n, *_args: n),
            ("applied", Circuit, "apply_unitary", None), ("inverted", Circuit, "inverse", None),
            ("powers", qhp, "build_power_circuit", lambda plan, _loader: plan.k),
            ("trees", encoding.StateDecompositionTree, "__init__", None),
            ("loaders", encoding.AmplitudeLoader, "__init__", loaded),
            ("loaders", encoding.BoeLoader, "__init__", loaded),
            ("exact", classical, "exact_value", None),
            ("poly", classical, "classical_poly_value", None)]:
        def probe(*args, _probed=getattr(owner, name), _log=log[column], _value=value, **kw):
            _log.append(_value and _value(*args))
            return _probed(*args, **kw)
        monkeypatch.setattr(owner, name, probe)
    return log


def series_16(seed):
    gen = np.random.default_rng(seed)
    return gen.uniform(12.0, 28.0, 16), gen.uniform(20.0, 40.0, 16)


def _eval(variant, K, data=(FIXTURE_T, FIXTURE_E), **options):
    return lambda: evaluate(VariantConfig(variant=variant, K=K, **options), *data)


def _consumed(k):
    t_raw, e_raw = series_16(9)
    t, e = normalize_affine(t_raw, 10.0), normalize_affine(e_raw, 0.0)
    inner.estimate_yk_variant_ab(t, e, k, "no_mid_reset", 0.1, 0.9, RngStream(1), shots=100)
    inner.estimate_yk_swap(t, e, k, 0.1, 0.9, RngStream(2), shots=100)
    inner.estimate_ytilde_boe_swap(normalize_sqrt(t_raw, 10.0), normalize_sqrt(e_raw, 0.0),
                                   k, 1, 0.1, 0.9, RngStream(3), shots=100)


def _b_and_c(k):
    t, e = fixture_pair()
    for style in qhp.STYLES:
        inner.estimate_yk_variant_ab(t, e, k, style, 0.1, 0.9, RngStream(0))
    qae.estimate_yk_variant_c(t, e, k, 0.1, 0.9, VariantConfig("c"), RngStream(0))


def _five_at_k1(encoding_, estimate, *args):
    t, e = fixture_pair(encoding_)
    rng = RngStream(3)
    for _ in range(5):
        estimate(t, e, 1, *args, 0.1, 0.9, rng.child(), shots=2000)


def _equal_partners():
    t, e = fixture_pair()
    for partner in (e, normalize_affine(FIXTURE_E, 0.0)):
        inner._qhp_swap_probabilities(t, partner, 1)


def _dynstop(encoding_, n_vals, s):
    series = normalize_affine(np.random.default_rng(7).uniform(12.0, 30.0, n_vals), 10.0)
    qhp.run_with_dynamic_stopping(qhp.PowerPlan(3, "mid_reset", encoding_, s),
                                  qhp.make_loader(series, encoding_, s), 200, RngStream(3))


def row(id, run, **want):
    return pytest.param(run, Reach(**want), id=id)


def laws(name, K, *args):
    """name's key against series 1 at each power k, from K down to 1."""
    return tuple((name, 1, k, *args) for k in range(K, 0, -1))


SWAP, FREE = "_qhp_swap_probabilities", "_ancilla_free_readout"
AT_10 = dict(eta=10.0, epsilon=0.1)
EV = dict(exact=1, poly=1)  # evaluate's two references, each summed once
K1 = dict(applied=1, powers=(1,), trees=2, loaders=(1, 0))  # k = 1 swap test: E, then T
F = dict(trees=2, loaders=(0, 1))  # an oracle's F: T's power circuit, then E's loader
ROWS = [
    # a simulates its k = 1 swap test only
    row("a-K3-fixture", _eval("a", 3, **AT_10, seed=1), states=(5,), readouts=laws(SWAP, 3),
        **K1, **EV),
    *[row(f"a-K{K}-data{data}", _eval("a", K, series_16(data), **AT_10, seed=seed),
          states=(9,), readouts=laws(SWAP, K), **K1, **EV)
      for data, seed in ((3, 4), (7, 8)) for K in (2, 3)],
    # b, and c under IQAE, read y_k^2 in closed form at every k, from one law
    *[row(f"{v}-K{K}-data2", _eval(v, K, series_16(2), **AT_10, seed=5),
          readouts=laws(FREE, K), **EV) for v in "bc" for K in (1, 2, 3)],
    *[row(f"b-and-c-k{k}", lambda k=k: _b_and_c(k), readouts=((FREE, 1, k),)) for k in (1, 2)],
    # the direct sums, and Tang sampling from one tree over T' - eta
    row("b-K3-fixture", _eval("b", 3, **AT_10, seed=1), readouts=laws(FREE, 3), **EV),
    row("exact-K3", _eval("classical_exact", 3, **AT_10, seed=1), **EV),
    row("poly-K3", _eval("classical_poly", 3, **AT_10, seed=1), **EV),
    row("sampling-K3", _eval("classical_sampling", 3, **AT_10, seed=1), trees=1, **EV),
    # d under IQAE simulates its k = 1 BOE swap test only
    row("d-K2-s4-data0", _eval("d", 2, series_16(0), s=4), states=(17,), **K1, **EV),
    *[row(f"iqae-d-k{k}", lambda k=k: qae.estimate_ytilde_variant_d(
        *fixture_pair("boe"), k, 1, 0.1, 0.9, VariantConfig("d"), RngStream(0)), **want)
      for k, want in ((1, dict(states=(11,), **K1)), (2, {}))],
    # canonical QAE simulates each F once, widest first (U and U' share one
    # chi); its Grover iterates simulate neither F nor F^dag
    row("canonical-c-K2", _eval("c", 2, s=1, engine="canonical"), states=(4, 2), applied=2,
        inverted=2, powers=(2, 1), **F, **EV),
    row("canonical-c-K2-data0", _eval("c", 2, series_16(0), engine="canonical"), states=(8, 4),
        applied=2, inverted=2, powers=(2, 1), **F, **EV),
    row("canonical-d-K1", _eval("d", 1, s=1, engine="canonical"), states=(11,), applied=1,
        powers=(1,), **F, **EV),
    row("canonical-d-K2", _eval("d", 2, s=1, engine="canonical"), states=(16, 11), applied=2,
        powers=(2, 1), **F, **EV),
    *[row(f"qpe-c-k{k}", lambda k=k: qae._qpe_distribution(
        qae.build_oracle_variant_c(*fixture_pair(), k), 6),
        states=(2 * k,), applied=1, inverted=1, powers=(k,), **F) for k in (1, 2, 3)],
    *[row(f"qpe-d-k{k}-s{s}-{name}", lambda k=k, s=s, i=i: qae._qpe_distribution(
        qae.build_oracles_variant_d(*fixture_pair("boe"), k, s)[i], 6),
        states=((k + 1) * boe + 1,), applied=1, powers=(k,), **F)
      for k in (1, 2) for s, boe in ((1, 5), (2, 4)) for i, name in enumerate(("U", "Uprime"))],
    # a pair's law is computed on its first estimate, once; a partner of
    # equal values is another series, with a law of its own
    *[row(f"consumed-k{k}", lambda k=k: _consumed(k),
          readouts=((FREE, 1, k), (SWAP, 1, k), (SWAP, 3, k, "boe", 1))) for k in (2, 3, 4)],
    row("repeated-swap", lambda: _five_at_k1("amplitude", inner.estimate_yk_swap),
        states=(5,), readouts=laws(SWAP, 1), **K1),
    row("repeated-boe", lambda: _five_at_k1("boe", inner.estimate_ytilde_boe_swap, 1),
        states=(11,), readouts=laws(SWAP, 1, "boe", 1), **K1),
    row("repeated-ab", lambda: _five_at_k1("amplitude", inner.estimate_yk_variant_ab,
                                           "no_mid_reset"), readouts=laws(FREE, 1)),
    row("equal-partners", _equal_partners, states=(5, 5), applied=2, powers=(1, 1), trees=3,
        loaders=(1, 0, 1), readouts=((SWAP, 1, 1), (SWAP, 2, 1))),
    # dynamic stopping draws from the closed-form chain: it only loads
    *[row(f"dynstop-{enc}-N{n_vals}-s{s}", lambda case=(enc, n_vals, s): _dynstop(*case),
          trees=1, loaders=(0,))
      for enc, n_vals, s in (("amplitude", 8, 1), ("boe", 4, 1), ("boe", 8, 2))],
]


@pytest.mark.parametrize("run, want", ROWS)
def test_reach(monkeypatch, run, want):
    log = _record(monkeypatch)
    report = run()
    got = Reach(**{column: tuple(values) if isinstance(getattr(want, column), tuple)
                   else len(values) for column, values in log.items()})
    assert got == want
    if getattr(report, "variant", None) == "a":  # its rows report the one state it simulates
        assert {r["width"] for r in report.per_k[1:]} == {max(got.states)}
