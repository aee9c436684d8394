"""Command line interface; exit codes 0 success, 2 refusal, 3 I/O, 1 a bug."""

import json
import os

import click

from . import assembly, classical
from .classical import SigmoidParams
from .encoding import read_series

VARIANT_ALIASES = {name.removeprefix("classical_"): name for name in assembly.VARIANTS}


class _Main(click.Group):
    """Maps every command's refusals to exit codes: I/O and malformed JSON to 3,
    then every other refusal, a ValueError, to 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(3)
        except ValueError as exc:
            click.echo(f"assumption violated: {exc}", err=True)
            ctx.exit(2)


@click.group(cls=_Main)
def main():
    """Statevector simulation of hybrid bilinear risk evaluation."""


@main.command()
@click.option("--variant", required=True,
              type=click.Choice(sorted(VARIANT_ALIASES)))
@click.option("--input-t", "input_t", required=True,
              type=click.Path(), help="temperature series (CSV or JSON)")
@click.option("--input-e", "input_e", required=True,
              type=click.Path(), help="price series (CSV or JSON)")
@click.option("--degree", "K", default=2, show_default=True, type=int)
@click.option("--eta", default=0.0, show_default=True, type=float)
@click.option("--epsilon", default=0.05, show_default=True, type=float)
@click.option("--beta", default=0.9, show_default=True, type=float)
@click.option("--split-level", "s", default=1, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--engine", default="iqae", show_default=True,
              type=click.Choice(["iqae", "canonical"]))
@click.option("--fit-mode", default="taylor", show_default=True,
              type=click.Choice(["taylor", "lsq"]))
@click.option("--out", "out_dir", default=None, type=click.Path())
def evaluate(variant, input_t, input_e, K, eta, epsilon, beta, s, seed,
             engine, fit_mode, out_dir):
    """Estimate V = sum_k b_k y'_k for one variant and one data pair."""
    raw_t = read_series(input_t)
    raw_e = read_series(input_e)
    mode = "least_squares" if fit_mode == "lsq" else "taylor"
    config = assembly.VariantConfig(
        variant=VARIANT_ALIASES[variant], K=K, eta=eta, epsilon=epsilon,
        beta=beta, s=s, engine=engine, fit_mode=mode, seed=seed)
    report = assembly.evaluate(config, raw_t, raw_e)
    # written first, so that an --out that cannot be written prints no report
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report.to_json(os.path.join(out_dir, f"evaluate_{variant}.json"))
    click.echo(json.dumps(report.to_dict(), indent=2, sort_keys=True, default=float))


@main.command()
@click.argument("name")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default="results", show_default=True,
              type=click.Path())
def experiment(name, config_path, out_dir):
    """Run a named experiment; writes CSV plus a JSON sidecar."""
    with open(config_path) as fh:
        config = json.load(fh)
    summary = assembly.run_experiment(name, config, out_dir)
    click.echo(json.dumps({"experiment": name, "summary": summary},
                          indent=2, sort_keys=True, default=float))


@main.command()
@click.option("--variant", required=True,
              type=click.Choice(sorted(VARIANT_ALIASES)))
@click.option("--n", "N", required=True, type=int,
              help="series length (power of two)")
@click.option("--degree", "K", default=2, show_default=True, type=int)
@click.option("--split-level", "s", default=1, show_default=True, type=int)
@click.option("--epsilon", default=0.05, show_default=True, type=float)
def resources(variant, N, K, s, epsilon):
    """Closed-form width/depth/sample counts per power k."""
    config = assembly.VariantConfig(variant=VARIANT_ALIASES[variant], K=K,
                                    s=s, epsilon=epsilon)
    table = assembly.resource_report(config, N)
    click.echo(json.dumps(table, indent=2, sort_keys=True, default=float))


@main.command()
@click.option("--params", default=None,
              help="A,B,C,D,T0 (defaults to the reference contract)")
@click.option("--mode", default="taylor", show_default=True,
              type=click.Choice(["taylor", "lsq"]))
@click.option("--degree", "K", default=3, show_default=True, type=int)
@click.option("--eta", required=True, type=float)
@click.option("--domain", default=None, help="LO,HI fit window")
def fit(params, mode, K, eta, domain):
    """Fit the degree-K polynomial and print its coefficients."""
    if params is None:
        sig = classical.DEFAULT_PARAMS
    else:
        try:
            a, b, c, d, t0 = (float(x) for x in params.split(","))
            sig = SigmoidParams(a, b, c, d, t0)
        except ValueError as exc:
            raise click.BadParameter(f"expected A,B,C,D,T0 ({exc})",
                                     param_hint="--params") from None
    window = None
    if domain is not None:
        try:
            lo, hi = (float(x) for x in domain.split(","))
        except ValueError:
            raise click.BadParameter("expected LO,HI", param_hint="--domain") from None
        window = (lo, hi)
    fit_mode = "least_squares" if mode == "lsq" else "taylor"
    coeffs = classical.fit_polynomial(sig, eta, K, fit_mode, window)
    click.echo(json.dumps({"K": K, "eta": eta, "mode": fit_mode,
                           "b": [float(x) for x in coeffs.b]},
                          indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
