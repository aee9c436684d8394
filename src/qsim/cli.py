"""Command line interface; exit codes 0 success, 2 refusal, 3 I/O, 1 a bug."""

import json
import os

import click

from . import assembly, classical, fields
from .classical import SigmoidParams
from .encoding import read_series

VARIANT_ALIASES = {name.removeprefix("classical_"): name for name in assembly.VARIANTS}
V, FIT = fields.VARIANT_CONFIG, fields.FIT


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


def _floats(text, names, option):
    """The comma-separated floats of an option, one for each of names."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) != names.count(",") + 1:
        raise click.BadParameter(f"expected {names}", param_hint=option)
    return values


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
@click.option("--degree", "K", default=V["K"].default, show_default=True, type=int)
@click.option("--eta", default=V["eta"].default, show_default=True, type=float)
@click.option("--epsilon", default=V["epsilon"].default, show_default=True, type=float)
@click.option("--beta", default=V["beta"].default, show_default=True, type=float)
@click.option("--split-level", "s", default=V["s"].default, show_default=True, type=int)
@click.option("--seed", default=V["seed"].default, show_default=True, type=int)
@click.option("--engine", default=V["engine"].default, show_default=True,
              type=click.Choice(V["engine"].kind))
@click.option("--fit-mode", default="taylor", show_default=True,
              type=click.Choice(["taylor", "lsq"]))
@click.option("--out", "out_dir", default=None, type=click.Path())
def evaluate(variant, input_t, input_e, fit_mode, out_dir, **options):
    """Estimate V = sum_k b_k y'_k for one variant and one data pair."""
    raw_t, raw_e = read_series(input_t), read_series(input_e)
    config = assembly.VariantConfig(
        variant=VARIANT_ALIASES[variant], **options,
        fit_mode="least_squares" if fit_mode == "lsq" else "taylor")
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
@click.option("--degree", "K", default=V["K"].default, show_default=True, type=int)
@click.option("--split-level", "s", default=V["s"].default, show_default=True, type=int)
@click.option("--epsilon", default=V["epsilon"].default, show_default=True, type=float)
def resources(variant, N, **options):
    """Closed-form width/depth/sample counts per power k."""
    table = assembly.resource_report(
        assembly.VariantConfig(variant=VARIANT_ALIASES[variant], **options), N)
    click.echo(json.dumps(table, indent=2, sort_keys=True, default=float))


@main.command()
@click.option("--params", default=None,
              help="A,B,C,D,T0 (defaults to the reference contract)")
@click.option("--mode", default="taylor", show_default=True,
              type=click.Choice(["taylor", "lsq"]))
@click.option("--degree", "K", default=FIT["degree"].default, show_default=True, type=int)
@click.option("--eta", required=True, type=float)
@click.option("--domain", default=None, help="LO,HI fit window")
def fit(params, mode, K, eta, domain):
    """Fit the degree-K polynomial and print its coefficients."""
    sig = (classical.DEFAULT_PARAMS if params is None
           else SigmoidParams(*_floats(params, "A,B,C,D,T0", "--params")))
    window = None if domain is None else _floats(domain, "LO,HI", "--domain")
    fit_mode = "least_squares" if mode == "lsq" else "taylor"
    coeffs = classical.fit_polynomial(sig, eta, K, fit_mode, window)
    click.echo(json.dumps({"K": K, "eta": eta, "mode": fit_mode,
                           "b": [float(x) for x in coeffs.b]},
                          indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
