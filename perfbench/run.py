"""qsim benchmark: one workload, run as a closed loop by one client in one
process (QSIM_THREADS=1); each op starts when the previous one ends.

    python3 perfbench/run.py --workload grover|shots|wide --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with --trace 1 they are its per-layer metrics, taken from a
traced pass over the first half of the op list, after an untraced pass over
the same ops that gives the tracing overhead.  Times are scaled to a fixed
machine speed, measured between ops with reference.py.  The lines before
the result give the context, each metric with its detail, and a SHA-256
digest of all op outputs.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
from scipy.stats import beta as beta_dist

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 150

# Per-layer counters that must be non-zero on a workload, and counters that
# must read zero there; the second set is the layers a workload bypasses.
EVERYWHERE = ("kernels.ctrl_1q.calls", "kernels.amps", "sim.apply_unitary.calls",
              "sim.readout.calls", "sim.rng_split.calls", "encoding.loader.calls",
              "assembly.evaluate.calls", "classical.fit.calls")
QAE = ("qae.grover.calls", "qae.iqae.calls", "qae.iqae.rounds",
       "qae.canonical.calls", "qae.oracle_build.calls", "qae.oracle_calls")
DYNSTOP_TANG = ("qhp.dynstop.calls", "qhp.dynstop.shots",
                "qhp.dynstop.success_ratio", "classical.tang.calls",
                "classical.queries")
INNER = ("inner.estimate.calls", "inner.shots")
NONZERO = {
    "grover": EVERYWHERE + QAE + ("kernels.cswap.calls", "qhp.build.calls"),
    "shots": EVERYWHERE + DYNSTOP_TANG + INNER + ("qhp.build.calls",),
    "wide": EVERYWHERE + INNER + ("kernels.cswap.calls", "qhp.build.calls"),
}
ZERO = {
    "grover": DYNSTOP_TANG,
    "shots": QAE,
    "wide": QAE + DYNSTOP_TANG,
}
# The reference load that tracks the machine's speed: small states for the
# per-call-overhead workloads, states beyond L2 for wide.
REFERENCE_PROFILE = {"grover": "small", "shots": "small", "wide": "large"}
KERNEL_SIM = ("kernels.ctrl_1q", "kernels.cswap", "sim.apply_unitary",
              "sim.readout", "sim.rng_split")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("grover", "shots", "wide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (timed by the parent)")
    return ap.parse_args(argv)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit("perfbench: BENCHMARK.json not found at the repository root")
    return json.loads(path.read_text())


def prepare_import():
    """Pin the process to one thread and put the checkout's qsim on the path."""
    if not (ROOT / "src" / "qsim" / "__init__.py").is_file():
        sys.exit("perfbench: no qsim source under src/; run from a full checkout")
    os.environ["QSIM_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def time_setup(args):
    """(wall seconds, reference sample) of a fresh process, from its start
    to its first op being due; the sample is the mean of one the child takes
    as it starts and one once it is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        elapsed = perf_counter() - start
        sample = proc.stdout.readline()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed, float(sample)


@dataclass
class Phase:
    raw: list      # wall seconds of each completed op
    scaled: list   # the same, scaled to the reference speed
    outputs: dict
    errors: dict

    @property
    def ops_per_s(self):
        return len(self.scaled) / sum(self.scaled)


def run_phase(ops, ref, tracer=None):
    """Run the ops back to back, with a reference sample before each op and
    after the last."""
    samples = [ref.sample()]
    done, outputs, errors = [], {}, {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op.key
            tracer.enter("op")
        t = perf_counter()
        try:
            raw = op.call()
        except Exception as exc:  # counted in failed_frac; the run goes on
            errors[op.key] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.exit()
        elapsed = perf_counter() - t
        samples.append(ref.sample())
        if op.key not in errors:
            done.append((i, elapsed))
            outputs[op.key] = op.summarize(raw)
    factors = reference.speed_factors(ref.ref_s, samples, len(ops))
    return Phase([t for _, t in done], [t * factors[i] for i, t in done],
                 outputs, errors)


def _jsonable(obj):
    return obj.item() if hasattr(obj, "item") else str(obj)


def digest(outputs):
    blob = json.dumps(outputs, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode()).hexdigest()


def count_passed(ops, outputs):
    passed = 0
    for op in ops:
        if op.key not in outputs:
            continue
        try:
            ok = bool(op.check(outputs[op.key]))
        except Exception as exc:  # a check that cannot run is a failed check
            print(f"check {op.key}: {type(exc).__name__}: {exc}")
            continue
        passed += ok
        if not ok:
            print(f"check {op.key}: output outside its tolerance")
    return passed


def hd_quantile(times, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, heaviest near rank p*n, so one op's noise moves it
    less than it moves a single order statistic."""
    n = len(times)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    weights = np.diff(beta_dist.cdf(np.arange(n + 1) / n, a, b))
    return float(np.dot(weights, np.sort(times)))


def tail_percentile(n):
    """The highest percentile with at least ten of n ops beyond it (with
    ten ops or fewer, the lowest op's)."""
    return 100.0 * max(n - 10, 1) / n


def context(args, cycles, n_ops):
    import scipy
    import qsim

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if level == '1' else ''}"] = (
                index / "size").read_text().strip()
        except OSError:
            continue
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsim").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        commit = res.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cycles": cycles, "ops": n_ops,
            "qsim.kernel_backend": qsim.kernel_backend,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "caches": caches,
            "commit": commit, "src_sha256": src.hexdigest(),
            "QSIM_THREADS": os.environ["QSIM_THREADS"]}


def emit(correct, attempted, failed, values, specs):
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def end_to_end(args, spec, ops, ref, setup_runs):
    import workloads

    phase = run_phase(ops, ref)
    attempted, completed = len(ops), len(phase.scaled)
    failed = len(phase.errors)
    passed = count_passed(ops, phase.outputs)
    correct_frac = passed / completed if completed else 0.0
    setup_scaled = [t * ref.ref_s / sample for t, sample in setup_runs]
    values = {"setup_s": median(setup_scaled),
              "ops_per_s": phase.ops_per_s,
              "correct_frac": correct_frac,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if completed:
        pct = tail_percentile(completed)
        values["op_s_p50"] = hd_quantile(phase.scaled, 0.5)
        values["op_s_tail"] = hd_quantile(phase.scaled, pct / 100)
    else:
        values["op_s_p50"] = values["op_s_tail"] = pct = 0.0
    for key, err in sorted(phase.errors.items()):
        print(f"error {key}: {err}")
    print(f"setup_s {values['setup_s']:.6f} s  (median of {len(setup_runs)} set-ups; "
          f"wall {', '.join(f'{t:.4f}' for t, _ in setup_runs)} s)")
    print(f"ops_per_s {values['ops_per_s']:.6f} 1/s  ({completed} ops; wall "
          f"{completed / sum(phase.raw):.6f} 1/s)" if completed else "ops_per_s 0")
    print(f"op_s_p50 {values['op_s_p50']:.6f} s  (wall "
          f"{median(phase.raw) if completed else 0.0:.6f} s)")
    print(f"op_s_tail {values['op_s_tail']:.6f} s  (p{pct:.1f} of {completed} ops, "
          f"{completed - max(completed - 10, 1)} beyond)")
    print(f"correct_frac {correct_frac:.6f} ratio  ({passed} of {completed} passed; "
          f"floor {workloads.CORRECT_FLOOR})")
    print(f"failed_frac {failed / attempted:.6f} ratio  ({failed} of {attempted} raised)")
    print(f"peak_rss_mb {values['peak_rss_mb']:.3f} MiB")
    print(f"digest sha256:{digest(phase.outputs)}")
    correct = completed > 0 and correct_frac >= workloads.CORRECT_FLOOR
    emit(correct, attempted, failed, values, spec["end_to_end"])


def traced(args, spec, ops, ref, cycles):
    import probes
    import tracer as tracing
    import workloads

    passes = math.ceil(cycles / 2)
    ops = ops[:passes * (len(ops) // cycles)]
    plain = run_phase(ops, ref)
    tr = tracing.Tracer()
    tr.install()
    try:
        seen = run_phase(ops, ref, tr)
    finally:
        tr.uninstall()
    values = tr.layer_metrics(passes)
    values["trace.overhead"] = seen.ops_per_s / plain.ops_per_s
    values.update(probes.run(args.seed))

    problems = []
    plain_digest, seen_digest = digest(plain.outputs), digest(seen.outputs)
    if plain_digest != seen_digest:
        problems.append("traced digest differs from untraced digest")
    problems += [f"{name} is zero" for name in NONZERO[args.workload]
                 if not values[name]]
    problems += [f"{name} is {values[name]}, expected zero"
                 for name in ZERO[args.workload] if values[name]]
    passed = count_passed(ops, seen.outputs)
    completed = len(seen.scaled)
    if not completed or passed / completed < workloads.CORRECT_FLOOR:
        problems.append(f"{passed} of {completed} outputs passed their check")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tr.write(spans_path)
    for s in spec["per_layer"]:
        print(f"{s['name']} {values[s['name']]:.6g} {s['unit']}")
    print(f"kernels+sim self share of op time {tr.op_share(KERNEL_SIM):.3f}")
    print(f"passes {passes}, ops {len(ops)}, spans {len(tr.spans)} -> "
          f"{spans_path.relative_to(ROOT)}")
    print(f"digest sha256:{seen_digest} (untraced sha256:{plain_digest})")
    for problem in problems:
        print(f"self-test: {problem}")
    print(f"self-test {'passed' if not problems else 'FAILED'}")
    emit(not problems, len(ops), len(seen.errors), values, spec["per_layer"])


def main(argv=None):
    args = parse_args(argv)
    ref = reference.Reference(REFERENCE_PROFILE[args.workload])
    first_sample = ref.sample() if args.setup_only else None
    prepare_import()
    spec = load_spec()
    import workloads

    cycles = workloads.cycles_for(args.workload, args.seconds)
    ops, warm = workloads.build(args.workload, args.seed, cycles)
    warm.call()
    if args.setup_only:
        print("ready", flush=True)
        print((first_sample + ref.sample()) / 2, flush=True)
        return 0
    print("context " + json.dumps(context(args, cycles, len(ops)), sort_keys=True))
    if args.trace:
        traced(args, spec, ops, ref, cycles)
    else:
        setup_runs = [time_setup(args) for _ in range(SETUP_RUNS)]
        end_to_end(args, spec, ops, ref, setup_runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
