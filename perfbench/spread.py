"""Run one workload over several seeds and report, for each end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median, against a
third of the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload grover --seeds 1 2 3 4 5

Runs are sequential; each result line is also appended to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=600)
        if res.returncode != 0:
            sys.exit(f"seed {seed}: exit {res.returncode}\n{res.stderr}")
        result = json.loads(res.stdout.strip().splitlines()[-1])
        digest = next((l for l in res.stdout.splitlines() if l.startswith("digest")), "")
        with open(out_dir / f"spread-{args.workload}.jsonl", "a") as fh:
            fh.write(json.dumps({"seed": seed, "result": result, "digest": digest}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    if args.trace or len(args.seeds) < 2:
        return
    for s in spec["end_to_end"]:
        vals = values[s["name"]]
        q1, med, q3 = quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < s["bound"] / 3 else "WIDE"
        print(f"{s['name']:14s} median {median(vals):.6g} spread {spread:.4f} "
              f"bound/3 {s['bound'] / 3:.4f} {flag}")


if __name__ == "__main__":
    main()
