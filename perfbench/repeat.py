"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workload train_desk --seeds 1-10 --seconds 20

For each metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles as a share of the
median. The summary is also written to
``.perfbench_work/repeat-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True)

    summary = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med,) * 3
        summary[name] = {"unit": units[name], "median": med, "q1": q1,
                         "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                         "values": vs}
        print(f"{name:36s} median {med:12.6g} {units[name]:8s} "
              f"spread {summary[name]['spread']:.4f}")
    out = HERE.parent / ".perfbench_work" / f"repeat-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                               "seconds": args.seconds, "metrics": summary},
                              indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
