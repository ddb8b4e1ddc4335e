"""Two interleaved sets of timed runs: does the benchmark repeat?

For each of :data:`RUNS` seed indices ``i`` and each workload in
``BENCHMARK.json``, runs set A (seed ``100 + i``) and then set B (seed
``200 + i``) with ``run.py --trace 0``, so both sets see the same host
conditions.  Every result line, with the run's metadata, unscaled
timings and host reference bursts, is appended to ``--out`` as it
arrives.  Then, per workload and end-to-end metric, it prints each
set's median and quartile spread (IQR / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the ratio
of the set medians, against the metric's bound, and the spreads of the
unscaled timings beside them.  Run from the
repository root::

    python3 perfbench/spread.py --out .perfbench_out/spread.jsonl
    python3 perfbench/spread.py --report perfbench/records/two-sets.jsonl

``--report`` prints the table of an existing record without running.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import HERE, OUT

RUNS = 10
SETS = (("A", 100), ("B", 200))


def collect(config: dict, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    seconds = str(config["run_seconds"])
    for index in range(RUNS):
        for workload in (w["name"] for w in config["workloads"]):
            for label, base in SETS:
                seed = base + index
                started = time.perf_counter()
                done = subprocess.run(
                    [
                        sys.executable,
                        str(HERE / "run.py"),
                        "--workload",
                        workload,
                        "--seed",
                        str(seed),
                        "--seconds",
                        seconds,
                        "--trace",
                        "0",
                    ],
                    capture_output=True,
                    text=True,
                    check=False,
                )
                wall = time.perf_counter() - started
                result = json.loads(done.stdout.strip().splitlines()[-1])
                saved = OUT / f"{workload}-seed{seed}-trace0" / "result.json"
                kept = json.loads(saved.read_text(encoding="utf-8"))
                row = {
                    "workload": workload,
                    "set": label,
                    "seed": seed,
                    "exit": done.returncode,
                    "run_wall_s": wall,
                    "metadata": kept["metadata"],
                    "unscaled": kept["unscaled"],
                    "bursts": kept["bursts"],
                    "result": result,
                }
                with out.open("a", encoding="utf-8") as sink:
                    sink.write(json.dumps(row, sort_keys=True) + "\n")
                print(
                    f"{workload} set {label} seed {seed}: exit {done.returncode}, "
                    f"{wall:.1f} s, correct={result['correct']}",
                    flush=True,
                )


def _spread(values: list[float]) -> float:
    """IQR / median, the quartiles as ``statistics.quantiles`` gives them."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(config: dict, path: Path) -> bool:
    """Print the table; True when every set's spread (but ``setup_s``'s)
    and the ratio of the medians are within the metric's bound."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads, unscaled = [], [], []
            for label, _base in SETS:
                runs = [
                    r for r in rows if r["workload"] == workload and r["set"] == label
                ]
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(_spread(values))
                if name in runs[0].get("unscaled", {}):
                    unscaled.append(_spread([r["unscaled"][name] for r in runs]))
            ratio = medians[1] / medians[0]
            worse = ratio - 1 if metric["better"] == "lower" else 1 / ratio - 1
            fits = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= fits
            raw = "/".join(f"{u:.3f}" for u in unscaled) or "-"
            print(
                f"{workload:12} {name:18} A {medians[0]:11.4f} (IQR {spreads[0]:.3f})"
                f"  B {medians[1]:11.4f} (IQR {spreads[1]:.3f})  B/A {ratio:.3f}"
                f"  bound {bound:.2f}  {'ok' if fits else 'OUT'}"
                f"  unscaled IQR {raw}"
            )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, help="record file to append the runs to")
    group.add_argument("--report", type=Path, help="existing record file to report on")
    args = parser.parse_args()
    config = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    if args.out is not None:
        collect(config, args.out)
    return 0 if report(config, args.out or args.report) else 1


if __name__ == "__main__":
    sys.exit(main())
