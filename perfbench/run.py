"""The repository's benchmark: simulate, serve and sweep, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload sim_huge --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer's public entry
points from this directory (``layers.py``) and reports per-layer calls,
time and self time.  Both check the program's outputs, print a report,
and end with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 1 when any check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

WORKLOADS = ("sim_huge", "serve_churn", "fleet_sweep")


def _prepare() -> None:
    """Make ``src/`` importable and keep temporary files in the checkout."""
    from common import OUT, ROOT

    sys.path.insert(0, str(ROOT / "src"))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


# ---------------------------------------------------------------------- #
# Per-layer metrics (``--trace 1``)                                      #
# ---------------------------------------------------------------------- #

#: Layers whose inclusive (``.s``) and self (``.self_s``) seconds per op
#: are reported; ``unit`` is a fleet worker's per-unit root span.
TIMED_LAYERS = (
    "compile",
    "traces",
    "sim",
    "sample.delay",
    "migration.price",
    "events",
    "live.bootstrap",
    "live.hop",
    "live.arrive",
    "live.depart",
    "live.resize",
    "live.refine",
    "live.fallback",
    "kernel",
    "agrank",
    "service",
    "fleet.expand",
    "fleet.scheduler",
    "fleet.summary",
    "pool.close",
    "worker.import",
    "unit",
    "unit.compile",
    "unit.simulate",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traced: dict, probes: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``; layers a
    workload never enters read 0."""
    import spans
    from common import median

    ops = traced["per_op"]
    total = spans.merge(ops)
    n = len(ops)

    def per_op(value: float) -> float:
        return value / n

    inclusive, selfs = total["inclusive"], total["self"]
    counts, calls = total["counts"], total["calls"]
    out: dict[str, tuple[float, str]] = {
        "import.s": (median(p["import_s"] for p in probes), "s"),
        "spec.load.s": (median(p["load_s"] for p in probes), "s"),
        "setup.build.s": (median(p["build_s"] for p in probes), "s"),
    }
    for layer in TIMED_LAYERS:
        out[f"{layer}.s"] = (per_op(inclusive.get(layer, 0.0)), "s")
        out[f"{layer}.self_s"] = (per_op(selfs.get(layer, 0.0)), "s")
    hop_calls = calls["live.hop"]
    moved = counts["live.hop.moved"]
    pushes = counts["events.pushes"]
    placements = calls["live.arrive"] + calls["live.resize"]
    op_time = inclusive.get(spans.OP, 0.0)
    out.update(
        {
            "compile.calls": (per_op(calls["compile"] + calls["unit.compile"]), "count"),
            "live.hop.calls": (per_op(hop_calls), "count"),
            "live.hop.moved_share": (_ratio(moved, hop_calls), "ratio"),
            "events.pushes": (per_op(pushes), "count"),
            "events.pushes_per_hop": (_ratio(pushes, moved), "ratio"),
            "events.stale_share": (_ratio(counts["events.cancels"], pushes), "ratio"),
            "sample.delay.calls": (per_op(calls["sample.delay"]), "count"),
            "kernel.batches": (per_op(counts["kernel.batches"]), "count"),
            "kernel.candidates": (per_op(counts["kernel.candidates"]), "count"),
            "agrank.calls": (per_op(calls["agrank"]), "count"),
            "live.fallback_share": (_ratio(calls["live.fallback"], placements), "ratio"),
            "pool.first_record_s": (per_op(counts["pool.first_record_s"]), "s"),
            "pool.retries": (per_op(counts["pool.retries"]), "count"),
            "unattributed.s": (per_op(selfs.get(spans.OP, 0.0)), "s"),
            "unattributed.share": (_ratio(selfs.get(spans.OP, 0.0), op_time), "ratio"),
            "trace.overhead_s": (traced["overhead_s"], "s"),
            "trace.overhead_share": (
                _ratio(traced["overhead_s"], traced["untraced_s"]),
                "ratio",
            ),
        }
    )
    extra = traced["extra"]
    generator = extra.get("generator", {})
    out.update(
        {
            "pool.overhead_share": (extra.get("pool_overhead_share", 0.0), "ratio"),
            "service.queue_wait_p99_ms": (generator.get("queue_wait_p99_ms", 0.0), "ms"),
            "service.lateness_max_ms": (generator.get("lateness_max_ms", 0.0), "ms"),
            "service.budget_overruns": (generator.get("budget_overruns", 0), "count"),
            "serve.arrive_p99_ms": (extra.get("arrive", {}).get("p99_ms", 0.0), "ms"),
            "serve.depart_p99_ms": (extra.get("depart", {}).get("p99_ms", 0.0), "ms"),
            "serve.resize_p90_ms": (extra.get("resize", {}).get("p90_ms", 0.0), "ms"),
            "serve.snapshot_p90_ms": (extra.get("snapshot", {}).get("p90_ms", 0.0), "ms"),
            "serve.sustained_rps": (extra.get("sustained_rps", 0.0), "req/s"),
        }
    )
    repeat = traced["counts"]
    for name in ("hops", "migrations", "decisions", "fallbacks", "units"):
        out[f"count.{name}"] = (repeat.get(name, 0), "count")
    return out


# ---------------------------------------------------------------------- #
# Report                                                                 #
# ---------------------------------------------------------------------- #


def _print_table(title: str, totals: dict, root: str) -> None:
    import spans

    rows = spans.self_time_table(totals, root)
    whole = sum(seconds for _layer, seconds, _share in rows)
    print(f"self time by layer, {title} ({whole:.3f} s over the traced ops):")
    for layer, seconds, share in rows:
        print(f"  {layer:<18} {seconds:9.4f} s  {share * 100:6.2f} %")
    print(f"  {'total':<18} {whole:9.4f} s  {100.0:6.2f} %")


def run(args) -> int:
    import common
    import fleet_sweep
    import hostref
    import serve_churn
    import sim_huge
    import spans

    module = {
        "sim_huge": sim_huge,
        "serve_churn": serve_churn,
        "fleet_sweep": fleet_sweep,
    }[args.workload]
    workers = getattr(module, "WORKERS", 0)
    if args.setup_probe:
        work = common.workdir(f"{args.workload}-seed{args.seed}-probe")
        phases, state = module.setup(args.seed, work)
        print(json.dumps(phases), flush=True)
        if args.probe_op:
            module.probe_op(args.seed, state, work)
        rss = common.peak_rss_mb(workers * common.children_peak_rss_mb())
        print(json.dumps({"peak_rss_mb": rss}), flush=True)
        return 0

    meta = common.metadata(args.workload, args.seed, bool(args.trace))
    work = common.workdir(f"{args.workload}-seed{args.seed}-trace{args.trace}")
    ref = hostref.Reference()
    started = time.perf_counter()
    if args.trace:
        tracer = spans.Tracer()
        result = module.traced(args.seed, args.seconds, work, tracer)
        ref.sample()
    else:
        result = module.measure(args.seed, args.seconds, work, ref)
    measured_s = time.perf_counter() - started
    probes = common.setup_probes(args.workload, args.seed, ref)
    checks = result["checks"]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("metadata: " + json.dumps(meta, sort_keys=True))
    print(f"measured phase: {measured_s:.2f} s")
    if args.trace:
        metrics = per_layer_metrics(result, probes)
        print("per-layer metrics (per traced op):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:14.6g} {unit}")
        tables = result.get("tables") or {
            "main process": (spans.merge(result["per_op"]), spans.OP)
        }
        for title, (totals, root) in tables.items():
            _print_table(title, totals, root)
        print(
            f"tracing overhead: {result['overhead_s']:+.4f} s per op "
            f"over {result['untraced_s']:.4f} s untraced"
        )
        for rung in result["extra"].get("ladder", []):
            print("ladder rung: " + json.dumps(rung, sort_keys=True))
        tracer.dump(work / "spans.jsonl.gz")
        attempted = len(result["per_op"])
        failed = 0 if checks.ok else attempted
    else:
        raw = {
            "setup_s": common.median(p["setup_s"] for p in probes),
            "op_p50_ms": result["p50_ms"],
            "op_tail_ms": result["tail_ms"],
            "throughput_per_s": result["throughput_per_s"],
        }
        slowdown = ref.factor()
        metrics = {
            "setup_s": (raw["setup_s"] / slowdown, "s"),
            "peak_rss_mb": (probes[0]["peak_rss_mb"], "MB"),
            "op_p50_ms": (raw["op_p50_ms"] / slowdown, "ms"),
            "op_tail_ms": (raw["op_tail_ms"] / slowdown, "ms"),
            "throughput_per_s": (raw["throughput_per_s"] * slowdown, "1/s"),
        }
        print("end-to-end metrics (timings at the reference host speed):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<18} {value:14.6g} {unit}")
        print(
            f"  (op_tail_ms is the {result['tail_label']} of "
            f"{result['tail_n']} samples; setup_s is the median of "
            f"{len(probes)} fresh interpreters, peak_rss_mb that of the "
            "first, after set-up and one op)"
        )
        print("unscaled timings: " + json.dumps(raw, sort_keys=True))
        print(
            f"host reference bursts (nominal {hostref.NOMINAL_S} s, "
            f"slowdown {slowdown:.4f}): "
            + json.dumps([round(b, 4) for b in ref.bursts])
        )
        for name, values in result["samples"].items():
            print(f"samples {name}: " + json.dumps(values))
        if "figures" in result:
            print("per-op figures: " + json.dumps(result["figures"], sort_keys=True))
        attempted = result["attempted"]
        failed = result["failed"]
    print("exact-repeat counts: " + json.dumps(result["counts"], sort_keys=True))
    print("digests: " + json.dumps(result.get("digests", {}), sort_keys=True))
    print("checks:")
    print("\n".join(checks.lines()))
    line = {
        "correct": checks.ok,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    host = {} if args.trace else {"unscaled": raw, "bursts": ref.bursts}
    (work / "result.json").write_text(
        json.dumps({"metadata": meta, **host, **line}, sort_keys=True, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(line))
    return 0 if checks.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-op", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from common import ROOT

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    _prepare()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
