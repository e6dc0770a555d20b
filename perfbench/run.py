"""Run one workload of the ccdae benchmark and print its metrics.

    python3 perfbench/run.py --workload pairs --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports ``ccdae`` from
that checkout's ``src/``. It prints one JSON line with the run's report
(environment, quality values, gates, tail percentile) and, as its last
line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
spans installed. With ``--trace 1`` the same untraced loop runs first, and
then one traced pass over the workload's inputs gives the per-layer
metrics; its spans are written to ``.bench_out/``.

The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the checkout holds no ``ccdae`` package.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.measure import (  # noqa: E402
    REF_S, TAIL_PERCENTILE, environment, input_times, peak_rss_mb, probe_setup,
    reference_s, tail_value,
)
from perfbench.tracing import (  # noqa: E402
    ITEM_SPAN, SELF_TIME_METRICS, ItemLog, Tracer, instrument,
)

#: Set-up is timed this many times, each in a fresh interpreter.
SETUP_REPEATS = 3
#: A run stops after this long even if some input has not run yet.
MAX_MEASURE_S = 120.0


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def measure(workload, seconds: float, log: ItemLog) -> None:
    """Run units until ``seconds`` have passed and every input has run."""
    t0 = time.perf_counter()
    k = 0
    while True:
        workload.run_unit(k, log)
        k += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MAX_MEASURE_S or (
                elapsed >= seconds and len(log.items) >= workload.pass_items):
            return


def item_stats(log: ItemLog) -> tuple[dict, dict]:
    """Throughput, median and tail over the inputs' scaled times."""
    per_input = input_times(log.items)
    if not per_input:
        raise RuntimeError("no item succeeded")
    times = list(per_input.values())
    tail, beyond = tail_value(times, TAIL_PERCENTILE)
    values = {
        "items_per_s": len(times) / sum(times),
        "item_s_p50": statistics.median(times),
        "item_s_tail": tail,
    }
    ok = [it for it in log.items if it.ok]
    repeats = [sum(it.input == key for it in ok) for key in per_input]
    detail = {
        "inputs": len(times),
        "repeats_min": min(repeats),
        "repeats_max": max(repeats),
        "item_s_tail": {"percentile": TAIL_PERCENTILE, "beyond": beyond},
        "wall_item_s_p50": statistics.median(it.seconds for it in ok),
        "host_speed": REF_S / statistics.median(it.ref for it in ok),
    }
    return values, detail


def end_to_end(log: ItemLog, setup_runs) -> tuple[dict, dict]:
    values, detail = item_stats(log)
    values["setup_s"] = statistics.median(s * REF_S / ref for s, ref in setup_runs)
    values["peak_rss_mb"] = peak_rss_mb()
    detail["setup_runs"] = [{"wall_s": s, "ref_s": ref} for s, ref in setup_runs]
    return values, detail


def per_layer(workload, tracer: Tracer, log: ItemLog,
              untraced_items_per_s: float) -> dict:
    self_times = tracer.self_times()
    counts = tracer.counts
    values = {metric: self_times.get(span, 0.0)
              for span, metric in SELF_TIME_METRICS.items()}
    fake = workload.fake
    requests = fake.requests if fake is not None else 0
    draws = counts.get("pipeline.draws", 0)
    item_s = sum(s.end - s.start for s in tracer.spans if s.name == ITEM_SPAN)
    traced_items_per_s = item_stats(log)[0]["items_per_s"]
    values.update({
        "core.distance_curve.calls": tracer.calls("core.distance_curve"),
        "core.gibbs_weights.calls": counts.get("core.gibbs_weights.calls", 0),
        "core.logits_evaluated": counts.get("core.logits_evaluated", 0),
        "backends.sample.calls": tracer.calls("backends.sample"),
        "backends.sample.draws": counts.get("backends.sample.draws", 0),
        "backends.score.calls": tracer.calls("backends.score"),
        "backends.ngram.symbol_calls": counts.get("backends.ngram.symbol_calls", 0),
        "backends.ngram.distribution_calls":
            counts.get("backends.ngram.distribution_calls", 0),
        "backends.remote.requests": requests,
        "backends.remote.retries": requests - tracer.calls("backends.remote.request"),
        "backends.remote.max_in_flight": fake.max_in_flight if fake is not None else 0,
        "pipeline.build_batch.calls": tracer.calls("pipeline.build_batch"),
        "pipeline.unique_ratio": counts.get("pipeline.unique", 0) / draws if draws else 0.0,
        "oracle.exact_distance_curve.calls": tracer.calls("oracle.exact_distance_curve"),
        "bench.pair_score.calls": counts.get("bench.pair_score.calls", 0),
        "bench.failures": sum(not it.ok for it in log.items),
        "trace.item_s": item_s,
        "trace.items_per_s": traced_items_per_s,
        "trace.overhead_items_per_s": traced_items_per_s - untraced_items_per_s,
    })
    # Self times partition the items' wall time.
    unaccounted = item_s - sum(self_times.values())
    if tracer.calls(ITEM_SPAN) != len(log.items) or abs(unaccounted) > 1e-6 * item_s:
        raise RuntimeError(f"spans do not cover the items: {unaccounted:.3g} s left")
    return values


def run(workload, seconds: float, trace: int, setup_runs, spans_path=None):
    """Measure one workload; return the result object and a report.

    An untraced, time-bounded loop gives the end-to-end metrics. With
    ``trace`` set, one traced pass over the inputs follows and gives the
    per-layer metrics instead; its spans go to ``spans_path``.
    """
    log = ItemLog(waited=workload.waited)
    measure(workload, seconds, log)
    e2e, detail = end_to_end(log, setup_runs)
    items = list(log.items)
    metrics = e2e
    if trace:
        tracer = Tracer()
        traced = ItemLog(tracer, waited=workload.waited)
        if workload.fake is not None:
            workload.fake.reset_counts()
        with instrument(tracer, workload.backend):
            k = 0
            while len(traced.items) < workload.pass_items:
                workload.run_unit(k, traced)
                k += 1
        if spans_path is not None:
            tracer.dump(spans_path)
        metrics = per_layer(workload, tracer, traced, e2e["items_per_s"])
        items += traced.items
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")

    quality = workload.check()
    failed = sum(not it.ok for it in items)
    report = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": trace,
        "end_to_end": e2e,
        "detail": detail,
        "quality": quality,
        "failure_ratio": failed / len(items),
    }
    result = {
        "correct": all(quality["gates"].values()),
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ccdae" / "__init__.py").is_file():
        print(f"error: no ccdae package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    first_setup_s = time.perf_counter() - t0
    setup_runs = ([(first_setup_s, reference_s())] if args.trace else
                  probe_setup(ROOT, args.workload, args.seed, SETUP_REPEATS))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, report = run(workload, args.seconds, args.trace, setup_runs,
                         spans_path=out_dir / f"{stem}.spans.jsonl")
    report["environment"] = environment(args.seed)
    report["first_setup_s"] = first_setup_s
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2), encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
