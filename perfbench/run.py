"""detpf benchmark: time to a checked answer, and a per-module traced split.

    python3 perfbench/run.py --workload surface-high --seed 1 --seconds 60 --trace 0

One process, one client, a closed loop, workers=1.  The run repeats its
workload's fixed list of operations ("a round") while another round still
fits in the time budget, and always runs at least one.  Every answer is
checked against a closed form (see workloads.py), and each operation's
outputs must be the same in every round.

--trace 0 prints the end-to-end metrics: setup_s (the fastest of several
fresh-process probes of detpf import plus input generation, run between
the rounds), wall_s (median round time, answer checks included), op_p50_s
(median over the round's operations of each one's fastest latency in the
run), error_ratio and peak_rss_mb.  --trace 1 alternates untraced rounds
with rounds that have spans around detpf's entry points, and prints the
per-layer split (see spans.py) per round, plus trace.overhead_ratio.
The last line of standard output is one JSON object with the metrics that
BENCHMARK.json bounds (GATED); a result file with all of them, the
environment and the reproducibility digest is written to perfbench/out/.  detpf is imported from the src/ directory next to this
one; without it the run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_THREADS = "1"
SETUP_PROBES_PER_GAP = 4
P90_MIN_SAMPLES = 100
# End-to-end metrics on the last line.  op_p50_s is printed above it but not
# bounded: on graded-toolkit it is set by 30-50 ms calls whose cost moves by
# up to a third with the load on a shared host, for minutes at a time.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def pin_environment() -> None:
    """Single-threaded BLAS and no detpf overrides; call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    for var in ("DETPF_PRIME", "DETPF_WORKERS"):
        os.environ.pop(var, None)


def use_checkout_source() -> None:
    if not (SRC / "detpf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: detpf sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "machine": platform.machine(),
        "prime": workloads.PRIME,
        "seed": seed,
    }


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time measured in fresh interpreters, so every sample pays the import."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_round(ops, tracer=None) -> dict:
    latencies, records, failed = [], [], 0
    start = time.perf_counter()
    root = tracer.begin(spans.ROOT) if tracer else None
    for k, op in enumerate(ops):
        if tracer:
            tracer.op_id = k
        t = time.perf_counter()
        try:
            result = workloads.execute(op)
        except Exception:
            latencies.append(time.perf_counter() - t)
            traceback.print_exc(file=sys.stderr)
            failed += 1
            records.append(None)
            continue
        latencies.append(time.perf_counter() - t)
        try:
            with tracer.pause() if tracer else contextlib.nullcontext():
                records.append(workloads.check(op, result))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            records.append(None)
    wall = time.perf_counter() - start
    if tracer:
        tracer.op_id = None
        tracer.end(root)
        # the root span is the traced wall, so layer self times add up to it
        wall = tracer.spans[root][2] - tracer.spans[root][1]
    return {"wall": wall, "latencies": latencies, "records": records, "failed": failed}


def run_rounds(ops, budget: float, tracer=None, between=None) -> tuple[list[dict], list[dict]]:
    """Closed loop: start another round only while one more still fits.

    With a tracer, untraced and traced rounds alternate, so that the
    overhead ratio compares rounds run under the same machine conditions.
    `between` is called before every round and after the last one; its
    time counts against the budget.
    """
    between = between or (lambda: None)
    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        between()
        rounds.append(run_round(ops))
        step = rounds[-1]["wall"]
        if tracer is not None:
            with spans.installed(tracer):
                traced.append(run_round(ops, tracer))
            step += traced[-1]["wall"]
        if time.perf_counter() - start + step > budget:
            between()
            return rounds, traced


def reference_records(rounds: list[dict]) -> list:
    """Per operation, its first record that passed the answer check (or None)."""
    return [
        next((rec for rec in recs if rec is not None), None)
        for recs in zip(*(rnd["records"] for rnd in rounds))
    ]


def tally(rounds: list[dict], reference: list) -> tuple[int, int]:
    """(attempted, failed); an output differing from the reference fails too."""
    attempted = failed = 0
    for rnd in rounds:
        attempted += len(rnd["records"])
        failed += rnd["failed"]
        failed += sum(
            1 for got, ref in zip(rnd["records"], reference)
            if got is not None and ref is not None and got != ref
        )
    return attempted, failed


def per_layer(tracer: spans.Tracer, traced: list[dict], untraced: list[dict],
              cache: tuple[int, int]) -> dict:
    """Per-round layer metrics from the traced rounds."""
    self_s = spans.self_times(tracer.spans)
    calls = spans.call_counts(tracer.spans)
    c = tracer.counts
    n = len(traced)
    out = {}
    for name in spans.ENTRY_POINTS:
        out[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s")
    out[f"{spans.ROOT}.self_s"] = (self_s.get(spans.ROOT, 0.0) / n, "s")
    kernel_s = self_s.get("exactlin.rank", 0.0) + self_s.get("exactlin.eliminate", 0.0)
    kernel_ops = c["exactlin.rank.ops"] + c["exactlin.eliminate.ops"]
    out["exactlin.rank.ops"] = (c["exactlin.rank.ops"] / n, "op")
    out["exactlin.eliminate.ops"] = (c["exactlin.eliminate.ops"] / n, "op")
    out["exactlin.bytes"] = (c["exactlin.bytes"] / n, "B")
    out["exactlin.gops"] = (kernel_ops / kernel_s / 1e9 if kernel_s else 0.0, "Gop/s")
    out["polymat.points_used"] = (c["polymat.points_used"] / n, "count")
    out["polymat.points_degenerate"] = (c["polymat.points_degenerate"] / n, "count")
    needed = c["polymat.points_needed"]
    out["polymat.oversample_ratio"] = (c["polymat.points_used"] / needed if needed else 0.0, "ratio")
    certs = calls.get("dominance.is_dominant", 0)
    out["dominance.attempts_per_op"] = (c["dominance.attempts"] / certs if certs else 0.0, "ratio")
    hit, miss = cache
    out["mpoly.monomial_basis.hit_ratio"] = (hit / (hit + miss) if hit + miss else 0.0, "ratio")
    overhead = statistics.median(r["wall"] for r in traced) / statistics.median(
        r["wall"] for r in untraced
    )
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def measure(ops, seconds: float, trace: bool, between=None) -> tuple[dict, spans.Tracer | None]:
    """Run the rounds and compute metrics; the set-up time is added by the caller."""
    from detpf.mpoly import monomial_basis

    tracer = spans.Tracer() if trace else None
    before = monomial_basis.cache_info()
    rounds, traced = run_rounds(ops, seconds, tracer, between)
    after = monomial_basis.cache_info()
    # over the whole run, so the misses of the first round count
    cache = (after.hits - before.hits, after.misses - before.misses)
    layers = per_layer(tracer, traced, rounds, cache) if trace else {}
    reference = reference_records(rounds + traced)
    attempted, failed = tally(rounds + traced, reference)
    # each operation's fastest untraced latency: the inputs are fixed, so
    # host noise is all that separates its repeats, and noise only adds time
    latencies = [min(per_op) for per_op in zip(*(r["latencies"] for r in rounds))]
    result = {
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.digest(reference),
        "round_walls_s": [r["wall"] for r in rounds],
        "traced_round_walls_s": [r["wall"] for r in traced],
        "end_to_end": {
            "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "error_ratio": (failed / attempted, "ratio"),
        },
        "op_samples": len(latencies),
        "per_layer": layers,
    }
    if len(latencies) >= P90_MIN_SAMPLES:
        result["end_to_end"]["op_p90_s"] = (statistics.quantiles(latencies, n=10)[8], "s")
    return result, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_environment()
    use_checkout_source()

    if args.setup_probe:
        t0 = time.perf_counter()
        workloads.build_ops(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    ops = workloads.build_ops(args.workload, args.seed)
    import detpf

    if Path(detpf.__file__).resolve().parent != SRC / "detpf":
        raise SystemExit(f"perfbench: detpf imported from {detpf.__file__}, not {SRC}")
    # probes between the rounds, spread over the run; machine noise only
    # ever slows a probe down, so the fastest one is the estimate
    setup = []
    res, tracer = measure(
        ops, args.seconds, bool(args.trace),
        between=lambda: setup.extend(
            setup_samples(args.workload, args.seed, SETUP_PROBES_PER_GAP)
        ),
    )
    res["end_to_end"]["setup_s"] = (min(setup), "s")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seconds": args.seconds,
        "operations_per_round": len(ops),
        "setup_samples_s": setup,
        "environment": environment(args.seed),
        **res,
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    e2e = res["end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} rounds={res['rounds']} "
          f"traced_rounds={res['traced_rounds']} ops/round={len(ops)} digest={res['digest'][:16]}")
    for name, (value, unit) in {**e2e, **res["per_layer"]}.items():
        note = f"  (n={res['op_samples']})" if name.startswith("op_p") else ""
        print(f"  {name:40s} {value:.6g} {unit}{note}")
    chosen = res["per_layer"] if args.trace else {k: e2e[k] for k in GATED}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
