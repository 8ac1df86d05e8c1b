"""qpmut benchmark: one workload per call, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload markov_walk --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics.  Either way, the run repeats whole passes of the workload
until ``--seconds`` have passed (at least one pass), gates every item's
output after each pass, and prints one JSON object as its last line.  Results, item rows and spans are also written under
``.bench_out/``.  Metric names and units are those of ``BENCHMARK.json``.
Exit status: 0 when every output is correct, 1 when any check fails, 2 when
the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REQUIRED = ("BENCHMARK.json", "src/qpmut/__init__.py", "fixtures/markov_rep.json")
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def measure_setup(args, want_digest: str, problems: list[str]) -> list[float]:
    """Time the set-up in fresh interpreters.  Each child imports qpmut,
    builds the inputs, prints ``ready`` and then the digest of its inputs,
    which must equal this process's."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            ready = proc.stdout.readline().strip()
            t1 = perf_counter()
            digest = proc.stdout.readline().strip()
        if ready != "ready" or proc.returncode != 0:
            problems.append(f"set-up child exited with status {proc.returncode}")
        elif digest != want_digest:
            problems.append("set-up child built different inputs")
        times.append(t1 - t0)
    return times


def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten of ``n`` values beyond it."""
    return 100 if n <= 10 else (n - 10) * 100 // n


def percentile(values: list[float], pct: int) -> float:
    """Harrell-Davis estimate of a percentile: the mean of the sorted values
    weighted by a Beta((n+1)p, (n+1)(1-p)) density over their ranks.  Item
    times carry the host's second-to-second speed, and this averages that
    over the few items around the rank, where the nearest-rank value takes
    one item's noise whole.  p100 is the maximum."""
    s = sorted(values)
    n = len(s)
    if pct >= 100:
        return s[-1]
    a, b = (n + 1) * pct / 100, (n + 1) * (100 - pct) / 100
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    k = 16  # Simpson's rule, k steps over each rank's interval
    weights = [
        sum(density((i + j / k) / n) * (1 if j in (0, k) else 4 if j % 2 else 2) for j in range(k + 1))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, s)) / sum(weights)


@dataclass
class Pass:
    """One gated pass."""

    wall_s: float
    item_s: dict[int, float]
    failures: dict[int, str]
    digests: dict[int, str]
    max_bits: int
    tracer: object = None
    bindings: dict | None = None


def gated(wl, res, tracer=None, bindings=None) -> Pass:
    return Pass(res.wall_s, res.item_s, wl.gate(res), res.digests, res.max_bits, tracer, bindings)


def run_passes(wl, seconds: float, t0: float, traced: bool = False) -> list[Pass]:
    """Whole passes until ``seconds`` have passed since ``t0`` (at least one)."""
    import spans

    out: list[Pass] = []
    while not out or perf_counter() - t0 < seconds:
        gc.collect()
        tracer = spans.Tracer() if traced else None
        with spans.installed(tracer) if traced else nullcontext() as bindings:
            res = wl.run_pass(tracer)
        out.append(gated(wl, res, tracer, bindings))
    return out


def count_failures(wl, passes: list[Pass], problems: list[str]) -> tuple[int, int]:
    failed = 0
    for p, ps in enumerate(passes):
        failed += len(ps.failures)
        problems += [f"pass {p} {wl.item_name(i)}: {why}" for i, why in sorted(ps.failures.items())]
    return wl.n_items * len(passes), failed


def end_to_end(args, wl, problems):
    t0 = perf_counter()
    setup = measure_setup(args, wl.input_digest(), problems)
    passes = run_passes(wl, args.seconds, t0)
    attempted, failed = count_failures(wl, passes, problems)
    per_item = [statistics.median(ps.item_s[i] for ps in passes if i in ps.item_s)
                for i in range(wl.n_items)]
    # A user asks for the whole walk (load, six steps, emit) and for each
    # corpus item on its own; those are the latencies the item metrics rank.
    if wl.name == "markov_walk":
        latency, what = [ps.wall_s for ps in passes], "walks"
    else:
        latency, what = per_item, "items (median over passes)"
    pct = tail_percentile(len(latency))
    rows = {  # name: (value, unit, samples, note)
        "setup_s": (statistics.median(setup), "s", len(setup), "fresh interpreters"),
        "wall_s": (statistics.median(ps.wall_s for ps in passes), "s", len(passes), "median pass"),
        "item_p50_ms": (percentile(latency, 50) * 1e3, "ms", len(latency), f"p50 of {what}"),
        "item_tail_ms": (percentile(latency, pct) * 1e3, "ms", len(latency), f"p{pct} of {what}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1, ""),
        "fail_frac": (failed / attempted, "1", attempted, "failed / attempted items"),
    }
    if wl.name == "markov_walk":
        rows["walk_last_step_s"] = (per_item[-1], "s", len(passes), "last mutation step")
    record = {
        "setup_s": setup,
        "passes": [{"wall_s": ps.wall_s, "item_s": ps.item_s} for ps in passes],
    }
    return rows, attempted, failed, record


def per_layer(args, wl, problems):
    import spans

    t0 = perf_counter()
    gc.collect()
    ref = gated(wl, wl.run_pass())
    traced = run_passes(wl, args.seconds, t0, traced=True)
    attempted, failed = count_failures(wl, [ref] + traced, problems)
    for p, ps in enumerate(traced):
        bad = [i for i, d in ps.digests.items() if i not in ps.failures and d != ref.digests.get(i)]
        failed += len(bad)
        problems += [f"traced pass {p} {wl.item_name(i)}: output differs from the untraced pass" for i in bad]
    problems += [f"{name}: no binding found to wrap" for name, n in traced[0].bindings.items() if not n]

    per_pass = [spans.pass_metrics(ps.tracer.spans) for ps in traced]
    metrics = spans.median_metrics(per_pass)
    metrics["fields.max_coeff_bits"] = ref.max_bits
    metrics["trace.overhead_s"] = statistics.median(ps.wall_s for ps in traced) - ref.wall_s
    rows = {k: (v, None, len(traced), "") for k, v in metrics.items()}

    items = []
    for p, ps in enumerate(traced):
        totals = spans.item_rows(ps.tracer.spans)
        for idx in sorted(totals):
            items.append({
                "pass": p,
                "item": idx,
                "name": wl.item_name(idx) if idx >= 0 else "outside items",
                "size": wl.item_size(idx) if idx >= 0 else None,
                "time_s": ps.item_s[idx] if idx >= 0 else ps.wall_s - sum(ps.item_s.values()),
                "self_s": totals[idx],
            })
    for r in sorted((r for r in items if r["pass"] == 0 and r["item"] >= 0), key=lambda r: -r["time_s"])[:5]:
        top, top_s = max(r["self_s"].items(), key=lambda kv: kv[1])
        print(f"heavy item {r['name']} (size {r['size']}): {r['time_s']:.4f} s, "
              f"most self time in {top} ({top_s:.4f} s)")

    names = sorted({s[0] for ps in traced for s in ps.tracer.spans})
    code = {n: i for i, n in enumerate(names)}
    record = {
        "untraced_wall_s": ref.wall_s,
        "traced_wall_s": [ps.wall_s for ps in traced],
        "bindings": traced[0].bindings,
        "per_pass": per_pass,
        "items": items,
        "span_fields": ["name", "start_s", "end_s", "parent", "item", "attrs", "probe_s"],
        "span_names": names,
        "spans": [[[code[s[0]], *s[1:]] for s in ps.tracer.spans] for ps in traced],
    }
    return rows, attempted, failed, record


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        print(wl.input_digest(), flush=True)
        return 0
    # The inputs stay alive for the whole run, which a caller handling one
    # input would not pay for: keep them out of the collector's full passes,
    # whose pauses would otherwise land on whichever item triggers them.
    gc.collect()
    gc.freeze()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    env = environment()
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    problems: list[str] = []
    rows, attempted, failed, record = (per_layer if args.trace else end_to_end)(args, wl, problems)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} items attempted, {failed} failed")
    print(f"{'metric':42} {'value':>14} {'unit':6} {'samples':>7}  note")
    for name in list(spec) + [k for k in rows if k not in spec]:
        value, unit, n, note = rows[name]
        print(f"{name:42} {value:14.6g} {unit or spec[name]:6} {n:7}  {note}")
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    correct = not problems and failed == 0
    metrics = {k: {"value": rows[k][0], "unit": spec[k]} for k in spec}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics, **record,
    }))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
