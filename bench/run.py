"""dialdistill benchmark: one workload, one process, closed loop.

    python3 bench/run.py --workload desk --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and traced
rounds and prints the per-layer metrics, writing the spans to
``--spans``. ``--workload all`` runs every workload, each in its own
process, and prints one result line per workload. See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, pinned before numpy loads: a process that waits on
# a second thread measures the other CPU's contention as well as its own,
# and an idle BLAS thread spins on that CPU between calls
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
# setup_s is the median of at least this many complete set-ups, repeated
# until they took at least this long (so a sub-second set-up is timed often)
SETUPS, SETUP_SECONDS = 3, 2.0
# which layer a round's output belongs to, for failures found by comparing rounds
OUTPUT_LAYER = {"loss": "training", "greedy": "decoding", "beam": "decoding",
                "report": "metrics", "flagged": "informativeness"}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path} not found; run from the root of a checkout")
    return json.loads(path.read_text(encoding="utf-8"))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")), "")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": THREADS,
            "nproc": os.cpu_count(), "cpu": cpu}


def end_to_end(setups, rounds, times) -> dict:
    """Medians and percentiles over every sample of the run; ``times`` turns
    (value, start, end) samples into values (``Reference.scaled`` or
    ``unscaled``)."""

    def pooled(get):
        return times([x for r in rounds for x in get(r)])

    def tokens_per_s(phase):
        return rounds[0].tokens_per_step / float(np.median(pooled(lambda r: r.step_s.get(phase, []))))

    greedy = pooled(lambda r: r.decode_ms_per_token["greedy"])
    beam = pooled(lambda r: r.decode_ms_per_token["beam"])
    return {
        "setup_s": float(np.median(times(setups))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "teacher_tokens_per_s": tokens_per_s("teacher"),
        "lm_tokens_per_s": tokens_per_s("lm"),
        "student_tokens_per_s": tokens_per_s("student"),
        "greedy_ms_per_token_p50": float(np.percentile(greedy, 50)),
        "greedy_ms_per_token_p90": float(np.percentile(greedy, 90)),
        "beam_ms_per_token_p50": float(np.percentile(beam, 50)),
        "beam_ms_per_token_p75": float(np.percentile(beam, 75)),
        "evaluate_s": float(np.median(pooled(lambda r: r.evaluate_s))),
        "classify_s": float(np.median(pooled(lambda r: r.classify_s))),
    }


def run_one(args) -> int:
    if not (SRC / "dialdistill" / "__init__.py").is_file():
        _fail(f"{SRC / 'dialdistill'} not found; run from the root of a checkout")
    spec = _spec()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import checks
    import dialdistill
    import tracing
    import workload

    if Path(dialdistill.__file__).resolve().parent != (SRC / "dialdistill").resolve():
        _fail(f"imported dialdistill from {dialdistill.__file__}, not from {SRC}")
    shapes = workload.TINY if args.tiny else workload.SHAPES
    if args.workload not in shapes:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(shapes)}")
    shape = shapes[args.workload]
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # set up several times; the last set-up's inputs and models are the ones used
        setups = []  # (seconds, start, end) samples
        while len(setups) < SETUPS or sum(s[0] for s in setups) < SETUP_SECONDS:
            shutil.rmtree(work, ignore_errors=True)
            with workload.Stopwatch() as sw:
                su = workload.set_up(shape, args.seed, work)
            setups.append(sw.sample(sw.raw_s))

        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = [], []
        budget_end = time.perf_counter() + args.seconds
        while True:
            use_tracer = args.trace and len(untraced) > len(traced)
            start = time.perf_counter()
            if use_tracer:
                tracer.context["round"] = len(traced)
                with tracer.patched():
                    rnd = workload.run_round(su, tracer, check=False)
                traced.append(rnd)
            else:
                rnd = workload.run_round(su, check=not untraced)
                untraced.append(rnd)
            last = time.perf_counter() - start
            enough = untraced and (traced or not args.trace)
            # another round only if at least half of one fits, so a run of
            # long rounds measures about --seconds rather than up to a round less
            if enough and time.perf_counter() + last / 2 > budget_end:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    rounds = untraced + traced
    failures = [f for r in rounds for f in r.failures]
    first = rounds[0].outputs
    for i, r in enumerate(rounds[1:], 1):
        for key in sorted(first):
            if checks.digest(r.outputs.get(key)) != checks.digest(first[key]):
                failures.append((OUTPUT_LAYER[key.split(".")[0]], f"round {i} {key} differs from round 0"))
    attempted = sum(r.attempted for r in rounds)

    print("env " + json.dumps(environment(), sort_keys=True))
    print("digests " + json.dumps({k: checks.digest(v) for k, v in sorted(first.items())}))
    print("samples " + json.dumps({
        "setups": len(setups), "rounds_untraced": len(untraced), "rounds_traced": len(traced),
        "steps_per_phase": {p: sum(len(r.step_s.get(p, [])) for r in untraced) for p in tracing.PHASES},
        "greedy_calls": sum(len(r.decode_ms_per_token["greedy"]) for r in untraced),
        "beam_calls": sum(len(r.decode_ms_per_token["beam"]) for r in untraced),
        "evaluate_runs": sum(len(r.evaluate_s) for r in untraced)}))
    print("unscaled " + json.dumps(end_to_end(setups, untraced, workload.unscaled)))
    for layer, reason in failures:
        print(f"failure [{layer}] {reason}")

    if args.trace:
        spans = Path(args.spans) if args.spans else ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        e2e = end_to_end(setups, untraced, workload.unscaled)
        values = tracing.layer_metrics(tracer.spans, {
            "student_step_ms": untraced[0].tokens_per_step / e2e["student_tokens_per_s"] * 1000,
            "evaluate_s": e2e["evaluate_s"]})
        values["trace.overhead_pct"] = (
            np.median([r.ops_s for r in traced]) / np.median([r.ops_s for r in untraced]) - 1) * 100
        for layer in tracing.LAYERS:
            values[f"{layer}.failed"] = sum(1 for f in failures if f[0] == layer) + sum(
                1 for s in tracer.spans if s.failed and s.name.split(".")[0] == layer)
        declared = spec["per_layer"]
    else:
        values = end_to_end(setups, untraced, workload.reference.scaled)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so its peak RSS is its own."""
    spec = _spec()
    status = 0
    for name in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"{name}\t{metric}\t{v['value']:.6g}\t{v['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time after set-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None,
                   help="traced run: span file (default .bench_out/spans-<workload>-<seed>.jsonl)")
    p.add_argument("--tiny", action="store_true", help="tiny shapes for the self-test")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
