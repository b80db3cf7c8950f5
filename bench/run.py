"""tricut benchmark: one caller, one thread, a closed loop over an instance ladder.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's instances from the seed (untimed set-up), then runs the
ladder pass after pass, each instance only after the previous one returned,
until S seconds have passed and at least 100 instances have run.  Every
answer is checked.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it, starting
with "#", repeat the metrics for people and carry the run's `info` record
(workload, seed, inputs_sha, failed_frac, sample count) that compare.py reads.

--trace 0 reports the end-to-end metrics; --trace 1 reruns the workload with
spans around every public tricut function, reports per-layer metrics and
writes the spans to bench/out/spans-WORKLOAD-SEED.json.
See bench/README.md.
"""

from __future__ import annotations

import os

# one thread: numpy must not start a BLAS pool behind the caller's back
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Timed spans read the process's CPU time.  The process is one thread that
# waits on nothing but the CPU, so this is its wall time minus the time the
# host gave the CPU to someone else.  On a shared 2-core VM that stolen time
# spread wall-clock results of identical work by 15-37% between runs, CPU
# time by 3-5%.  The info record reports both totals for the timed loop.
CLOCK = time.process_time
MIN_SAMPLES = 100  # so latency_p90_ms has at least 10 samples beyond it
SETUP_ROUNDS = 3


@dataclass
class Loop:
    """Per-instance times (CLOCK) of a closed loop, and its failures."""

    times: list[list[float]]
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0  # whole loop, answer checks included

    @property
    def timed_s(self) -> float:
        return sum(sum(t) for t in self.times)


def run_loop(instances, seconds: float, min_samples: int, pause=None, resume=None,
             before=None) -> Loop:
    """Run whole passes until `seconds` and `min_samples` are both reached.

    `pause`/`resume` bracket the untimed answer check, so a tracer does not
    count the benchmark's own checking as program work.  `before(instance)`
    runs ahead of each timed call, outside its span.
    """
    loop = Loop([[] for _ in instances])
    clock = CLOCK
    start = time.perf_counter()
    while True:
        for inst, times in zip(instances, loop.times):
            if before:
                before(inst)
            err = None
            t0 = clock()
            try:
                res = inst.solve()
            except Exception as e:  # a failed instance is counted, the loop goes on
                err = e
            times.append(clock() - t0)
            ok = False
            if err is None:
                if pause:
                    pause()
                try:
                    ok = bool(inst.check(res))
                except Exception as e:
                    err = e
                if resume:
                    resume()
            loop.attempted += 1
            if not ok:
                loop.failed += 1
                if len(loop.errors) < 5:
                    loop.errors.append(f"{inst.label}: {err!r}" if err else f"{inst.label}: wrong answer")
        loop.passes += 1
        if time.perf_counter() - start >= seconds and loop.attempted >= min_samples:
            loop.wall_s = time.perf_counter() - start
            return loop


def inputs_sha(instances) -> str:
    blob = json.dumps([[i.kind, i.label, i.payload] for i in instances], sort_keys=True)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


def end_to_end(loop: Loop, instances, setup_s: float, kinds) -> dict:
    flat = sorted(t for ts in loop.times for t in ts)
    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": ((loop.attempted - loop.failed) / loop.timed_s, "1/s"),
        "latency_p50_ms": (statistics.median(flat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(flat, n=10)[8] * 1e3, "ms"),
    }
    for kind in kinds:
        metrics[f"{kind}_s"] = (
            sum(statistics.median(ts) for i, ts in zip(instances, loop.times) if i.kind == kind),
            "s",
        )
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(setup, passes, n_passes: int, n_line_instances: int, internal_errors: int,
              overhead: float) -> dict:
    """Per-layer metrics; pass metrics are per pass of the ladder, generator
    metrics per set-up round."""

    def per_pass(v):
        v = v / n_passes
        return int(v) if float(v).is_integer() else v

    m = {}

    def calls(name, unit="count"):
        m[f"{name}.calls"] = (per_pass(passes.calls(name)), unit)

    def secs(name):
        m[f"{name}.s"] = (passes.seconds(name) / n_passes, "s")

    def self_s(name):
        m[f"{name}.self_s"] = (passes.self_s(name) / n_passes, "s")

    calls("cells.validate_simple"); secs("cells.validate_simple")
    self_s("cells.find_complete_face")
    calls("cells.build_arrangement"); secs("cells.build_arrangement")
    calls("wedges.sweep_balanced_wedge"); self_s("wedges.sweep_balanced_wedge")
    calls("wedges.find_111_wedge"); self_s("wedges.find_111_wedge")
    f111 = passes.calls("wedges.find_111_wedge")
    fallback = passes.calls_under("cells.build_arrangement", "wedges.find_111_wedge")
    m["wedges.find_111_wedge.fallback_ratio"] = (fallback / f111 if f111 else 0.0, "ratio")
    self_s("wedges.halving_segment")
    calls("wedges.brute_oracle_wedges"); secs("wedges.brute_oracle_wedges")
    self_s("arcs.find_k_arcset")
    calls("arcs.moment_halve"); secs("arcs.moment_halve")
    secs("arcs.plan_ops")
    self_s("llines.find_balanced_lline")
    calls("llines.sided_ordering"); secs("llines.sided_ordering")
    secs("llines.brute_oracle_llines")
    secs("oracles.scan_all_complete_faces")
    secs("oracles.enumerate_2arc_sets")
    secs("oracles.count_segment_crossings")
    calls("core.orient"); calls("core.intersect"); calls("core.check_general_position")
    m["serialization.encode.s"] = (
        passes.seconds(*passes.matching("serialization", ("enc_",))) / n_passes, "s")
    m["serialization.decode.s"] = (
        passes.seconds(*passes.matching("serialization", ("dec_",))) / n_passes, "s")
    self_s("cli.run")
    m["svg.render.s"] = (passes.seconds(*passes.matching("svg", ("render_",))) / n_passes, "s")
    m["generators.generate.calls"] = (setup.calls("generators.generate"), "count")
    m["generators.generate.s"] = (setup.seconds("generators.generate"), "s")
    m["generators.lines.instances"] = (n_line_instances, "count")
    tries = setup.calls_under("cells.validate_simple", "generators.generate")
    m["generators.lines.attempts_per_instance"] = (
        tries / n_line_instances if n_line_instances else 0.0, "ratio")
    m["errors.InternalError.count"] = (internal_errors, "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest rung of each kind, one pass, one set-up round")
    p.add_argument("--corrupt", action="store_true",
                   help="count every answer against its input minus one element "
                        "(self-test of the answer checks)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tricut" / "__init__.py").is_file():
        print(f"error: no tricut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = CLOCK()
    import tricut
    import workloads
    import_s = CLOCK() - t0

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    from tricut.errors import InternalError

    errors_at_start = InternalError.count
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(tricut)

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work")
    try:
        rounds = 1 if (args.smoke or tracer) else SETUP_ROUNDS
        gen_times = []
        if tracer:
            tracer.install()
        for _ in range(rounds):
            t0 = CLOCK()
            instances = build(args.seed, smoke=args.smoke, corrupt=args.corrupt, workdir=workdir)
            gen_times.append(CLOCK() - t0)
        setup_s = import_s + statistics.median(gen_times)
        sha = inputs_sha(instances)
        min_samples = 0 if args.smoke else MIN_SAMPLES
        seconds = 0 if args.smoke else args.seconds

        gc.collect()
        gc.freeze()  # set-up objects stay out of the collections the solvers trigger
        if tracer is None:
            loop = run_loop(instances, seconds, min_samples)
            metrics = end_to_end(loop, instances, setup_s, workloads.KINDS)
            attempted, failed, errors = loop.attempted, loop.failed, loop.errors
        else:
            setup = tracer.summary()
            tracer.clear()
            plain_s = 0.0

            def untraced_twin(inst):
                # the same instance untraced, right before its traced run, so
                # the overhead ratio compares equally warm calls
                nonlocal plain_s
                tracer.uninstall()
                t0 = CLOCK()
                try:
                    inst.solve()
                except Exception:  # the traced run that follows records the failure
                    pass
                plain_s += CLOCK() - t0
                tracer.install()

            loop = run_loop(instances, seconds, min_samples, pause=tracer.uninstall,
                            resume=tracer.install, before=untraced_twin)
            tracer.uninstall()
            passes = tracer.summary()
            overhead = loop.timed_s / plain_s
            n_lines = sum(1 for i in instances if i.kind == "cell")
            metrics = per_layer(setup, passes, loop.passes, n_lines,
                                InternalError.count - errors_at_start, overhead)
            attempted, failed, errors = loop.attempted, loop.failed, loop.errors
            (HERE / "out").mkdir(exist_ok=True)
            tracer.dump(HERE / "out" / f"spans-{args.workload}-{args.seed}.json",
                        {"setup": setup, "passes": passes})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    internal = InternalError.count - errors_at_start
    correct = failed == 0 and internal == 0
    for e in errors:
        print(f"failed: {e}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha": sha,
        "instances_per_pass": len(instances),
        "passes": loop.passes,
        "samples": loop.attempted,
        "timed_cpu_s": loop.timed_s,
        "loop_wall_s": loop.wall_s,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
    }
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(f"# failed_frac = {failed / attempted} (of {attempted} attempted)")
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
