#!/usr/bin/env python3
"""End-to-end benchmark of the SPFail reproduction.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (the program's
library from src/ plus the measuring binary) into $CARGO_TARGET_DIR
(default .bench_build), refuses Debug and sanitizer builds, then runs the
measuring binary, which first runs the workload once at one thread,
untimed, for the reference output digest, and then measures for S seconds.

Every repetition's output digest must equal the reference, and for the
default seed also the digest recorded in perfbench/digests.json; the
deterministic counts must repeat exactly. A repetition that fails any of
these counts as failed, and the run reports correct = false and exits 1.

With --trace 0 the result holds every end-to-end metric of BENCHMARK.json;
with --trace 1 every per-layer metric, the per-layer self-time table, the
tracing overhead, and the path of the span file. The last stdout line is
the JSON result; the lines before it are the human-readable report.
`--workload all` runs the four workloads in turn.

Metric notes:
  - error_rate is the result's failed / attempted. It is not in "metrics"
    because it reads 0 on every correct run.
  - A batch repetition is one job run: its turnaround is setup_s + run_s.
    On svc_mix, job runs and turnaround come from the service's live event
    stream (queued -> done), and probes sum the job reports' probe attempts.
  - peak_rss_mib is the median of each repetition's own peak: the heap is
    trimmed and the kernel's high-water mark reset between repetitions.
  - svc_mix's jobs run at one thread. Its setup_s is the Fleet constructor
    for each submitted job's population plus the ServiceLoop constructor,
    before ServiceLoop::run. The service builds those fleets again inside
    the run, so that fleet synthesis counts in run_s too.
  - longitudinal.observations is the conclusive observations over the
    rounds, summed from the report's per-round counts.
  - scan.campaign_s is Campaign::run on initial_full and Study::begin (the
    initial campaign plus the study's derivations) on the study workloads.
  - A per-layer metric of a layer the workload never calls (see CALLS)
    reads 0; one of a layer it calls that has no sample fails the run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("study", "study_ckpt", "initial_full", "svc_mix")
DEFAULT_SEED = 2021
BUILD_TYPE = "RelWithDebInfo"

# Counts that are a pure function of the seed: they must repeat exactly.
# The spf.record_cache_* counters are not among them: racing inserts make
# them schedule-dependent (three identical runs gave 526/532/552 hits).
DETERMINISTIC = (
    "population.addresses",
    "scan.probe_attempts",
    "longitudinal.observations",
    "dns.query_log_entries",
    "snapshot.bytes_written",
    "snapshot.checkpoints",
    "svc.ticks",
)

# Per-layer readings taken from untraced repetitions only: the round timings
# must not include the traced run's runner.
UNTRACED_LAYERS = ("longitudinal.round_p50_ms", "longitudinal.round_p90_ms")

# The per-layer metrics (by name prefix) each workload must produce. The
# benchmark cannot see inside the service's jobs, so svc_mix produces only
# its set-up fleets, the job reports' probe attempts and the service layer.
_BATCH = ("population.", "scan.", "dns.", "spf.", "report.", "util.",
          "trace.")
CALLS = {
    "study": _BATCH + ("longitudinal.",),
    "study_ckpt": _BATCH + ("longitudinal.", "snapshot."),
    "initial_full": _BATCH,
    "svc_mix": ("population.", "scan.probe_attempts", "svc.", "trace."),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def configure(build_root):
    """Configure once; return (build dir, CMake cache entries)."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no program sources (src/) in " + ROOT)
    build_dir = os.path.join(build_root, "perfbench")
    cache_path = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache_path):
        run_step(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    cache = {}
    with open(cache_path) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return build_dir, cache


def run_step(step):
    done = subprocess.run(step, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        log(done.stdout[-4000:])
        fail("build failed: " + " ".join(step), 1)


def build_stamp(cache):
    """Build type, compiler and sanitizer flags; refuse untimeable builds."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join([cache.get("CMAKE_CXX_FLAGS", ""),
                      cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
                      cache.get("CMAKE_EXE_LINKER_FLAGS", "")])
    sanitizers = sorted({f for f in flags.split() if f.startswith("-fsanitize")})
    if build_type in ("", "Debug") or "-O0" in flags.split():
        fail("refusing to time a %s build" % (build_type or "unoptimised"), 3)
    if sanitizers:
        fail("refusing to time a sanitizer build (%s)" % " ".join(sanitizers), 3)
    return {"build_type": build_type,
            "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
            "sanitizer_flags": " ".join(sanitizers) or "none"}


def run_binary(binary, args, work):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPFAIL_")}
    cmd = [binary] + args + ["--work", work]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("measuring binary failed (exit %d): %s" % (done.returncode,
                                                        " ".join(cmd)), 1)
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def check(reps, reference, recorded):
    """Mark each failed repetition; return the list of failure reasons."""
    problems = []
    first_counts = {}
    for i, rep in enumerate(reps):
        why = []
        if rep["error"]:
            why.append(rep["error"].strip())
        if rep["digest"] != reference:
            why.append("digest %s != one-thread reference %s"
                       % (rep["digest"], reference))
        if recorded is not None and rep["digest"] != recorded:
            why.append("digest %s != recorded default-seed digest %s"
                       % (rep["digest"], recorded))
        for name in DETERMINISTIC:
            if name not in rep["counts"]:
                continue
            value = rep["counts"][name]
            if first_counts.setdefault(name, value) != value:
                why.append("%s drifted: %s != %s"
                           % (name, value, first_counts[name]))
        rep["failed"] = bool(why)
        problems += ["rep %d (%s): %s" % (i, "traced" if rep["traced"]
                                          else "untraced", w) for w in why]
    return problems


def end_to_end_samples(reps):
    """Per-metric samples for the end-to-end metrics.

    A batch repetition is one job run: its turnaround is set-up plus run,
    and its job_runs_per_s is 1 / run_s. A svc_mix repetition drives many
    SMTP dialogs too: probes_per_s sums the job reports' probe attempts.
    """
    good = [r for r in reps if not r["failed"]] or reps
    return {
        "run_s": [r["run_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "probes_per_s": [r["probes"] / max(r["run_s"], 1e-9) for r in good],
        "job_runs_per_s": [r["job_runs"] / max(r["run_s"], 1e-9) for r in good],
        "job_turnaround_p50_s": [t for r in good for t in r["turnaround_s"]]
                                or [0.0],
        "peak_rss_mib": [r["peak_rss_kib"] / 1024.0 for r in good],
    }


def per_layer_samples(workload, names, reps, problems):
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    samples = {}
    for name in names:
        if name == "trace.overhead_s":
            continue
        pool = untraced if name in UNTRACED_LAYERS else traced
        values = [r["layers"].get(name, r["counts"].get(name)) for r in pool]
        values = [v for v in values if v is not None]
        if not values and name.startswith(CALLS[workload]):
            problems.append("%s has no samples on %s" % (name, workload))
        samples[name] = values or [0.0]
    # Includes what attaching the runner changes: a serial campaign dedupe
    # and no study-owned pool. Repetition 0 is left out: it is always
    # untraced and the first at the timed thread count, and often the
    # slowest of its run.
    warm = untraced[1:] or untraced
    samples["trace.overhead_s"] = [
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in warm)] if traced else [0.0]
    return samples


def self_time_table(reps):
    """Median total and self seconds per span name, then per layer (module).

    Slice spans run in parallel, so their seconds are thread-seconds."""
    traced = [r for r in reps if r["traced"]]
    if not traced:
        return []
    names = sorted({n for r in traced for n in r["self_s"]})
    lines = ["%-30s %10s %10s" % ("span (median, %d traced reps)" % len(traced),
                                  "total_s", "self_s")]
    layers = {}
    for name in names:
        self_s = statistics.median(r["self_s"].get(name, 0.0) for r in traced)
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0) + self_s
        lines.append("%-30s %10.4f %10.4f" % (
            name,
            statistics.median(r["total_s"].get(name, 0.0) for r in traced),
            self_s))
    lines.append("self time per layer: " + "  ".join(
        "%s=%.4f" % kv for kv in sorted(layers.items())))
    return lines


def run_workload(workload, args, spec, binary, build_root, stamp):
    """Measure one workload and print its report; return its result."""
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded_digests = json.load(f)
    recorded = (recorded_digests.get(workload)
                if args.seed == DEFAULT_SEED else None)
    # The service runs its jobs' rounds one after another, and rounds this
    # small gain nothing from a pool: at four threads svc_mix's wall time
    # hung on how many CPUs the host granted at the moment.
    threads = 1 if workload == "svc_mix" else min(4, nproc())
    result = run_binary(binary, [
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--threads", str(threads)],
        os.path.join(build_root, "perfbench-work", workload))
    stamp = dict(stamp, nproc=result["nproc"], threads=result["threads"],
                 compiler_version=result["compiler"],
                 sanitizer=result["sanitizer"])

    reps = result["reps"]
    reference = result["reference_digest"]
    problems = check(reps, reference, recorded)
    if result["reference_error"]:
        problems.insert(0, "one-thread reference run failed: "
                        + result["reference_error"])
    failed = sum(1 for r in reps if r["failed"])
    if args.trace:
        specs = spec["per_layer"]
        samples = per_layer_samples(workload, [m["name"] for m in specs],
                                    reps, problems)
    else:
        specs = spec["end_to_end"]
        samples = end_to_end_samples(reps)

    print("perfbench %s seed=%d trace=%d: %s" % (
        workload, args.seed, args.trace,
        " ".join("%s=%s" % kv for kv in sorted(stamp.items()))))
    print("output digest %s (one-thread reference %s%s)" % (
        reps[0]["digest"], reference,
        ", recorded " + recorded if recorded else ""))
    print("error_rate = %g (%d failed of %d repetitions)" % (
        failed / len(reps), failed, len(reps)))
    for problem in problems:
        print("FAIL " + problem)
    print("%-34s %6s %4s %14s %14s %14s" % ("metric", "unit", "n", "median",
                                             "q1", "q3"))
    metrics = {}
    for m in specs:
        values = samples[m["name"]]
        q1, q3 = quartiles(values)
        value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-34s %6s %4d %14.6g %14.6g %14.6g" % (
            m["name"], m["unit"], len(values), value, q1, q3))
    if args.trace:
        print("\n".join(self_time_table(reps)))
        if metrics["spf.record_cache_saturated"]["value"] > 0:
            print("note: spf.record_cache is full (%d slots): later lookups "
                  "fall back uncounted, so hits/misses/hit_ratio are partial"
                  % metrics["spf.record_cache_size"]["value"])
        if 0 < metrics["trace.coverage"]["value"] < 0.95:
            print("note: top-level spans cover only %.1f%% of traced run_s"
                  % (100 * metrics["trace.coverage"]["value"]))
        print("tracing overhead (traced - untraced run_s): %.4f s"
              % metrics["trace.overhead_s"]["value"])
        print("spans: " + os.path.relpath(result["spans_path"], ROOT))

    os.makedirs(os.path.join(build_root, "perfbench-results"), exist_ok=True)
    with open(os.path.join(build_root, "perfbench-results", "%s-%d-trace%d.json"
                           % (workload, args.seed, args.trace)), "w") as f:
        json.dump({"stamp": stamp, "metrics": metrics, "samples": samples,
                   "problems": problems}, f, indent=1)
    return not problems, len(reps), failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    build_dir, cache = configure(build_root)
    stamp = build_stamp(cache)
    run_step(["cmake", "--build", build_dir, "-j", str(nproc())])
    binary = os.path.join(build_dir, "perfbench")

    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            args.workload, args, spec, binary, build_root, stamp)
    else:
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in WORKLOADS:
            ok, n, bad, ms = run_workload(workload, args, spec, binary,
                                          build_root, stamp)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            metrics.update({workload + "/" + k: v for k, v in ms.items()})
            print()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
