#!/usr/bin/env python3
"""End-to-end benchmark runner for chordsim (stdlib only; see README.md).

One run of one workload (the form BENCHMARK.json's command takes):
  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1
prints every metric with its unit, then one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The suite (every workload, round-robin, one fresh process per run):
  python3 bench/e2e/run.py [--reps 5] [--seeds 1] [--trace] [--out FILE]

Comparing two commits:
  python3 bench/e2e/run.py compare BASE.json CHANGE.json
  python3 bench/e2e/run.py ab --base BIN --change BIN [--pairs 10]

Rewriting the recorded behaviour digests (a benchmark change, never part of
a change that claims a gain):
  python3 bench/e2e/run.py record

Run from anywhere inside a chordsim checkout. The benchmark binary is built first, into
.bench_build/e2e at the checkout root, and results go under that directory.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e_suite"
EXPECTED = HERE / "expected.json"

# Absolute floors: a metric regresses only when it worsens by more than its
# relative bound AND by more than this amount.
FLOORS = {"setup_s": 0.05}
# Per-layer metrics run.py derives from the binary's Chrome trace.
ROUND_METRICS = {"round.p50_us", "round.p99_us", "round.samples"}
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics -------------------------------------------------------------

def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First and third quartile, as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def nearest_rank(xs, q):
    """Nearest-rank q-th percentile: the smallest sample with at least q% of
    the samples at or below it."""
    s = sorted(xs)
    k = max(1, min(len(s), -(-len(s) * q // 100)))
    return s[int(k) - 1]


def spread(xs):
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(xs)
    m = median(xs)
    return (q3 - q1) / m if m else 0.0


def summarize(xs):
    q1, q3 = quartiles(xs)
    return {"median": median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def regressed(base, change, better, bound, floor=0.0):
    """True when change's median is worse than base's by more than the
    relative bound and by more than the absolute floor."""
    mb, mc = median(base), median(change)
    worse = mc - mb if better == "lower" else mb - mc
    return worse > bound * abs(mb) and worse > floor


def verdict(base, change, better, bound, floor=0.0, pairs=None):
    """Compare one (workload, metric) row of a base and a change.

    pairs: (base, change) values measured back to back; defaults to
    zip(base, change). Returns one of "gain", "regression", "unresolved",
    "same". A gain needs at least ten pairs, the change winning at least 9/10
    of them (ties count for neither side), and the medians differing by more
    than the base's interquartile range. When either side's spread is wider than the
    bound the row is unresolved, unless every change run beats (or loses to)
    every base run.
    """
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, change)) if pairs is None else pairs
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if max(spread(base), spread(change)) > bound:
        if all(sign * (c - b) > 0 for b in base for c in change):
            pass  # every change run better: still decidable
        elif all(sign * (c - b) < 0 for b in base for c in change):
            return ("regression"
                    if regressed(base, change, better, bound, floor)
                    else "unresolved")
        else:
            return "unresolved"
    if regressed(base, change, better, bound, floor):
        return "regression"
    q1, q3 = quartiles(base)
    moved = sign * (median(change) - median(base))
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and moved > q3 - q1:
        return "gain"
    return "same"


# --- benchmark spec and expected digests ------------------------------------

def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def load_expected():
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text())["digests"]


def digest_status(expected, workload, seed, digest):
    want = expected.get(workload, {}).get(str(seed))
    if want is None:
        return "unrecorded"
    return "match" if want == digest else f"MISMATCH (expected {want})"


# --- build and run the benchmark binary -------------------------------------

def ensure_built():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"{ROOT} is not a chordsim source tree "
                         "(src/ and CMakeLists.txt are missing)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "bench_e2e_suite", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
        if r.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return BINARY


def run_binary(binary, workload, seed, seconds, trace_dir=None):
    """One fresh bench_e2e_suite process; returns its parsed JSON report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: bench_e2e_suite timed out")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: bench_e2e_suite exited with "
                         f"{r.returncode}")
    rep = json.loads(lines[-1])
    if rep["build_type"] != "release":
        raise BenchError(f"{binary} was built without NDEBUG; rebuild it "
                         "with -DCMAKE_BUILD_TYPE=Release")
    if trace_dir is not None:
        rep["layers"].update(round_metrics(trace_dir / f"{workload}.trace.json"))
    return rep


def round_metrics(trace_path):
    """Per-round wall time from bench_e2e_suite's Chrome trace: median and
    nearest-rank p99 of the "round" spans, with the sample count. The trace
    holds one event per line, so it is streamed, not loaded."""
    us = []
    with open(trace_path) as f:
        for line in f:
            if line.startswith('{"name":"round",'):
                us.append(json.loads(line.rstrip().rstrip(","))["dur"])
    if not us:
        return {"round.p50_us": 0.0, "round.p99_us": 0.0, "round.samples": 0}
    return {"round.p50_us": median(us), "round.p99_us": nearest_rank(us, 99),
            "round.samples": len(us)}


def check_metrics(values, specs, what):
    want = {m["name"] for m in specs}
    if set(values) != want:
        raise BenchError(f"bench_e2e_suite {what} metrics differ from BENCHMARK.json: "
                         f"missing {sorted(want - set(values))}, "
                         f"extra {sorted(set(values) - want)}")


# --- one run (the BENCHMARK.json command) -----------------------------------

def single(args, spec):
    binary = ensure_built()
    trace_dir = BUILD / "trace" if args.trace else None
    rep = run_binary(binary, args.workload, args.seed, args.seconds, trace_dir)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = rep["layers"] if args.trace else rep["e2e"]
    check_metrics(values, specs, "per-layer" if args.trace else "end-to-end")
    status = digest_status(load_expected(), args.workload, args.seed,
                           rep["digest"])
    errors = list(rep["errors"])
    if status.startswith("MISMATCH"):
        errors.append(f"digest {rep['digest']}: {status}")
    print(f"{args.workload} seed={args.seed}: {rep['episodes']} episodes "
          f"over {rep['inputs']} inputs, "
          f"{rep['work']} work units in {rep['run_s']:.3f} s, "
          f"host slowdown {rep['slowdown']:.3f}, "
          f"digest {rep['digest']} ({status})")
    for e in errors:
        print(f"  ERROR {e}")
    metrics = {}
    for m in specs:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:32s} {v:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 1 if errors else 0


# --- the suite --------------------------------------------------------------

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def load_warning(stage):
    load = os.getloadavg()
    nproc = os.cpu_count() or 1
    if load[0] > nproc / 2:
        log(f"WARNING: load average {load[0]:.2f} > nproc/2 = {nproc / 2:g} "
            f"{stage}; timings will be noisy")
    return list(load)


def run_series(binary, workloads, seeds, reps, seconds, expected, side=""):
    """reps x seeds x workloads, round-robin over workloads."""
    runs = []
    for rep in range(reps):
        for seed in seeds:
            for w in workloads:
                r = run_binary(binary, w, seed, seconds)
                status = digest_status(expected, w, seed, r["digest"])
                runs.append({"workload": w, "seed": seed, "rep": rep,
                             "e2e": r["e2e"], "attempted": r["attempted"],
                             "failed": r["failed"], "correct": r["correct"],
                             "errors": r["errors"], "digest": r["digest"],
                             "digest_status": status,
                             "episodes": r["episodes"],
                             "episode_rate": r["episode_rate"],
                             "slowdown": r["slowdown"],
                             "raw_e2e": r["raw_e2e"],
                             "compiler": r["compiler"]})
                log(f"{side}{w} seed={seed} rep={rep}: "
                    + " ".join(f"{k}={v:.6g}" for k, v in r["e2e"].items())
                    + f" digest {r['digest']} ({status})")
    return runs


def summary_of(runs, spec):
    out = {}
    for w in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == w]
        out[w] = {m["name"]: dict(summarize([r["e2e"][m["name"]]
                                             for r in mine]),
                                  unit=m["unit"])
                  for m in spec["end_to_end"]}
        att = sum(r["attempted"] for r in mine)
        out[w]["fail_frac"] = sum(r["failed"] for r in mine) / att
    return out


def print_summary(summary, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':16s} {'metric':14s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s} {'spread':>7s} {'bound':>6s} unit")
    for w, rows in summary.items():
        for name, s in rows.items():
            if name == "fail_frac":
                continue
            sp = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print(f"{w:16s} {name:14s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['n']:3d} {sp:7.4f} "
                  f"{bounds[name]:6.2f} {s['unit']}")
        print(f"{w:16s} {'fail_frac':14s} {rows['fail_frac']:12.6g}")


def suite(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    binary = ensure_built()
    expected = load_expected()
    env = {"nproc": os.cpu_count(), "loadavg_before": load_warning("before"),
           "commit": git_commit(), "seeds": seeds, "reps": args.reps,
           "seconds": args.seconds, "binary": str(binary)}
    runs = run_series(binary, workloads, seeds, args.reps, args.seconds,
                      expected)
    result = {"env": env, "runs": runs}
    traces = {}
    if args.trace:
        trace_dir = BUILD / "trace"
        for w in workloads:
            traces[w] = run_binary(binary, w, seeds[0], args.seconds,
                                   trace_dir)["layers"]
        result["trace"] = traces
        result["trace_dir"] = str(trace_dir)
    env["loadavg_after"] = load_warning("after")
    env["compiler"] = runs[0]["compiler"] if runs else "unknown"
    result["summary"] = summary_of(runs, spec)

    out = Path(args.out) if args.out else BUILD / "results" / (
        "e2e-" + datetime.datetime.now().strftime("%Y%m%dT%H%M%S") + ".json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")

    print_summary(result["summary"], spec)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w, layers in traces.items():
        print(f"\n{w} (traced, seed {seeds[0]})")
        for name in units:
            print(f"  {name:32s} {layers[name]:.6g} {units[name]}")
    print(f"\nresults: {out}")

    bad = [r for r in runs if r["digest_status"].startswith("MISMATCH")
           or not r["correct"]]
    for r in bad:
        print(f"FAILED {r['workload']} seed={r['seed']} rep={r['rep']}: "
              f"digest {r['digest_status']}; {r['errors']}")
    return 1 if bad else 0


# --- compare / ab / record --------------------------------------------------

def compare_results(base, change, spec):
    """Print one verdict row per (workload, metric); returns the number of
    regressions plus fail_frac increases."""
    bad = 0
    print(f"{'workload':16s} {'metric':14s} {'base':>12s} {'change':>12s} "
          f"{'delta':>8s} {'wins':>6s} verdict")
    for w in sorted({r["workload"] for r in base["runs"]}):
        b_runs = [r for r in base["runs"] if r["workload"] == w]
        c_runs = [r for r in change["runs"] if r["workload"] == w]
        if not c_runs:
            continue
        key = lambda r: (r["seed"], r["rep"])  # noqa: E731
        c_by = {key(r): r for r in c_runs}
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["e2e"][name] for r in b_runs]
            c = [r["e2e"][name] for r in c_runs]
            pairs = [(r["e2e"][name], c_by[key(r)]["e2e"][name])
                     for r in b_runs if key(r) in c_by]
            v = verdict(b, c, m["better"], m["bound"], FLOORS.get(name, 0.0),
                        pairs)
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            delta = (median(c) - median(b)) / median(b) if median(b) else 0.0
            bad += v == "regression"
            print(f"{w:16s} {name:14s} {median(b):12.6g} {median(c):12.6g} "
                  f"{delta:+8.2%} {wins:>3d}/{len(pairs):<2d} {v}")
        fb = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        fc = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        if fc > fb:
            bad += 1
            print(f"{w:16s} {'fail_frac':14s} {fb:12.6g} {fc:12.6g} "
                  f"{'':8s} {'':6s} INCREASED")
    return bad


def compare(args, spec):
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    if base["env"]["seconds"] != change["env"]["seconds"]:
        raise BenchError(f"runs of {base['env']['seconds']} s and "
                         f"{change['env']['seconds']} s are not comparable")
    return 1 if compare_results(base, change, spec) else 0


def ab(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    expected = load_expected()
    bins = {"base": Path(args.base), "change": Path(args.change)}
    runs = {"base": [], "change": []}
    seconds = spec["run_seconds"]
    env = {"nproc": os.cpu_count(), "loadavg_before": load_warning("before"),
           "commit": git_commit(), "pairs": args.pairs, "seconds": seconds}
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            r = run_series(bins[side], workloads, [1 + i], 1, seconds,
                           expected, side=f"[{side}] ")
            for x in r:
                x["rep"] = 0
            runs[side] += r
    env["loadavg_after"] = load_warning("after")
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    results = {}
    for side in runs:
        results[side] = {"env": dict(env, binary=str(bins[side])),
                         "runs": runs[side],
                         "summary": summary_of(runs[side], spec)}
        out = BUILD / "results" / f"ab-{stamp}-{side}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results[side], indent=1) + "\n")
        print(f"{side}: {out}")
    return 1 if compare_results(results["base"], results["change"], spec) \
        else 0


def record(args, spec):
    binary = ensure_built()
    digests = {}
    for w in spec["workloads"]:
        digests[w["name"]] = {}
        for seed in (1, 2, 3):
            r = run_binary(binary, w["name"], seed, 1)
            if not r["correct"]:
                raise BenchError(f"{w['name']} seed {seed}: {r['errors']}")
            digests[w["name"]][str(seed)] = r["digest"]
            log(f"{w['name']} seed={seed}: {r['digest']}")
    EXPECTED.write_text(json.dumps({
        "about": "FNV-1a behaviour digest of episode 0, per workload and "
                 "seed. Rewrite only in a change to the benchmark itself "
                 "(run.py record).",
        "digests": digests}, indent=1) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv):
    spec = load_spec()
    seconds = spec["run_seconds"]
    if argv and argv[0] in ("compare", "ab", "record"):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "compare":
            p.add_argument("base")
            p.add_argument("change")
        elif argv[0] == "ab":
            p.add_argument("--base", required=True, help="bench_e2e_suite built from the base")
            p.add_argument("--change", required=True,
                           help="bench_e2e_suite built from the change")
            p.add_argument("--pairs", type=int, default=10,
                           help="pair i runs seed 1+i on both sides")
        args = p.parse_args(argv[1:])
        return {"compare": compare, "ab": ab, "record": record}[argv[0]](
            args, spec)

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", help="run one workload once")
    p.add_argument("--seed", type=int, default=1, help="seed of one run")
    p.add_argument("--seconds", type=int, default=seconds)
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   help="0 or 1 (bare --trace means 1)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seeds", default="1", help="suite seeds, e.g. 1-10 or 1,3")
    p.add_argument("--out", help="suite: results file")
    args = p.parse_args(argv)
    if args.workload:
        return single(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(1)
