#!/usr/bin/env python3
"""Benchmark suite for the BGP convergence simulator.

    python3 benchsuite/run.py --workload paper-sweep [--seed 1] [--seconds 20] [--trace 0|1]
                              [--out results.jsonl]

Run from the root of a source checkout.  It builds benchsuite/bgpbench.exe
with dune, then starts one fresh bgpbench process per pass (see
bgpbench.ml), one OCaml domain each, one at a time:

  --trace 0   set-up passes, then timed rounds for about --seconds seconds;
              prints the end-to-end metrics (setup_s, updates_per_s,
              peak_heap_mb).
  --trace 1   one timed round and one traced round of the same inputs;
              prints the per-layer table.

The last line of stdout is the result object {correct, attempted, failed,
metrics}.  The line before it is the run record (machine, OCaml version,
commit, seed, domains); --out appends the record, with the raw per-round
figures, to a JSON-lines file that compare.py reads.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUITE = os.path.basename(HERE)
EXE = os.path.join(ROOT, "_build", "default", SUITE, "bgpbench.exe")
STATE = os.path.join(ROOT, ".bgpbench")

# Set-up passes per run; a pass sets up every trial of the first
# `setup_rounds` rounds.  Figure 1's grid already sets up each of its three
# warm-ups four times in one pass.  A churn or chaos round is one trial
# with a short set-up (about 0.3 s and 0.07 s), so a pass sets up four.
# Chaos round 0 is the replayed trial: the traced pass measures it, and the
# timed rounds start at round 1 so that every round does the same kind of
# work.
# `gc_slack` is how far a round's GC counts may stray between processes:
# a share of the minor and promoted words, and a number of major
# collections.  The counts of paper-schemes and churn-storm rounds repeat
# exactly.  The 12-trial Figure 1 process strays by up to 0.02% and two
# collections, and a chaos round now and then by one or two words (about
# 1 in 100 rounds), for reasons not yet found.
WORKLOADS = {
    "paper-sweep": {"setup_passes": 1, "setup_rounds": 1, "first_round": 0, "gc_slack": (1e-3, 3)},
    "paper-schemes": {"setup_passes": 3, "setup_rounds": 1, "first_round": 0, "gc_slack": (0, 0)},
    "churn-storm": {"setup_passes": 3, "setup_rounds": 4, "first_round": 0, "gc_slack": (0, 0)},
    "chaos-campaign": {"setup_passes": 3, "setup_rounds": 4, "first_round": 1, "gc_slack": (1e-6, 0)},
}

# Stop starting new rounds past this many seconds, whatever --seconds says,
# so a run on a slow machine still ends well inside its time limit.
HARD_STOP_S = 120.0


def fail(msg, code):
    print("error: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no simulator sources next to %s (run from a full checkout)" % SUITE, 2)
    if shutil.which("dune") is None:
        fail("dune not found on PATH", 2)
    p = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./%s/bgpbench.exe" % SUITE],
        cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed", 3)


def child_env(workdir):
    env = dict(os.environ)
    env.pop("OCAMLRUNPARAM", None)  # default GC settings: counts repeat exactly
    env["BGPBENCH_WORKDIR"] = workdir
    return env


def run_pass(mode, workload, seed, rnd, workdir):
    # Chaos sidecars of one pass live in their own directory.
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    p = subprocess.run([EXE, mode, workload, str(seed), str(rnd)], cwd=ROOT,
                       capture_output=True, text=True, env=child_env(workdir))
    shutil.rmtree(workdir, ignore_errors=True)
    if p.stderr:
        sys.stderr.write(p.stderr)
    if p.returncode != 0:
        fail("bgpbench %s %s exited with %d" % (mode, workload, p.returncode), 4)
    return json.loads(p.stdout.strip().splitlines()[-1])


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    except OSError:
        pass
    return os.environ.get("BGPBENCH_COMMIT", "unknown")


# --- Cross-run checks ----------------------------------------------------------

def exact_figures(out):
    """The counts a fresh process must repeat exactly for the same inputs."""
    g = out["gc"]
    return {"sim": out["sim"],
            "gc": {k: g[k] for k in ("minor_words", "promoted_words", "major_collections")}}


def exe_digest():
    with open(EXE, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def same_figures(a, b, slack):
    """`sim` must repeat exactly, the GC counts within the workload's slack."""
    (share, majors), ga, gb = slack, a["gc"], b["gc"]
    return (a["sim"] == b["sim"]
            and all(abs(ga[k] - gb[k]) <= share * max(ga[k], gb[k]) for k in ("minor_words", "promoted_words"))
            and abs(ga["major_collections"] - gb["major_collections"]) <= majors)


def check_repeat(key, figures, slack, problems):
    """Compare with the figures an earlier run of the same executable in
    this checkout recorded for the same workload, seed and round; record
    them if new."""
    key = "%s/%s" % (exe_digest(), key)
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, "exact.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    if key in seen and not same_figures(seen[key], figures, slack):
        problems.append("%s: sim/gc figures differ from an earlier run: %s vs %s"
                        % (key, json.dumps(seen[key]), json.dumps(figures)))
    elif key not in seen:
        seen[key] = figures
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(seen, f, sort_keys=True)
        os.replace(tmp, path)


# --- Metrics -------------------------------------------------------------------

def setup_seconds(passes):
    """Sum over a pass's trials of the median set-up time of the trial's
    key (trials with one key do identical set-up work)."""
    samples, per_pass = {}, {}
    for p in passes:
        for s in p["samples"]:
            samples.setdefault(s["key"], []).append(s["s"])
    for s in passes[0]["samples"]:
        per_pass[s["key"]] = per_pass.get(s["key"], 0) + 1
    return sum(n * statistics.median(samples[k]) for k, n in per_pass.items())


def end_to_end(args, workdir, problems):
    spec = WORKLOADS[args.workload]
    t_start = time.monotonic()
    first = spec["first_round"]
    setups = [{"samples": [s for rnd in range(first, first + spec["setup_rounds"])
                           for s in run_pass("setup", args.workload, args.seed, rnd, workdir)["samples"]]}
              for _ in range(spec["setup_passes"])]
    for p in setups:
        for s in p["samples"]:
            if not s["converged"]:
                problems.append("set-up twin %s did not converge" % s["key"])
    rounds = []
    t_timed = time.monotonic()
    while True:
        rnd = first + len(rounds)
        rounds.append(run_pass("timed", args.workload, args.seed, rnd, workdir))
        check_repeat("%s/%d/%d" % (args.workload, args.seed, rnd), exact_figures(rounds[-1]),
                     spec["gc_slack"], problems)
        now = time.monotonic()
        per_round = (now - t_timed) / len(rounds)
        if now - t_timed + per_round > args.seconds or now - t_start > HARD_STOP_S:
            break
    # Updates over the seconds of all rounds together: a round lasts 1-20 s
    # and the host's speed varies within seconds, so the longer the span a
    # single figure averages over, the steadier it is.
    rate = sum(r["sim"]["updates"] for r in rounds) / sum(r["run_s"] for r in rounds)
    heaps = [r["gc"]["top_heap_words"] * 8 / 1e6 for r in rounds]
    metrics = {
        "setup_s": {"value": setup_seconds(setups), "unit": "s"},
        "updates_per_s": {"value": rate, "unit": "1/s"},
        "peak_heap_mb": {"value": statistics.median(heaps), "unit": "MB"},
    }
    return rounds, metrics, {"setup_passes": setups, "rounds": rounds}


def per_layer(args, workdir, problems):
    timed = run_pass("timed", args.workload, args.seed, 0, workdir)
    check_repeat("%s/%d/0" % (args.workload, args.seed), exact_figures(timed),
                 WORKLOADS[args.workload]["gc_slack"], problems)
    traced = run_pass("traced", args.workload, args.seed, 0, workdir)
    if traced["sim"] != timed["sim"]:
        problems.append("traced pass simulated differently: %s vs %s"
                        % (json.dumps(traced["sim"]), json.dumps(timed["sim"])))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    lay, sim, gc = traced["layers"], timed["sim"], timed["gc"]
    upd = sim["updates"]
    hits, misses = lay.get("path.hits", 0), lay.get("path.misses", 0)
    v = {k: lay.get(k, 0.0) for k in units}
    v.update({
        "scheduler.events_per_update": lay["scheduler.events"] / upd,
        "input_queue.eliminated_ratio": lay["input_queue.eliminated"] / (upd + lay["input_queue.eliminated"]),
        "path.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "gc.minor_words_per_update": gc["minor_words"] / upd,
        "gc.promoted_words_per_update": gc["promoted_words"] / upd,
        "gc.major_collections": gc["major_collections"],
        "sim.updates": upd,
        "sim.convergence_delay_s": sim["convergence_delay_s"],
        "sim.unconverged": sim["unconverged"],
        "bench.traced_overhead": lay["bench.pass_s"] / timed["run_s"],
    })
    metrics = {k: {"value": v[k], "unit": u} for k, u in units.items()}
    return [timed], metrics, {"timed": timed, "traced": traced}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1; seed 2 is held out for checking claims)")
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the timed rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the run record to this JSON-lines file")
    args = ap.parse_args()

    build()
    # A fixed-width name: the chaos sidecar paths, and so the allocations,
    # have the same length in every run.
    workdir = os.path.join(STATE, "work-%010d" % os.getpid())
    problems = []
    if args.trace:
        rounds, metrics, raw = per_layer(args, workdir, problems)
    else:
        rounds, metrics, raw = end_to_end(args, workdir, problems)
    attempted = sum(r["trials"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    domains = max(r["domains"] for r in rounds)
    if domains != 1:
        problems.append("a timed pass used %d domains" % domains)
    for p in problems:
        print("check failed: " + p, file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cores": os.cpu_count(), "ocaml": rounds[0]["ocaml"],
        "domains": domains, "commit": commit(), "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics,
    }
    for name, m in metrics.items():
        print("%-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print("%s: %d/%d trials failed, %d cores, OCaml %s, %d domain(s), commit %s, seed %d"
          % (args.workload, failed, attempted, record["cores"], record["ocaml"],
             domains, record["commit"], args.seed))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(dict(record, raw=raw), sort_keys=True) + "\n")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
