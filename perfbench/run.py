"""End-to-end and per-layer benchmark for `edgevitals run`.

    python3 perfbench/run.py --workload holter|fleet|backlog --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from `src/`
there and exits with code 2 if that is missing. Inputs are generated from
the seed (see workloads.py) and cached under `.perfbench_work/`, outside
the timed region.

The load is a closed loop from this one process: a round replays the
workload's invocations in order, each starting when the previous one has
exited, against a fresh copy of the inputs. Rounds repeat while the
next one, judged by the last, still fits in S seconds of measured time;
there is always at least one. The only parallelism is the CLI's own
`--jobs`.

--trace 0 spawns each invocation as a fresh `edgevitals run` process and
reports the end-to-end metrics; --trace 1 runs the same invocations in
one process with every layer wrapped in spans (tracer.py, layers.py),
alternating with bare in-process rounds to measure the tracing overhead.
Either way every round's outputs are checked (checks.py). The last line
of stdout is one JSON object; the exit code is 1 if any check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# what the `edgevitals` console script runs
CLI = "import sys; from edgevitals.cli import main; sys.exit(main())"
# set-up: a fresh interpreter imports the CLI and parses the workload's
# config, rules and model through the public loaders
SETUP = ("import sys; import edgevitals.cli; "
         "from edgevitals.config import load_config; "
         "from edgevitals.rules import parse_rules; "
         "from edgevitals.classify.serialize import model_from_json; "
         "load_config(sys.argv[1]); "
         "parse_rules(open(sys.argv[2], encoding='utf-8').read()); "
         "model_from_json(open(sys.argv[3], encoding='utf-8').read())")
SETUP_REPEATS = 3
# a hung invocation is killed so the benchmark still ends in bounded time
KILL_AFTER_S = 150.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("alarm_s", "s")]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def prepare(workload, seed):
    """Builds the workload's inputs once per (workload, seed, generator).
    Only the latest seed of each workload is kept, to bound disk use."""
    with open(workloads.__file__, "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()[:12]
    name = "%s-%d-%s" % (workload, seed, version)
    cache = os.path.join(WORK, name)
    plan_path = os.path.join(cache, "plan.json")
    if not os.path.exists(plan_path):
        for old in os.listdir(WORK) if os.path.isdir(WORK) else ():
            if old.startswith(workload + "-") and old != name:
                shutil.rmtree(os.path.join(WORK, old), ignore_errors=True)
        tmp = "%s.tmp%d" % (cache, os.getpid())
        shutil.rmtree(tmp, ignore_errors=True)
        plan = workloads.build(workload, seed, os.path.join(tmp, "inputs"))
        with open(os.path.join(tmp, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        shutil.rmtree(cache, ignore_errors=True)
        os.replace(tmp, cache)
    with open(plan_path, encoding="utf-8") as fh:
        return cache, json.load(fh)


def reset(cache, plan):
    run = os.path.join(cache, "run")
    shutil.rmtree(run, ignore_errors=True)
    os.makedirs(run)
    if plan.get("store_seed"):
        shutil.copytree(os.path.join(cache, plan["store_seed"]), os.path.join(run, "store"))


def cli_args(cache, inv, jobs):
    args = ["run"] + [os.path.join(cache, "inputs", m) for m in inv["manifests"]]
    args += ["--now", workloads.iso(inv["now_ms"])]
    return args + (["--jobs", str(jobs)] if jobs > 1 else [])


def spawn(cmd, cwd, stdout_path):
    """Runs cmd to completion; returns (exit code, wall s, rusage, epoch start)."""
    with open(stdout_path, "w", encoding="utf-8") as out, \
            open(stdout_path + ".err", "w", encoding="utf-8") as err:
        epoch = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(KILL_AFTER_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, epoch


def measure_setup(cache):
    inputs = os.path.join(cache, "inputs")
    cmd = [sys.executable, "-c", SETUP] + [os.path.join(inputs, f) for f in
                                           ("config.json", "rules.xml", "model.json")]
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = spawn(cmd, cache, os.path.join(cache, "setup.out"))
        if code != 0:
            raise RuntimeError("set-up probe exited %d" % code)
        times.append(wall)
    return statistics.median(times)


def e2e_round(cache, plan):
    """One round of fresh `edgevitals run` processes."""
    reset(cache, plan)
    results, wall, cpu, rss, alarm = [], 0.0, 0.0, 0.0, []
    for i, inv in enumerate(plan["invocations"]):
        stdout_path = os.path.join(cache, "run", "stdout%d.txt" % i)
        cmd = [sys.executable, "-c", CLI] + cli_args(cache, inv, inv["jobs"])
        code, w, usage, epoch = spawn(cmd, cache, stdout_path)
        wall += w
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss / 1024.0)
        for pid, want in inv["expect"].items():
            msg = os.path.join(cache, plan["out_dirs"][i], pid, "message.xml")
            if want["alarm"] and os.path.exists(msg):
                alarm.append(os.stat(msg).st_mtime_ns / 1e9 - epoch)
        with open(stdout_path, encoding="utf-8") as fh:
            results.append((code, fh.read()))
    return results, {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}, alarm


def inproc_round(cache, plan, traced):
    """One round in a single process (inproc.py). `--jobs` is forced to 1
    so that self times partition the wall time of each invocation."""
    reset(cache, plan)
    argvs = os.path.join(cache, "run", "argvs.json")
    out = os.path.join(cache, "run", "inproc.json")
    with open(argvs, "w", encoding="utf-8") as fh:
        json.dump([cli_args(cache, inv, 1) for inv in plan["invocations"]], fh)
    code, _, _, _ = spawn([sys.executable, os.path.join(HERE, "inproc.py"), argvs, out,
                           "1" if traced else "0"], cache, os.path.join(cache, "run", "inproc.out"))
    if code != 0 or not os.path.exists(out):
        return [(None, "")] * len(plan["invocations"]), None
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [(r["exit"], r["stdout"]) for r in doc["runs"]], doc


def more_rounds(walls, seconds):
    """Whether another round fits: measured time so far plus the last
    round's time stays within `seconds`. The first round always runs."""
    return not walls or sum(walls) + walls[-1] <= seconds


class Tally:
    """Patient runs attempted and failed, with the first few reasons."""

    def __init__(self, plan):
        self.per_round = sum(len(inv["expect"]) for inv in plan["invocations"])
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, failures):
        self.attempted += self.per_round
        self.failed += len(failures)
        for (index, pid), why in sorted(failures.items()):
            if len(self.reasons) < 20:
                self.reasons.append("tick %d %s: %s" % (index, pid, "; ".join(why)))


def run_e2e(cache, plan, seconds, tally):
    import checks

    setup_s = measure_setup(cache)
    rounds, alarm = [], []
    while more_rounds([r["wall_s"] for r in rounds], seconds):
        results, metrics, alarm_s = e2e_round(cache, plan)
        tally.add(checks.check_round(plan, cache, results))
        if len(rounds) == 0:
            for path, digest in checks.artifact_digests(cache, plan["out_dirs"]):
                print("sha256 %s %s" % (digest, path))
        rounds.append(metrics)
        alarm.extend(alarm_s)
        print("round %d: %s" % (len(rounds), " ".join(
            "%s=%.4f" % kv for kv in sorted(metrics.items()))))
    out = {k: statistics.median(r[k] for r in rounds) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    out["setup_s"] = setup_s
    out["alarm_s"] = statistics.median(alarm) if alarm else float("nan")
    print("rounds %d, alarm samples %d, set-up probes %d"
          % (len(rounds), len(alarm), SETUP_REPEATS))
    return out


def run_traced(cache, plan, seconds, tally):
    import checks

    traced, bare, walls = [], [], []
    while not traced or not bare or more_rounds(walls, seconds):
        is_traced = len(bare) > len(traced)
        results, doc = inproc_round(cache, plan, is_traced)
        tally.add(checks.check_round(plan, cache, results))
        if doc is None:
            break
        wall = sum(r["wall_s"] for r in doc["runs"])
        walls.append(wall)
        if not is_traced:
            bare.append(wall)
            continue
        if not traced:  # the first traced round speaks for all
            for note in doc["notes"]:
                print("trace: %s" % note)
        spans = doc["spans"]
        metrics = layers.layer_metrics(spans)
        metrics["trace.traced_wall_s"] = wall
        metrics["trace.unaccounted_s"] = wall - sum(layers.self_times(spans))
        metrics["trace.spans"] = len(spans)
        traced.append(metrics)
    if not traced or not bare:
        return {}
    out = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    out["trace.untraced_wall_s"] = statistics.median(bare)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    print("traced rounds %d, untraced rounds %d, patients per traced round %d"
          % (len(traced), len(bare), out["pipeline.patients"]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "edgevitals", "cli.py")):
        print("error: no src/edgevitals under %s; run from the repository root" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cache, plan = prepare(args.workload, args.seed)
    tally = Tally(plan)
    if args.trace:
        metrics = run_traced(cache, plan, args.seconds, tally)
        names = [(m, layers.unit(m)) for m in sorted(metrics)]
    else:
        metrics = run_e2e(cache, plan, args.seconds, tally)
        names = END_TO_END
    for reason in tally.reasons:
        print("FAILED %s" % reason)
    for name, unit in names:
        print("%-36s %16.6f %s" % (name, metrics[name], unit))
    ratio = tally.failed / tally.attempted
    print("%-36s %16.6f (%d of %d patient runs)" % ("failed_ratio", ratio, tally.failed,
                                                  tally.attempted))
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
