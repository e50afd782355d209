#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/benchmark.exe with dune from the source
tree this file sits in, then runs one workload in a fresh process at
--jobs 1.  The last line of standard output is the result object;
--trace 1 reports the per-layer metrics instead of the end-to-end ones
and leaves a Chrome trace under .perfbench/trace/.

--smoke runs every workload at the reduced scale, checks the output
against BENCHMARK.json (names, units, finite values, exact repeats of
the simulated metrics) and runs the compare tool's self-test.

Build output goes to $CARGO_TARGET_DIR when it is set, else _build.  The
dune cache is disabled and temporary files go to .perfbench/tmp, so
nothing is written outside the tree.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or "_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def env():
    """Keep every file the build and the run write inside the tree: the
    compiler's temporary files, and the runtime-events ring."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
                OCAML_RUNTIME_EVENTS_DIR=OUT)


def build():
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir(),
           "perfbench/benchmark.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        sys.exit(1)
    if r.returncode != 0:
        log("build failed (dune exited %d)" % r.returncode)
        sys.exit(1)
    return os.path.join(build_dir(), "default", "perfbench", "benchmark.exe")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=30).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def run_exe(exe, args, capture=False):
    try:
        return subprocess.run([exe] + args, cwd=ROOT, env=env(),
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        sys.exit(1)


def exe_args(workload, seed, seconds, trace, smoke=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--commit", commit(), "--source", source_digest()]
    if trace:
        args += ["--trace-dir",
                 os.path.join(OUT, "trace", "%s-seed%d" % (workload, seed))]
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
    if smoke:
        args.append("--smoke")
    return args


# --- smoke -----------------------------------------------------------------

def check_spec(spec, problems):
    """The shape BENCHMARK.json must keep."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append("BENCHMARK.json keys are %s" % sorted(spec))
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for m in spec.get(section, []):
            names.append(m["name"])
            if not NAME.match(m["name"]) or len(m["name"]) > 64:
                problems.append("bad name %r" % m["name"])
            if section != "workloads" and not unit.match(m["unit"]):
                problems.append("bad unit %r" % m["unit"])
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append("bound of %s outside (0, 0.25]" % m["name"])
    if len(names) != len(set(names)):
        problems.append("a name is used twice")


def parse_result(stdout):
    return json.loads([l for l in stdout.splitlines() if l.strip()][-1])


def check_metrics(label, result, wanted, problems):
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        problems.append("%s: metric names differ from BENCHMARK.json" % label)
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            continue
        if v["unit"] != m["unit"]:
            problems.append("%s: %s has unit %s" % (label, m["name"], v["unit"]))
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append("%s: %s is not a finite number" % (label, m["name"]))
    if result["correct"] is not True:
        problems.append("%s: the run reported correct=false" % label)


def smoke(exe, spec):
    problems = []
    check_spec(spec, problems)
    r = subprocess.run([sys.executable, "-B", os.path.join(HERE, "compare.py"),
                        "--self-test"], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        problems.append("compare.py --self-test failed")
    for w in spec["workloads"]:
        name = w["name"]
        timed = []
        for _ in range(2):
            p = run_exe(exe, exe_args(name, 1, 0.1, False, smoke=True), capture=True)
            if p.returncode != 0:
                problems.append("%s: exited %d" % (name, p.returncode))
                continue
            res = parse_result(p.stdout)
            check_metrics(name, res, spec["end_to_end"], problems)
            digest = [l for l in p.stdout.splitlines() if l.startswith("digest=")]
            timed.append((digest, res["attempted"], res["failed"],
                          {k: v for k, v in res["metrics"].items()
                           if k.startswith("latency")}))
        if len(timed) == 2:
            if timed[0] != timed[1]:
                problems.append("%s: two smoke runs disagree on simulated metrics" % name)
        p = run_exe(exe, exe_args(name, 1, 0.1, True, smoke=True), capture=True)
        if p.returncode != 0:
            problems.append("%s --trace: exited %d" % (name, p.returncode))
        else:
            check_metrics(name + " --trace", parse_result(p.stdout),
                          spec["per_layer"], problems)
        log("smoke %s done" % name)
    for msg in problems:
        log("smoke: " + msg)
    log("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required")
    exe = build()
    if a.smoke:
        return smoke(exe, spec)
    sys.stdout.flush()
    return run_exe(exe, exe_args(a.workload, a.seed, a.seconds, a.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
