#!/usr/bin/env python3
"""Clustering benchmark: build, run one workload, print its result line.

    python3 perfbench/run.py --workload rmat18-par-cc --seed 99 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, end-to-end table
    python3 perfbench/run.py --smoke             # tiny inputs, every code path

Run from the repository root. The harness (perfbench/src) is compiled
together with the library modules it measures (src/main/scala/repro/{core,
graph,util}) by perfbench's own sbt build; the build is redone whenever any of
those sources change. Each workload runs in a fresh JVM with a fixed heap.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The exit code is non-zero
when an output check fails or the program cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIB_DIR = os.path.join(ROOT, "src", "main", "scala", "repro")
LIB_MODULES = ("core", "graph", "util")
BUILD_DIR = os.path.join(HERE, "target")
STAMP = os.path.join(BUILD_DIR, "bench-build.json")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")

WORKLOADS = ("rmat18-par-cc", "friendster-par-mod", "twitter-seq-cc")
# Fixed heap: rmat18 allocates more than 1 GB per clustering call, and a
# fixed size keeps GC behaviour the same from run to run.
HEAP = "2g"
SMOKE_HEAP = "512m"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    if not all(os.path.isdir(os.path.join(LIB_DIR, m)) for m in LIB_MODULES):
        die(f"library sources not found under {os.path.relpath(LIB_DIR, ROOT)}; "
            "run from a full checkout of the repository")
    roots = [os.path.join(LIB_DIR, m) for m in LIB_MODULES] + [os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{cmd[0]} did not finish within {timeout} s", 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(src_hash):
    """Compile with sbt (offline) unless the stamp matches; return the classpath."""
    if os.path.exists(STAMP):
        with open(STAMP) as fh:
            stamp = json.load(fh)
        if stamp.get("source_hash") == src_hash and all(
                os.path.exists(p) for p in stamp["classpath"].split(os.pathsep)):
            return stamp["classpath"]
    sbt = shutil.which("sbt")
    if sbt is None:
        die("sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    sbt_opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline=true" not in sbt_opts:
        env["SBT_OPTS"] = (sbt_opts + " -Dsbt.offline=true").strip()
    print("perfbench: building with sbt ...", file=sys.stderr)
    code, out = run_group(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        text=True)
    sys.stderr.write(out)
    lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
    cp = next((ln for ln in reversed(lines) if not ln.startswith("[")), None)
    if code != 0 or cp is None:
        die(f"sbt build failed (exit {code})")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(STAMP, "w") as fh:
        json.dump({"source_hash": src_hash, "classpath": cp}, fh)
    return cp


def git_sha():
    if shutil.which("git") and os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown"


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    return shutil.which("java") or die("java not found")


def run_workload(cp, env_args, workload, seed, seconds, trace, smoke):
    """Run one workload in a fresh JVM; return (exit code, stdout lines, result or None)."""
    heap = SMOKE_HEAP if smoke else HEAP
    # -XX:-UsePerfData: no hsperfdata file in the temp directory.
    cmd = [java_bin(), f"-Xms{heap}", f"-Xmx{heap}", "-XX:+UseG1GC", "-XX:-UsePerfData",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", RESULTS_DIR] + env_args
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return code, lines, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_shape(result, spec, trace):
    """Problems with a result line against BENCHMARK.json (empty if none)."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result line is not an object with exactly correct/attempted/failed/metrics"]
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = []
    if got != want:
        problems.append(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    for k, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            problems.append(f"{k} has no numeric value")
    if not result["correct"] or result["failed"]:
        problems.append("output check failed")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, help="GraphGen seed (default: the workload's BenchGraphs seed)")
    ap.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics untraced; 1: per-layer metrics from the traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload in both modes on tiny graphs and check the result shape")
    a = ap.parse_args()
    if not a.smoke and not a.workload:
        ap.error("--workload is required unless --smoke is given")
    if a.workload not in (None, "all") + WORKLOADS:
        ap.error(f"unknown workload {a.workload!r}; known: {', '.join(WORKLOADS)}, all")

    files = source_files()
    src_hash = source_hash(files)
    cp = build(src_hash)
    env_args = ["--git-sha", git_sha(), "--source-hash", src_hash]

    if a.smoke:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if tuple(names) != WORKLOADS:
            die(f"BENCHMARK.json workloads {names} differ from {list(WORKLOADS)}", 1)
        bad = 0
        for w in WORKLOADS:
            for trace in (0, 1):
                t0 = time.monotonic()
                code, lines, result = run_workload(cp, env_args, w, a.seed, a.seconds or 1, trace, True)
                problems = check_shape(result, spec, trace) + ([f"exit code {code}"] if code else [])
                bad += bool(problems)
                status = "ok" if not problems else "FAIL: " + "; ".join(problems)
                print(f"smoke {w} trace={trace}: {status} ({time.monotonic() - t0:.1f} s)")
                if problems:
                    print("\n".join("    " + ln for ln in lines[-12:]))
        print(json.dumps({"smoke": "ok" if bad == 0 else "failed", "failures": bad}))
        sys.exit(1 if bad else 0)

    seconds = a.seconds if a.seconds is not None else load_spec()["run_seconds"]
    if a.workload != "all":
        code, lines, result = run_workload(cp, env_args, a.workload, a.seed, seconds, a.trace, False)
        print("\n".join(lines))
        sys.exit(code if result is not None else (code or 2))

    # Every workload, one JVM each: a table by name and unit, then one
    # combined result line.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, lines, result = run_workload(cp, env_args, w, a.seed, seconds, a.trace, False)
        print("\n".join(ln for ln in lines[:-1] if ln.startswith("#")))
        if result is None:
            print(f"{w}: no result (exit {code})")
            total["correct"] = False
            worst = worst or code or 2
            continue
        total["correct"] &= bool(result["correct"])
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        worst = worst or code
        for name, m in result["metrics"].items():
            print(f"{w:20s} {name:30s} {m['value']:>16.6g} {m['unit']}")
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total))
    sys.exit(worst)


if __name__ == "__main__":
    main()
