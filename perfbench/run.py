#!/usr/bin/env python3
"""The repository benchmark.

One workload, as the benchmark contract runs it (prints one JSON result
as its last line):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every workload, timed and traced, as one report table (plus
perfbench/out/results.json and the Chrome traces):

    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

The measuring program is the Rust package beside this file. It is built
from source on every call (a no-op when up to date) into
$CARGO_TARGET_DIR, default .bench_build, and each workload runs in a
child process with a deadline: a panic, a non-zero exit or a timeout is
a failed run whose stderr is kept under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ["hotword-44", "sbq-mixed-2s", "service-open-loop", "fuzz-campaign"]
# Knobs that change the programs under test; SBQ_FAST_PATH silently
# changes MachineConfig::default().
KNOBS = ["SBQ_FAST_PATH", "SBQ_OPS", "SBQ_THREADS", "SBQ_JOBS", "SBQ_NUMA_GRID"]
# A child gets its measuring time plus this much for set-up, checks and
# the traced run's extras; the whole call must end within 180 s.
CHILD_GRACE_S = 110


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the measuring program; returns its path or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Every dependency is a path in the checkout, so cargo needs nothing
    # from the user's cargo home; a private one keeps its lock and cache
    # files inside the build directory too.
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(), CARGO_HOME=os.path.join(target_dir(), "cargo-home"))
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        return None
    if r.returncode != 0:
        log("perfbench: build failed")
        return None
    exe = os.path.join(target_dir(), "release", "perfbench")
    return exe if os.path.exists(exe) else None


def sh(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order: the
    checkout the benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")]
    for top in ("crates", "perfbench"):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x not in ("out", "target"))
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(seed):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    commit = sh(["git", "-C", ROOT, "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "rustc": sh(["rustc", "-V"]),
        "commit": commit or "none (not a git checkout)",
        "source_digest": source_digest(),
        "seed": seed,
    }


def run_child(exe, workload, seed, seconds, trace, extra=()):
    """Runs one workload in a child process. Returns (result or None, stderr path)."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    err_path = os.path.join(OUT, tag + ".stderr")
    cmd = [exe, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--out", OUT, *extra]
    with open(err_path, "w") as err:
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out, _ = p.communicate(timeout=seconds + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            err.write(f"\nperfbench: killed after {seconds + CHILD_GRACE_S} s\n")
            return None, err_path
    if p.returncode != 0:
        return None, err_path
    lines = out.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, err_path
    if os.path.getsize(err_path) == 0:
        os.remove(err_path)
    return res, err_path


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return b["end_to_end"], b["per_layer"]


def contract_line(res, trace):
    """The contract's result object: every declared metric of the group."""
    e2e, layer = declared()
    group, decl = ("layer", layer) if trace else ("e2e", e2e)
    metrics, problems = {}, []
    for m in decl:
        got = res[group].get(m["name"])
        if got is None or got["value"] is None:
            problems.append(f"{m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']} != declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        log(f"perfbench: {p}")
    failed = res["failed"] + len(problems)
    return {"correct": failed == 0, "attempted": max(1, res["attempted"] + len(problems)),
            "failed": failed, "metrics": metrics}


def guard():
    bad = [k for k in KNOBS if k in os.environ]
    if bad:
        log(f"perfbench: refusing to run with {', '.join(bad)} set: they change the programs under test")
        sys.exit(2)


def record(entry):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps(entry) + "\n")


def one(args):
    exe = build()
    if exe is None:
        sys.exit(1)
    prov = provenance(args.seed)
    log("perfbench: " + json.dumps(prov))
    res, err_path = run_child(exe, args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        log(f"perfbench: {args.workload} failed; stderr kept in {err_path}")
        record({"provenance": prov, "workload": args.workload, "trace": args.trace, "failed_run": err_path})
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)
    for e in res["errors"]:
        log(f"perfbench: check failed: {e}")
    record({"provenance": prov, **res})
    print(json.dumps(contract_line(res, args.trace)))


def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def all_workloads(args):
    exe = build()
    if exe is None:
        sys.exit(1)
    prov = provenance(args.seed)
    rows, results, bad = [], {}, False
    for w in WORKLOADS:
        results[w] = {}
        for trace in (0, 1):
            t0 = time.monotonic()
            res, err_path = run_child(exe, w, args.seed, args.seconds, trace)
            if res is None:
                log(f"perfbench: {w} trace={trace} failed; stderr kept in {err_path}")
                results[w][f"trace{trace}"] = {"failed_run": err_path}
                rows.append((w, "-", "fail_ratio", 1.0, "ratio"))
                bad = True
                continue
            log(f"perfbench: {w} trace={trace} done in {time.monotonic() - t0:.1f} s")
            results[w][f"trace{trace}"] = res
            groups = ("layer", "extra") if trace else ("e2e", "extra")
            for g in groups:
                for name, m in sorted(res[g].items()):
                    if trace and g == "extra" and not name.startswith(("self_ms.", "total_ms.", "count.")):
                        continue
                    rows.append((w, g if not trace else "traced", name, m["value"], m["unit"]))
            ratio = res["failed"] / max(1, res["attempted"])
            rows.append((w, "checks" if not trace else "traced", "fail_ratio", ratio, "ratio"))
            bad |= res["failed"] > 0
            for e in res["errors"]:
                log(f"perfbench: {w}: check failed: {e}")
    width = max(len(r[2]) for r in rows)
    print(f"# perfbench seed={args.seed} seconds={args.seconds} " + json.dumps(prov))
    print(f"{'workload':<18} {'group':<7} {'metric':<{width}} {'value':>14} unit")
    for w, g, name, v, unit in rows:
        print(f"{w:<18} {g:<7} {name:<{width}} {fmt(v):>14} {unit}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.json"), "w") as f:
        json.dump({"provenance": prov, "seconds": args.seconds, "results": results}, f, indent=1)
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, timed and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.seconds > 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")
    if bool(args.all) == bool(args.workload):
        ap.error("give exactly one of --workload or --all")
    guard()
    if args.all:
        all_workloads(args)
    else:
        one(args)


if __name__ == "__main__":
    main()
