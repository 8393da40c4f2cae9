#!/usr/bin/env python3
"""The benchmark's self-tests (about five minutes on two cores):

    python3 perfbench/selftest.py

1. Every metric BENCHMARK.json declares is one the program emits, with a
   valid name and the same unit, and every run emits all of them.
2. Two runs of one seed give identical simulated metrics and identical
   exact per-layer counts.
3. compare.py flags a planted slowdown (host busy-work added to every
   hotword TxCAS op) as a host-time regression, and nothing simulated.
4. The benchmark refuses to run with an SBQ_* knob set, and fails
   without a result in a directory that holds only the benchmark.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SIM_E2E = ["sim_ns_per_op", "sim_op_p50_ns", "sim_op_p99_ns"]
# Simulated extras: a pure function of the seed.
SIM_EXTRA = ["e2e_p50_us.low", "e2e_p99_us.low", "e2e_p99_us.mid", "gen_lag_p99_us", "knee_krps",
             "max_depth_ingress.low", "max_depth_ingress.mid", "max_depth_ingress.high"]
# Per-layer counts that are exact (simulated), as opposed to host times.
EXACT_LAYER = ["coherence.events_per_op", "coherence.msgs_per_op", "coherence.getm_per_op",
               "coherence.inv_per_op", "coherence.fwd_per_op", "coherence.stalls_per_op",
               "coherence.cross_hops_per_op", "htm.commit_ratio", "htm.aborts_per_op",
               "htm.tripped_per_kop", "sbq.txcas_fail_per_op", "sbq.txcas_retries_per_op",
               "sbq.txcas_fallbacks", "sbq.atomics_per_op", "sbq.deq_empty_ratio",
               "linearize.events_per_history"]
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def child(exe, workload, seed, seconds, trace, extra=()):
    res, err = run.run_child(exe, workload, seed, seconds, trace, extra)
    expect(res is not None, f"{workload} seed {seed} trace {trace} runs (stderr: {err})")
    return res


def main():
    e2e, layer = run.declared()
    exe = run.build()
    expect(exe is not None, "the program builds")
    if exe is None:
        sys.exit(1)

    # 1. Declared metrics match the program's, names and units valid.
    listed = subprocess.run([exe, "metrics"], capture_output=True, text=True).stdout.split("\n")
    prog = {(g, n): u for g, n, u in (l.split() for l in listed if l.strip())}
    for group, decl in (("e2e", e2e), ("layer", layer)):
        expect({n for g, n in prog if g == group} == {m["name"] for m in decl},
               f"BENCHMARK.json declares exactly the program's {group} metrics")
        for m in decl:
            expect(NAME.match(m["name"]) and UNIT.match(m["unit"]) and prog.get((group, m["name"])) == m["unit"],
                   f"{m['name']} has a valid name and the program's unit {m['unit']}")

    # Every workload, two timed runs of one seed and one traced run.
    seed, secs = 3, 2
    for w in run.WORKLOADS:
        a = child(exe, w, seed, secs, False)
        b = child(exe, w, seed, secs, False)
        t = child(exe, w, seed, secs, True)
        if not (a and b and t):
            continue
        for r, trace in ((a, 0), (b, 0), (t, 1)):
            line = run.contract_line(r, trace)
            expect(line["correct"] and len(line["metrics"]) == len(layer if trace else e2e),
                   f"{w} trace {trace}: correct, every declared metric present ({r['errors']})")
        expect(all(a["e2e"][m]["value"] > 0 for m in a["e2e"]), f"{w}: no end-to-end metric is 0")
        for m in SIM_E2E:
            expect(a["e2e"][m] == b["e2e"][m], f"{w}: {m} repeats exactly ({a['e2e'][m]['value']})")
        for m in SIM_EXTRA:
            if m in a["extra"]:
                expect(a["extra"][m] == b["extra"][m], f"{w}: {m} repeats exactly")
        for m in EXACT_LAYER:
            if m in a["layer"]:
                expect(a["layer"][m] == b["layer"][m], f"{w}: {m} repeats exactly")
        expect(os.path.exists(os.path.join(run.OUT, f"trace-{w}-seed{seed}.json")), f"{w}: Chrome trace written")

    # 3. A planted slowdown is flagged, and only where it is.
    base_path = os.path.join(run.OUT, "selftest-base.jsonl")
    head_path = os.path.join(run.OUT, "selftest-head.jsonl")
    for p in (base_path, head_path):
        open(p, "w").close()
    for i in range(3):
        for path, extra in ((base_path, ()), (head_path, ("--plant-slowdown-ns", "2000"))):
            r = child(exe, "hotword-44", 1 + i, secs, False, extra)
            if r:
                with open(path, "a") as f:
                    f.write(json.dumps(r) + "\n")
    rows, regressed = compare.compare(base_path, head_path)
    verdicts = {n: v for _, n, _, _, _, _, _, v in rows}
    expect(regressed and verdicts.get("host_kops_per_s") == "regression",
           f"compare flags the planted slowdown on host_kops_per_s ({verdicts.get('host_kops_per_s')})")
    expect(all(verdicts.get(m) == "same" for m in SIM_E2E), "compare sees no simulated change")

    # 4. The knob guard, and a directory with only the benchmark in it.
    env = dict(os.environ, SBQ_FAST_PATH="0")
    g = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "hotword-44",
                        "--seed", "1", "--seconds", "1"], env=env, capture_output=True, text=True)
    expect(g.returncode != 0 and not g.stdout.strip(), "refuses to run with SBQ_FAST_PATH set")
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "target"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    g = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hotword-44", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, env=env, capture_output=True, text=True,
                       timeout=180)
    expect(g.returncode != 0 and not g.stdout.strip(), "fails without a result when only the benchmark is present")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
