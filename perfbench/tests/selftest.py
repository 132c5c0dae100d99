#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Run from the repository root:

    python3 perfbench/tests/selftest.py

It builds the benchmark if needed (see perfbench/run.py), then checks:
  * every workload in BENCHMARK.json, run at a tiny size, prints every
    end-to-end metric (--trace 0) or per-layer metric (--trace 1) with
    the unit BENCHMARK.json names, plus the host stamp, the input
    fingerprint and the end-to-end metrics kept out of the JSON;
  * the same seed gives the same input fingerprint, another seed another;
  * a corrupted copy of one answer makes the oracle fail the run:
    failed > 0 and a non-zero exit code;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# End-to-end figures printed on every run but kept out of the JSON
# result: failed_ratio rides in attempted/failed, and only churn_publish
# writes (the publish latencies are per-layer metrics there).
PRINTED_ONLY = [("failed_ratio", "ratio"), ("publish_p50_us", "us"),
                ("publish_p99_us", "us")]

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"  FAIL: {what}")


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py"] + args
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=900)
    return res


def result_of(res):
    lines = res.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def fingerprint(res):
    m = re.search(r"fingerprint=([0-9a-f]+)", res.stdout)
    return m.group(1) if m else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    tiny = ["--seed", "1", "--seconds", "1", "--scale", "tiny"]

    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            print(f"{name} --trace {trace}")
            res = run(["--workload", name, "--trace", trace] + tiny)
            check(res.returncode == 0, f"{name}/{trace}: exit {res.returncode}: "
                  f"{res.stderr.strip()[-300:]}")
            out = result_of(res)
            check(out is not None and set(out) == RESULT_KEYS,
                  f"{name}/{trace}: last line is not a result object")
            if out is None:
                continue
            check(out["correct"] is True and out["failed"] == 0,
                  f"{name}/{trace}: correct={out['correct']} failed={out['failed']}")
            check(isinstance(out["attempted"], int) and out["attempted"] >= 1,
                  f"{name}/{trace}: attempted={out['attempted']}")
            for m in bench[key]:
                got = out["metrics"].get(m["name"])
                check(got is not None and got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      f"{name}/{trace}: metric {m['name']} [{m['unit']}] "
                      f"missing or wrong: {got}")
            check(set(out["metrics"]) == {m["name"] for m in bench[key]},
                  f"{name}/{trace}: metrics other than BENCHMARK.json's {key}")
            check(re.search(r'^host: \{"nproc": \d+, "build_type": ', res.stdout,
                            re.M) is not None, f"{name}/{trace}: no host stamp")
            check(fingerprint(res) is not None, f"{name}/{trace}: no fingerprint")
            for metric, unit in PRINTED_ONLY:
                check(re.search(rf"^  {metric} +\S+ {re.escape(unit)}\b",
                                res.stdout, re.M) is not None,
                      f"{name}/{trace}: {metric} not printed with unit {unit}")

    print("fingerprints")
    a = run(["--workload", "cold_explore", "--trace", "0"] + tiny)
    b = run(["--workload", "cold_explore", "--trace", "0"] + tiny)
    c = run(["--workload", "cold_explore", "--trace", "0", "--seed", "2",
             "--seconds", "1", "--scale", "tiny"])
    check(fingerprint(a) is not None and fingerprint(a) == fingerprint(b),
          "same seed, different input fingerprint")
    check(fingerprint(a) != fingerprint(c), "different seeds, same fingerprint")

    print("corrupted answer")
    res = run(["--workload", "hot_hits", "--trace", "0",
               "--corrupt-answer", "1"] + tiny)
    out = result_of(res)
    check(res.returncode != 0, "corrupted answer: exit code 0")
    check(out is not None and out["correct"] is False and out["failed"] > 0,
          f"corrupted answer: result {out and {k: out[k] for k in RESULT_KEYS - {'metrics'}}}")
    check("corrupted answer copy rejected" in res.stdout,
          "corrupted answer: oracle did not reject the copy")

    print("benchmark files alone")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(tmp, "perfbench"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
        res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                              "hot_hits", "--trace", "0"] + tiny, cwd=tmp,
                             capture_output=True, text=True, timeout=180,
                             env=env)
        check(res.returncode != 0, "without src/: exit code 0")
        check(result_of(res) is None, "without src/: a result was printed")

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
