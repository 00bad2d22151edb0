#!/usr/bin/env python3
"""Result helpers for the end-to-end benchmark (README.md).

  e2e_stats.py smoke BINARY BENCHMARK_JSON
      Runs every workload for 2 s in both tracing modes; fails unless each
      run exits 0, passes its correctness gate and prints exactly the
      metric names and units BENCHMARK.json declares.
  e2e_stats.py summary BENCHMARK_JSON RESULT_DIR
      Median, quartiles and spread (IQR / median) of every metric on every
      workload over the RESULT_DIR/<workload>.<seed>.json result lines;
      flags a spread above the metric's bound ("OVER") or above a third of
      it ("wide").
  e2e_stats.py compare BENCHMARK_JSON BASE_DIR NEW_DIR
      Flags every (workload, metric) whose NEW median is worse than the
      BASE median by more than the metric's bound.
  e2e_stats.py overhead UNTRACED_RESULT_LINE TRACED_OUTPUT
      Traced minus untraced value of every end-to-end metric.
"""

import json
import os
import statistics
import subprocess
import sys


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def smoke(binary, spec_path):
    spec = load_spec(spec_path)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [binary, "--workload", workload, "--seed", "1",
                   "--seconds", "2", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=170)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}")
                continue
            result = last_json_line(proc.stdout)
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 \
                    or result["attempted"] < 1:
                failures.append(f"{label}: not correct: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                failures.append(f"{label}: missing {missing}, extra {extra}, "
                                f"unit mismatch {units}")
            print(f"ok {label}: {len(got)} metrics, "
                  f"attempted {result['attempted']}")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


def load_results(directory):
    """{workload: {metric: [values]}} from <workload>.<seed>.json files."""
    results = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload = name.split(".")[0]
        with open(os.path.join(directory, name)) as f:
            result = last_json_line(f.read())
        if result.get("correct") is not True:
            raise SystemExit(f"{name}: run was not correct")
        for metric, m in result["metrics"].items():
            results.setdefault(workload, {}).setdefault(metric, []).append(
                m["value"])
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def summary(spec_path, directory):
    spec = load_spec(spec_path)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = load_results(directory)
    over = 0
    print(f"{'workload':<14} {'metric':<16} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric, values in results.get(workload, {}).items():
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and s > bound:
                flag = "OVER"
                over += metric != "setup_s"
            elif bound is not None and s > bound / 3:
                flag = "wide"
            print(f"{workload:<14} {metric:<16} {len(values):>3} "
                  f"{q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} "
                  f"{bound if bound is not None else '':>6} {flag}")
    return 1 if over else 0


def compare(spec_path, base_dir, new_dir):
    spec = load_spec(spec_path)
    base, new = load_results(base_dir), load_results(new_dir)
    worse = 0
    for m in spec["end_to_end"]:
        for workload in (w["name"] for w in spec["workloads"]):
            a = statistics.median(base[workload][m["name"]])
            b = statistics.median(new[workload][m["name"]])
            change = (b - a) / abs(a) if a else 0.0
            regressed = change > m["bound"] if m["better"] == "lower" \
                else -change > m["bound"]
            worse += regressed
            print(f"{workload:<14} {m['name']:<16} {a:>14.6g} {b:>14.6g} "
                  f"{change:>+8.4f} {m['bound']:>6} "
                  f"{'WORSE' if regressed else ''}")
    return 1 if worse else 0


def overhead(untraced_line, traced_output):
    untraced = json.loads(untraced_line)["metrics"]
    traced = {}
    for line in traced_output.splitlines():
        if line.startswith("traced end-to-end:"):
            for pair in line.split(":", 1)[1].split():
                name, value = pair.split("=")
                traced[name] = float(value)
    print("tracing overhead (traced - untraced):")
    for name, m in untraced.items():
        if name in traced:
            delta = traced[name] - m["value"]
            share = delta / m["value"] if m["value"] else 0.0
            print(f"  {name:<16} {delta:+.6g} {m['unit']} ({share:+.1%})")
    return 0


def main(argv):
    commands = {"smoke": (smoke, 2), "summary": (summary, 2),
                "compare": (compare, 3), "overhead": (overhead, 2)}
    if len(argv) < 2 or argv[1] not in commands \
            or len(argv) - 2 != commands[argv[1]][1]:
        print(__doc__, file=sys.stderr)
        return 2
    func, _ = commands[argv[1]]
    return func(*argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
