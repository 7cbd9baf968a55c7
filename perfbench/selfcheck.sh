#!/usr/bin/env bash
# A/A self-check: two full sets of runs of the same build, compared per
# (workload, metric) against the bounds in BENCHMARK.json, the way the
# driver judges the benchmark.
#
#   perfbench/selfcheck.sh [RUNS_PER_SET] [> perfbench/AA.md]
#
# Each set runs every workload RUNS_PER_SET times (default 10), each
# time with another --seed. For every end-to-end metric the script
# prints each set's median and spread (distance between the first and
# third quartile of statistics.quantiles(values, n=4), as a share of the
# median) and how much worse the second median is than the first. It
# fails, as the driver does, if a spread other than setup_s's exceeds
# the metric's bound or a second median (setup_s's too) is worse than
# the first by more than the bound; a setup_s spread over the bound is
# marked in the table but, by the driver's rule, does not fail the
# check. A second table gives the same runs' timings as the clock read
# them, before calibration. One traced run per workload and set (same
# seed in both) must agree bit-for-bit on every per-layer count that is
# exact by construction. Every run's values are listed at the end.
#
# Run from the root of the repository; builds into CARGO_TARGET_DIR (or
# perfbench/target) first. The table goes to standard output, progress
# to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" <<'PY'
import json, re, statistics, subprocess, sys

runs = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
command = spec["command"]
seconds = str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"]]
# Counts that depend only on (n, p, k) and the seed, never on timing.
EXACT = [
    "sqlem.stmts_per_iter", "sqlem.sql_bytes_per_iter", "sqlengine.n_scans",
    "sqlengine.pn_scans", "sqlengine.rows_scanned", "sqlengine.rows_written",
    "sqlengine.join_build_rows", "sqlengine.join_probe_rows", "sqlengine.expr_evals",
    "sqlengine.groups", "sqlengine.peak_mem_bytes", "wal.bytes_per_iter",
    "wal.bytes_per_loaded_row", "storage.snapshot_bytes", "wire.req_bytes_per_iter",
    "wire.resp_bytes_per_iter", "cluster.shard_calls_per_iter",
]

def run(workload, seed, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", seconds, "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(args)}: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # Beside each calibrated timing the run prints the same statistic
    # as the clock read it; keep it for the second table.
    for line in lines[:-1]:
        raw = re.search(r"^(\S+) .*uncalibrated p50 ([0-9.e+-]+)", line)
        if raw:
            values["raw " + raw.group(1)] = float(raw.group(2))
    return values

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

sets = []
for label in "AB":
    untraced, traced = {}, {}
    for w in workloads:
        # The two sets use disjoint seeds, as two sessions of the driver would.
        first = 1 if label == "A" else 1001
        untraced[w] = [run(w, first + i, 0) for i in range(runs)]
        traced[w] = run(w, 20000518, 1)
        print(f"set {label}: {w} done", file=sys.stderr)
    sets.append((untraced, traced))

failures = []
print(f"# A/A self-check: 2 sets x {runs} runs x {seconds} s, same build\n")
print("| workload | metric | bound | median A | spread A | median B | spread B | B worse by | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r[name] for r in sets[0][0][w]]
        b = [r[name] for r in sets[1][0][w]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a
        if metric["better"] == "higher":
            worse = -worse
        problems = []
        wide = max(spread(a), spread(b)) > bound
        if wide and name != "setup_s":
            problems.append("spread")
        if worse > bound:
            problems.append("drift")
        if problems:
            failures.append(f"{w}/{name}: {'+'.join(problems)}")
        verdict = "FAIL " + "+".join(problems) if problems else "ok"
        if wide and name == "setup_s":
            verdict += " (spread over the bound: exempt)"
        print(f"| {w} | {name} | {bound:.0%} | {med_a:.6g} | {spread(a):.1%} | "
              f"{med_b:.6g} | {spread(b):.1%} | {worse:+.1%} | {verdict} |")

# The same runs before calibration: what gating on the clock's seconds
# would have had to accept. Not gated.
print("\nThe same runs as the clock read them (not gated):\n")
print("| workload | metric | median A | spread A | median B | spread B | B worse by | within the bound? |")
print("|---|---|---|---|---|---|---|---|")
for w in workloads:
    for metric in spec["end_to_end"]:
        name, bound = "raw " + metric["name"], metric["bound"]
        if name not in sets[0][0][w][0]:
            continue
        a = [r[name] for r in sets[0][0][w]]
        b = [r[name] for r in sets[1][0][w]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a
        within = max(spread(a), spread(b)) <= bound and worse <= bound
        print(f"| {w} | {metric['name']} | {med_a:.6g} | {spread(a):.1%} | {med_b:.6g} | "
              f"{spread(b):.1%} | {worse:+.1%} | {'yes' if within else 'no'} |")

print("\n| workload | exact per-layer counts | verdict |")
print("|---|---|---|")
for w in workloads:
    ta, tb = sets[0][1][w], sets[1][1][w]
    moved = [n for n in EXACT if ta[n] != tb[n]]
    failures += [f"{w}/{n}: {ta[n]} vs {tb[n]}" for n in moved]
    print(f"| {w} | {len(EXACT) - len(moved)} of {len(EXACT)} identical | "
          f"{'FAIL ' + ', '.join(moved) if moved else 'ok'} |")

print("\n## Every run\n")
for w in workloads:
    for name in sets[0][0][w][0]:
        for label, (untraced, _) in zip("AB", sets):
            values = " ".join(f"{r[name]:.6g}" for r in untraced[w])
            print(f"- {w} {name} {label}: {values}")

if failures:
    print("\nFAILED: " + "; ".join(failures))
    sys.exit(1)
print("\nAll pairs agree within their bounds.")
PY
