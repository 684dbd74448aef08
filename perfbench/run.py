#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload, or all of them.

    python3 perfbench/run.py --workload micro-warm --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all

The Go benchmark (this directory, its own module) and cmd/tracecheck are
built from source into .bench_build/ at the repository root; reports,
traces and run records go to .bench_out/. Nothing is read or written
outside the repository: the Go build cache and configuration live under
.bench_build/ too.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["micro-warm", "micro-cold", "lenet5-warm", "micro-fleet"]
# A run must end within 180 s; the Go build happens before the clock
# below starts.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
    })
    return env


def build():
    """Builds the benchmark and cmd/tracecheck; returns their paths."""
    bench = os.path.join(BUILD, "perfbench")
    check = os.path.join(BUILD, "tracecheck")
    env = go_env()
    for cmd, cwd in (
        (["go", "build", "-o", bench, "."], HERE),
        (["go", "build", "-o", check, "./cmd/tracecheck"], ROOT),
    ):
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("run.py: build failed: %s" % " ".join(cmd))
    return bench, check


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the Go sources and module files being measured."""
    h = hashlib.sha256()
    skip = {".git", ".bench_build", ".bench_out"}
    paths = []
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if x not in skip)
        for f in files:
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                paths.append(os.path.join(d, f))
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def run_one(bench, check, workload, seed, seconds, trace, digest, rev):
    cmd = [bench, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-out", OUT, "-tracecheck", check,
           "-commit", rev, "-source-digest", digest]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        sys.stderr.write("run.py: %s did not finish within %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1, None, ""
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.workload != "all" and a.workload not in WORKLOADS:
        ap.error("unknown workload %r" % a.workload)

    bench, check = build()
    digest, rev = source_digest(), commit()
    if a.workload != "all":
        code, _, out = run_one(bench, check, a.workload, a.seed, a.seconds, a.trace, digest, rev)
        sys.stdout.write(out)
        return code

    # Every workload in turn: each report as it comes, then one table of
    # the end-to-end metrics by workload, then the combined result.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    rows = []
    for w in WORKLOADS:
        c, res, out = run_one(bench, check, w, a.seed, a.seconds, a.trace, digest, rev)
        sys.stdout.write("".join(l + "\n" for l in out.strip().splitlines()[:-1]))
        if c != 0 or res is None:
            code = 1
            combined["correct"] = False
        if res is None:
            continue
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = m
        rows.append((w, res))
    if rows:
        names = list(rows[0][1]["metrics"])
        print("# %-28s %-6s " % ("metric", "unit") + " ".join("%14s" % w for w, _ in rows))
        for n in names:
            unit = rows[0][1]["metrics"][n]["unit"]
            vals = " ".join("%14.4f" % r["metrics"][n]["value"] for _, r in rows)
            print("# %-28s %-6s %s" % (n, unit, vals))
        print("# failed/attempted " + " ".join("%s=%d/%d" % (w, r["failed"], r["attempted"]) for w, r in rows))
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
