#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the jstar-serve binary and the benchmark driver (perfbench/bench.ml)
from source with dune, records the machine's shape, then runs the driver
once in its own process group under a deadline.  Scratch state lives in a
fresh directory under .bench_tmp/ in the checkout and is removed on every
exit path; a traced run leaves its spans under .bench_out/.

Workloads and metrics are listed in BENCHMARK.json at the repo root.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_sessions", "closure_join", "pvwatts_csv")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def fs_type(path):
    """Filesystem type of the mount holding path (longest mount prefix)."""
    best, kind = "", "unknown"
    for line in (read("/proc/mounts") or "").splitlines():
        parts = line.split()
        if len(parts) >= 3 and (path == parts[1] or path.startswith(parts[1].rstrip("/") + "/")):
            if len(parts[1]) > len(best):
                best, kind = parts[1], parts[2]
    return kind


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def machine(tmp):
    quota = read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        q, p = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = f"{q} {p}" if q and p else "none (no cgroup cpu limit file)"
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_max": quota,
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"]),
        "git_rev": rev or "unknown (not a git checkout)",
        "tmp_fs": fs_type(tmp),
        "fsync": "5ms (jstar-serve default, not overridden)",
    }


def build():
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./bin/jstar_serve_cli.exe", "./perfbench/bench.exe"]
    # no shared build cache: the build writes only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune is not on PATH")
    except subprocess.TimeoutExpired:
        die(f"build did not finish within {BUILD_TIMEOUT_S} s", 1)
    if r.returncode != 0:
        die("build failed", 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("dune-project", "bin/jstar_serve_cli.ml", "lib/serve/server.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} is missing: run from a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    serve_bin = os.path.join(ROOT, "_build", "default", "bin", "jstar_serve_cli.exe")
    tmp = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    shape = machine(tmp)

    proc = None

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    try:
        proc = subprocess.Popen(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--serve-bin", serve_bin, "--tmp", tmp,
             "--out", os.path.join(ROOT, ".bench_out")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        if proc is not None:
            # the driver's own children (jstar-serve) share its group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        for l in lines:
            print(l, file=sys.stderr)
        die(f"driver exited with code {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die(f"driver's last line is not JSON: {lines[-1]!r}", 1)
    metrics = result.get("metrics", {})
    for name, m in metrics.items():
        if name not in wanted or m.get("unit") != wanted[name]["unit"]:
            die(f"metric {name} ({m.get('unit')}) is not in BENCHMARK.json as such", 1)
    if args.trace:
        # a layer that does no work on this workload reads 0
        for name, m in wanted.items():
            metrics.setdefault(name, {"value": 0, "unit": m["unit"]})
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        die(f"metrics {missing} were not reported", 1)
    result["metrics"] = {name: metrics[name] for name in wanted}
    for l in lines[:-1]:
        print(l)
    print("machine: " + json.dumps(shape))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
