#!/usr/bin/env python3
"""Run one workload of the wire-level serving benchmark.

    python3 perfbench/run.py --workload edit-large --seed 1 --seconds 20 --trace 0

Builds the release server (`freezeml`) and the benchmark client
(`perfbench/`, a Cargo workspace of its own) from source into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the client, which
starts the server, drives the workload and prints the result object as
the last line of standard output. Reports and spans are written under
`<target dir>/perfbench-reports/`.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("edit-large", "open-stream")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


MEASURED = ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench")


def tree_digest(root):
    """A digest of the measured source files."""
    h = hashlib.sha256()
    paths = []
    for top in MEASURED:
        p = os.path.join(root, top)
        if os.path.isfile(p):
            paths.append(p)
        for d, dirs, files in os.walk(p):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths.extend(os.path.join(d, f) for f in files)
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def source_id(root):
    """The measured source: git's HEAD when there is a repository, with
    the tree digest appended when the measured files differ from it;
    else the tree digest alone."""
    if os.path.isdir(os.path.join(root, ".git")):
        git = lambda *a: subprocess.run(["git", *a], cwd=root, capture_output=True, text=True)
        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            dirty = git("status", "--porcelain", "--", *MEASURED)
            if dirty.returncode == 0 and not dirty.stdout.strip():
                return head.stdout.strip()
            return head.stdout.strip() + "+" + tree_digest(root)
    return tree_digest(root)


def build(root, env, args):
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                       cwd=root, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("Cargo.toml", "crates/service", "crates/conformance", "tests/conformance"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"not a FreezeML checkout: {need} is missing under {root}")

    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(root, env, ["-p", "freezeml", "--bin", "freezeml"])
    build(root, env, ["--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")])

    # The client and the server it starts share one CPU: the closed loop
    # keeps one of them busy at a time, and the client's speed gauge
    # (src/gauge.rs) then times the CPU the server runs on.
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--server", os.path.join(target, "release", "freezeml"),
        "--root", root,
        "--out", os.path.join(target, "perfbench-reports"),
        "--commit", source_id(root),
        "--nproc", str(len(cpus)),
        "--cpu", str(cpu),
    ]
    # A session of its own, so a timeout takes the server down with the
    # client.
    p = subprocess.Popen(cmd, cwd=root, start_new_session=True,
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
