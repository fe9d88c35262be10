#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_low_load --seed 1 --seconds 10 --trace 0

Builds `amoe-serve` (root workspace) and `perfbench` (its own package)
in release mode into $CARGO_TARGET_DIR (default `.bench_build`), then
runs the benchmark binary with the given arguments plus the server's
path. The last stdout line is the benchmark's JSON result.
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

# Per-run wall-time cap, under the 180 s the result is wanted within.
RUN_TIMEOUT_S = 170


def source_fingerprint(root):
    """Git commit when available, plus a hash of the sources that are built."""
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "perfbench"):
        files += sorted(
            p for p in (root / top).rglob("*")
            if p.suffix in (".rs", ".toml", ".lock", ".py") and "target" not in p.parts
        )
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "no-git"
    return f"{commit}/tree-{digest.hexdigest()[:12]}"


def main():
    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "serve").is_dir():
        sys.exit("perfbench: run from the repository root (Cargo.toml and crates/ not found)")
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "amoe-serve", "--bin", "amoe-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    env["PERFBENCH_SOURCE"] = source_fingerprint(root)
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--server", str(target / "release" / "amoe-serve")]
    # A process group of its own, so a timeout also stops the server
    # child it started.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(130)


if __name__ == "__main__":
    main()
