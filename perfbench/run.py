#!/usr/bin/env python3
"""Builds the DMac benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload gnmf --seed 1 --seconds 10 --trace 0

The program (perfbench/dmac_perfbench.cc) is configured and built with CMake
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. Build output goes to stderr, so the last stdout line is
the program's result JSON. Every argument is passed to the program, which runs
inside the build directory and keeps its checkpoint directories there.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
# The program must end within this many seconds; the build is not counted.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the program; returns its path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "dmac_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return build_dir / "dmac_perfbench"


def revision():
    """The git commit when the checkout is a git work tree, plus a digest
    of the sources the program is built from (always available)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((REPO / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(REPO)).encode())
                digest.update(path.read_bytes())
    rev = "src-sha256:" + digest.hexdigest()[:16]
    if (REPO / ".git").exists():
        git = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = "git:" + git.stdout.strip()[:12] + "," + rev
    return rev


def main():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve()
    binary = build(build_dir)
    if binary is None:
        return 1
    cmd = [str(binary), *sys.argv[1:], "--revision", revision()]
    proc = subprocess.Popen(cmd, cwd=build_dir)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: program exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
