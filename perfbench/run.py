#!/usr/bin/env python3
"""Build and run the hsyn end-to-end synthesis benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hier-power --seed 1 --seconds 20 --trace 0

The first run builds the hsyn library with the repository's own CMake
project (its default build type) and the perfbench binary against it,
under $CARGO_TARGET_DIR (default .bench_build). Build output goes to
stderr. The binary's stdout passes through; its last line is the JSON
result. Extra arguments (--threads, --designs, --passes, --fingerprints)
are forwarded to the binary.
"""
import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hier-power", "flat-area", "serve-sweep")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return out if out.is_absolute() else ROOT / out


def quiet(cmd):
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build_type(lib_dir):
    """The library's build type: the cache entry, else the repo default."""
    cache = (lib_dir / "CMakeCache.txt").read_text(errors="replace")
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(\w+)$", cache, re.M)
    if m:
        return m.group(1)
    top = (ROOT / "CMakeLists.txt").read_text(errors="replace")
    m = re.search(r"set\(\s*CMAKE_BUILD_TYPE\s+(\w+)\s*\)", top)
    return m.group(1) if m else "default"


def build():
    """Build libhsyn and the benchmark; return (binary path, build type)."""
    jobs = str(os.cpu_count() or 1)
    out = build_root()
    lib_dir = out / "hsyn"
    if not (lib_dir / "CMakeCache.txt").exists():
        quiet(["cmake", "-S", str(ROOT), "-B", str(lib_dir)])
    quiet(["cmake", "--build", str(lib_dir), "--target", "hsyn", "-j", jobs])
    libs = sorted(lib_dir.rglob("libhsyn.a"))
    if not libs:
        raise RuntimeError(f"no libhsyn.a under {lib_dir}")
    btype = build_type(lib_dir)
    bench_dir = out / "perfbench"
    if not (bench_dir / "CMakeCache.txt").exists():
        quiet(["cmake", "-S", str(HERE), "-B", str(bench_dir),
               f"-DHSYN_LIBRARY={libs[0]}", f"-DCMAKE_BUILD_TYPE={btype}"])
    quiet(["cmake", "--build", str(bench_dir), "-j", jobs])
    return bench_dir / "perfbench", btype


def source_id():
    """Git commit when the checkout is a repository, else a hash of the
    library sources and build files."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "src-sha256-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no hsyn sources under {ROOT}; nothing to build")
        return 2
    try:
        binary, btype = build()
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    work = build_root() / "run"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, ROOT),
           "--commit", source_id(), "--build-type", btype] + extra
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
