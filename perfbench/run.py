#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper-home --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library sources under src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs only re-check the build. The vp_perfbench binary prints
its checks, the virtual-time digest and, as the last stdout line, the
result JSON. A traced run (--trace 1) also writes a Chrome-trace file
next to the build.

Extra flags are passed through: --tiny (self-test scale) and
--verify-engines (the sequential vs parallel engine cross-check).
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from the repository root")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    # Build output goes to stderr: stdout ends with the result line.
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    step = ["cmake", "--build", str(out), "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    binary = out / "vp_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--verify-engines", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if args.verify_engines:
        command = [str(binary), "--verify-engines", "--seed", str(args.seed)]
    else:
        if not args.workload:
            fail("--workload is required")
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", args.trace]
        if args.trace == "1":
            traces = out / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            command += ["--trace-out",
                        str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        command.append("--tiny")
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
