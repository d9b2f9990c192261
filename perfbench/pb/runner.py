"""Environment pinning, the build, and child processes of the benchmark."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = ".bench_build"
BUILD_TYPE = "RelWithDebInfo"


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad build, ...)."""


def pin_environment():
    """Clear every CSD_* knob for this process and its children.

    Returns the names that were set, so they can be reported: a stray
    CSD_SUPERBLOCK=0 or CSD_HOST_PROFILE=1 must not skew a number.
    """
    cleared = sorted(k for k in os.environ if k.startswith("CSD_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def host_info():
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = -1.0
    return {"nproc": os.cpu_count() or 1, "loadavg_1m_at_start": load}


def check_sources(root):
    for rel in ("CMakeLists.txt", "src/CMakeLists.txt",
                "bench/CMakeLists.txt"):
        if not (root / rel).is_file():
            raise BenchError(f"simulator sources missing: {rel} not found "
                             f"under {root}")


def build(root, bench_dir):
    """Configure (once) and build perf_driver plus the figure harnesses."""
    check_sources(root)
    build_dir = root / BUILD_DIR
    log = build_dir / "perfbench-build.log"
    build_dir.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(log, "a") as out:
        if not (build_dir / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            _checked([
                "cmake", *gen, "-S", str(bench_dir), "-B", str(build_dir),
                f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", "-DCSD_SANITIZE=OFF",
            ], out, log)
        _checked(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_all", "-j", jobs], out, log)
    return build_dir


def _checked(cmd, out, log):
    out.write("$ " + " ".join(cmd) + "\n")
    out.flush()
    if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
        tail = log.read_text(errors="replace").splitlines()[-30:]
        raise BenchError("build failed:\n" + "\n".join(tail))


def check_build(build_dir, info):
    """Refuse Debug and sanitizer builds: their numbers mean nothing."""
    build_type = info.get("build_type", "")
    flags = info.get("build_flags", "")
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing a {build_type or 'untyped'} build")
    if "-fsanitize" in flags:
        raise BenchError(f"refusing a sanitizer build ({flags})")
    cache = (build_dir / "CMakeCache.txt").read_text(errors="replace")
    m = re.search(r"^CSD_SANITIZE:\w+=(.*)$", cache, re.M)
    if m and m.group(1).strip().upper() not in ("OFF", "", "FALSE", "0"):
        raise BenchError(f"refusing a sanitizer build "
                         f"(CSD_SANITIZE={m.group(1)})")


def run_child(cmd, stdout_path, cwd=None):
    """Run one child to completion; returns (exit code, peak RSS MB).

    The child is waited for with wait4, so its peak RSS is its own.
    """
    with open(stdout_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE,
                                cwd=cwd)
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_driver(build_dir, args, out_path):
    """Run perf_driver; returns (records, peak RSS MB)."""
    code, rss = run_child([str(build_dir / "perf_driver"), *args], out_path)
    if code:
        raise BenchError(f"perf_driver {' '.join(args[:1])} exited {code}")
    with open(out_path) as f:
        return [json.loads(line) for line in f if line.strip()], rss


def harness_path(build_dir, binary):
    return build_dir / "csd" / "bench" / binary


def write_chrome_trace(path, spans):
    """Spans as Chrome trace-event JSON (open in chrome://tracing)."""
    events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
               "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
               "args": {"id": s["id"], "parent": s["parent"]}}
              for s in spans]
    Path(path).write_text(json.dumps({"traceEvents": events}))


def self_times(spans):
    """Self time per span name: duration minus the time of its children."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + \
                s["end"] - s["start"]
    out = {}
    for s in spans:
        name = s["name"].split(":")[0]
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        out[name] = out.get(name, 0.0) + own
    return out

