#!/usr/bin/env python3
"""Require byte-identical sidecars from two runs of a bench binary.

Default mode runs the given bench binary twice — with --jobs 1 and
--jobs N (default 8) — each time with event tracing armed
(CSD_TRACE=all, exported to a per-context file via "%c") and channel
heatmap export armed (CSD_CHANNEL_HEATMAP_DIR), and demands the two
JSON sidecars be byte-identical after normalizing exactly one subtree:
manifest.phases, the host wall-time attribution, which is the only
legitimately nondeterministic content. Any other difference (reordered
stats, rows filled by worker threads out of case order, a
--jobs-dependent config_hash) is a bug and fails the check.

With --env NAME=V1,V2 the two runs instead differ in one environment
variable (same --jobs for both): NAME=V1 vs NAME=V2. This is how CI
pins host-side performance switches to the simulated output — e.g.
`--env CSD_SUPERBLOCK=0,1` demands the superblock threaded-code tier
change nothing observable. Tracing is NOT forced in this mode: the
tier (like any future fast path) legitimately disengages under
tracing, so forcing CSD_TRACE=all would compare two interpreter runs
and prove nothing. Heatmap export stays armed — channel observations
derive from simulated state and must be identical too. The harnesses'
"host caches:" stdout line (flow-cache hit rate, superblock uop
coverage) reports exactly what such a switch changes, so this mode
leaves it out of the stdout comparison.

Heatmap exports (memory/set_monitor.hh CSV/JSON files written under
CSD_CHANNEL_HEATMAP_DIR) use case-derived file names, so the same set
of files with byte-identical contents must appear in both runs.
Harnesses without a channel monitor export nothing, which trivially
passes.

Usage: check_sidecar_determinism.py <bench-binary> [--jobs N]
           [--env NAME=V1,V2] [args...]

Exit code 0 on success; nonzero with a diagnostic otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile


def fail(msg):
    print(f"check_sidecar_determinism: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


# Host-cache engagement summary printed by every figure harness
# (bench_util.cc benchNoteEngagement): host-side by design.
ENGAGEMENT_PREFIX = "host caches:"


def run_once(bench, jobs, args, tmpdir, label=None, env_override=None):
    label = label or f"jobs{jobs}"
    path = os.path.join(tmpdir, f"sidecar_{label}.json")
    heatmap_dir = os.path.join(tmpdir, f"heatmaps_{label}")
    os.makedirs(heatmap_dir, exist_ok=True)
    env = dict(os.environ)
    if env_override is None:
        env["CSD_TRACE"] = "all"
        env["CSD_TRACE_FILE"] = os.path.join(
            tmpdir, f"trace_{label}_%c.json"
        )
    else:
        # --env mode: the variable under test is the only delta, and
        # tracing stays off (it would disengage the very fast paths
        # whose output-neutrality is being checked).
        env.update(env_override)
    env["CSD_CHANNEL_HEATMAP_DIR"] = heatmap_dir
    proc = subprocess.run(
        [bench, "--json", path, "--jobs", str(jobs)] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        timeout=600,
    )
    if proc.returncode != 0:
        fail(f"{bench} --jobs {jobs} exited {proc.returncode}:\n{proc.stdout}")
    with open(path, "rb") as f:
        raw = f.read()
    # Per-context trace exports ("info: trace: wrote N events to
    # trace_jobs8_3.json") legitimately depend on how work lands on
    # worker contexts; the determinism contract covers everything else.
    lines = [
        ln
        for ln in proc.stdout.splitlines()
        if "trace: wrote" not in ln
        and not (env_override and ln.startswith(ENGAGEMENT_PREFIX))
    ]
    heatmaps = {}
    for name in sorted(os.listdir(heatmap_dir)):
        with open(os.path.join(heatmap_dir, name), "rb") as f:
            heatmaps[name] = f.read()
    return raw, "\n".join(lines), heatmaps


def normalize(raw, label):
    """Reserialize with manifest.phases zeroed; everything else intact."""
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        fail(f"{label}: sidecar is not valid JSON: {e}")
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict) or "phases" not in manifest:
        fail(f"{label}: sidecar missing manifest.phases")
    manifest["phases"] = {}
    return json.dumps(doc, sort_keys=False, indent=1)


def parse_env_spec(spec):
    """Split 'NAME=V1,V2' into (NAME, V1, V2)."""
    if "=" not in spec:
        fail(f"--env needs NAME=V1,V2, got '{spec}'")
    name, _, values = spec.partition("=")
    parts = values.split(",")
    if len(parts) != 2 or not name:
        fail(f"--env needs NAME=V1,V2, got '{spec}'")
    return name, parts[0], parts[1]


def main():
    argv = sys.argv[1:]
    if not argv:
        fail(
            "usage: check_sidecar_determinism.py <bench> [--jobs N] "
            "[--env NAME=V1,V2] [args...]"
        )
    bench = argv[0]
    argv = argv[1:]
    jobs = 8
    env_spec = None
    while argv:
        if len(argv) >= 2 and argv[0] == "--jobs":
            jobs = int(argv[1])
            argv = argv[2:]
        elif len(argv) >= 2 and argv[0] == "--env":
            env_spec = parse_env_spec(argv[1])
            argv = argv[2:]
        else:
            break

    with tempfile.TemporaryDirectory(prefix="sidecar_det_") as tmpdir:
        if env_spec is None:
            label_a, label_b = "--jobs 1", f"--jobs {jobs}"
            first, out1, maps1 = run_once(bench, 1, argv, tmpdir)
            second, outn, mapsn = run_once(bench, jobs, argv, tmpdir)
        else:
            name, v1, v2 = env_spec
            label_a, label_b = f"{name}={v1}", f"{name}={v2}"
            first, out1, maps1 = run_once(
                bench, jobs, argv, tmpdir,
                label=f"{name}_{v1}", env_override={name: v1},
            )
            second, outn, mapsn = run_once(
                bench, jobs, argv, tmpdir,
                label=f"{name}_{v2}", env_override={name: v2},
            )

        if sorted(maps1) != sorted(mapsn):
            fail(
                f"heatmap file sets differ between {label_a} and "
                f"{label_b}:\n  {label_a}: {sorted(maps1)}\n"
                f"  {label_b}: {sorted(mapsn)}"
            )
        for name, blob in maps1.items():
            if mapsn[name] != blob:
                fail(
                    f"heatmap export '{name}' is not byte-identical "
                    f"between {label_a} and {label_b}"
                )

        if out1 != outn:
            for a, b in zip(out1.splitlines(), outn.splitlines()):
                if a != b:
                    fail(
                        f"stdout differs between {label_a} and {label_b}:\n"
                        f"  {label_a}: {a}\n  {label_b}: {b}"
                    )
            fail(f"stdout length differs between {label_a} and {label_b}")

        norm1 = normalize(first, label_a)
        normn = normalize(second, label_b)
        if norm1 != normn:
            for a, b in zip(norm1.splitlines(), normn.splitlines()):
                if a != b:
                    fail(
                        f"sidecars differ beyond manifest.phases:\n"
                        f"  {label_a}: {a}\n  {label_b}: {b}"
                    )
            fail("sidecars differ in length beyond manifest.phases")

        # The raw bytes must match too once phases are the only delta:
        # reserialize both untouched docs and compare — this catches
        # formatting nondeterminism json.loads() would mask.
        heatmap_note = f", {len(maps1)} heatmap file(s) byte-identical"
        if json.dumps(json.loads(first)) == json.dumps(json.loads(second)):
            print(
                "check_sidecar_determinism: OK: "
                f"{os.path.basename(bench)} {label_a} vs {label_b}: "
                "sidecars byte-identical up to manifest.phases"
                + heatmap_note
            )
        else:
            print(
                "check_sidecar_determinism: OK: "
                f"{os.path.basename(bench)} {label_a} vs {label_b}: "
                "sidecars identical after normalizing manifest.phases"
                + heatmap_note
            )


if __name__ == "__main__":
    main()
