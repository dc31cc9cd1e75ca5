"""kpert benchmark: one workload per invocation, run from the repo root.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from --seed under .bench_out/NAME/, runs
its op list in fresh child processes (benchmarks/child.py), one at a
time, checks every output against an independent oracle
(benchmarks/oracles.py) and that every child wrote byte-identical
outputs, and prints a table of every metric, then, as the last line, one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs the op list in SUBRUNS untraced children and reports the
end-to-end metrics of BENCHMARK.json.  The host's speed changes by up to
a factor of two for seconds or minutes at a time, so each child times a
fixed speed probe between its ops and the loop and op times are scaled
to the probe's reference time (see scaled_times); wall_s is the median
child's scaled loop and op_p50_s the median over ops of each op's median
scaled time.  --trace 1 runs it once traced and once untraced and
reports the per-layer metrics and the tracing overhead.  See
benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 170.0        # the whole run, children included


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("KP_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(work: Path, mode: str, env, root, deadline) -> dict:
    """Run the op list in a fresh child; its outputs go to work/mode."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a child")
    result = work / f"{mode}.result.json"
    args = [sys.executable, str(BENCH_DIR / "child.py"),
            "--ops", str(work / "ops.json"), "--out", str(work / mode),
            "--result", str(result)] + (["--trace"] if mode == "traced" else [])
    proc = subprocess.run(args, env=env, cwd=root, capture_output=True,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr}")
    child = json.loads(result.read_text())
    src = (root / "src").resolve()
    if Path(child["kpert_file"]).resolve().parent.parent != src:
        raise RuntimeError(f"child imported kpert from {child['kpert_file']}, "
                           f"not from {src}")
    return child


def _out_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _differing_outputs(a: Path, b: Path):
    """Relative paths whose bytes differ (or exist on one side only)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(p) for p in files_a ^ files_b) + sorted(
        str(p) for p in files_a & files_b
        if (a / p).read_bytes() != (b / p).read_bytes())


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# Scaled times read as seconds on a host where one speed probe (see
# child.py) takes PROBE_REF_S, its median on the reference host.
PROBE_REF_S = 0.012


def scaled_times(child):
    """(per-op times, loop wall) of one child, scaled to the reference
    speed.  Each op is scaled by the mean of the probes just before and
    just after it; the loop's time outside the op timers (probes already
    excluded) by the child's median probe."""
    probes = child["speed_probe_s"]
    ops = [r["seconds"] * 2.0 * PROBE_REF_S
           / (probes[r["speed_probe"]] + probes[r["speed_probe"] + 1])
           for r in child["ops"]]
    between = child["loop_wall_s"] - sum(r["seconds"] for r in child["ops"])
    return ops, sum(ops) + between * PROBE_REF_S / statistics.median(probes)


def scaled_setup(child):
    """Set-up time scaled by the median of the first three probes, the
    nearest ones: set-up imports numpy, which a probe needs, so none can
    run before it."""
    return child["setup_s"] * PROBE_REF_S / statistics.median(
        child["speed_probe_s"][:3])


def end_to_end(children) -> dict:
    """Medians over children of the scaled set-up and loop wall times;
    op_p50_s is the median over ops of each op's median scaled time."""
    scaled = [scaled_times(c) for c in children]
    per_op = [statistics.median(times)
              for times in zip(*(ops for ops, _ in scaled))]
    return {
        "setup_s": (statistics.median(scaled_setup(c) for c in children),
                    "s"),
        "wall_s": (statistics.median(wall for _, wall in scaled), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children),
                        "MB"),
    }


def result_metrics(tally) -> dict:
    """The correctness side of the end-to-end list: seed-dependent or zero
    on some workloads, so reported but not bounded.  A workload that issues
    no certificate reports cert_valid_frac 1; one with no converged series
    result reports errbar_miss_frac 0."""
    valid = tally.cert_valid_frac
    miss = tally.errbar_miss_frac
    return {
        "result.fail_frac": (tally.fail_frac, "fraction"),
        "result.cert_valid_frac": (1.0 if valid is None else valid, "fraction"),
        "result.oracle_max_rel_err": (tally.max_rel_err, "ratio"),
        "result.errbar_miss_frac": (0.0 if miss is None else miss, "fraction"),
    }


def per_layer(traced, untraced, tally, out_bytes) -> dict:
    m = {k: (v, "s" if k.endswith(("_s", ".s")) else "count")
         for k, v in traced["trace"].items()}
    m["perturbation.engine_reuse_ratio"] = (
        m["perturbation.engine_reuse_ratio"][0], "ratio")
    m["spacetime.points_per_call"] = (m["spacetime.points_per_call"][0], "ratio")
    m["cli.out_bytes"] = (out_bytes, "B")
    for status, n in tally.certs.items():
        m[f"bounds.certs.{status}"] = (n, "count")
    traced_wall = scaled_times(traced)[1]
    untraced_wall = scaled_times(untraced)[1]
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "fraction")
    m.update(result_metrics(tally))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_run = time.monotonic()
    deadline = t_run + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "kpert" / "cli.py").is_file():
        print(f"error: {root} holds no kpert sources (src/kpert); run from "
              "the repository root", file=sys.stderr)
        return 2
    work = root / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, hashes = workloads.generate(args.workload, args.seed, args.seconds,
                                     work / "inputs")
    (work / "ops.json").write_text(json.dumps(ops, indent=1), encoding="utf-8")
    env = _child_env(root)

    modes = ["traced", "untraced"] if args.trace else \
        [f"run{i}" for i in range(workloads.SUBRUNS)]
    try:
        children = [_run_child(work, m, env, root, deadline) for m in modes]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    diff = [f"{m}/{p}" for m in modes[1:]
            for p in _differing_outputs(work / modes[0], work / m)]

    child, out_root = children[0], work / modes[0]
    tally = oracles.check_run(ops, child, out_root)
    if args.trace:
        metrics = per_layer(child, children[1], tally, _out_bytes(out_root))
        table = metrics
    else:
        metrics = end_to_end(children)
        table = dict(metrics)
        table.update(result_metrics(tally))
    correct = tally.correct and not diff

    timed = len(child["ops"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{timed} timed ops ({workloads.passes_for(args.workload, args.seconds)}"
          f" passes) in {len(modes)} children, {tally.probes} probes")
    print(f"  why: {workloads.WHY[args.workload]}")
    for name, (value, unit) in table.items():
        print(f"  {name:<40} {_fmt(value):>14} {unit}")
    probe_s = statistics.median(p for c in children for p in c["speed_probe_s"])
    print(f"  speed probe median {probe_s * 1e3:.3f} ms over {len(children)} "
          f"children (times above scaled to {PROBE_REF_S * 1e3:g} ms)")
    print(f"  op count {timed}; failed {tally.failed}/{tally.attempted} timed, "
          f"{tally.probes_failed}/{tally.probes} probes; oracle checks "
          f"{tally.rel_err_count}; errbar misses {tally.errbar_miss}/"
          f"{tally.converged} converged")
    for op_id, msg in tally.failures:
        print(f"  FAILED {op_id}: {msg}")
    for op_id, msg in tally.wrong:
        print(f"  WRONG  {op_id}: {msg}")
    if diff:
        print(f"  outputs differ from {modes[0]}: {diff[:5]}")

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(root),
        "versions": child["versions"], "platform": platform.platform(),
        "config_sha256": hashes, "wall_s": time.monotonic() - t_run,
        "why": workloads.WHY[args.workload],
    }
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                        encoding="utf-8")
    report = {"metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in table.items()},
              "speed_probe_median_s": probe_s,
              "failures": tally.failures, "wrong": tally.wrong,
              "output_diff": diff}
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n",
                                      encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
