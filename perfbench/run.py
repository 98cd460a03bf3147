"""rmp benchmark: time the ``rmp`` CLI on one workload and check every output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The run starts fresh child processes (``child.py``) one after another
until ``--seconds`` are used up.  Each child imports ``rmp.cli`` and loads
the workload's specs -- the parent times that from spawn as ``setup_s``
-- then runs the workload's commands through ``rmp.cli.main``.  The parent
reads each child's peak RSS from ``wait4`` and checks every command's
output (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the children.  ``--trace 1`` alternates untraced and traced children;
it reports the per-layer metrics (medians over the traced children), the
tracing overhead (traced minus untraced wall), and writes the spans to
``perfbench/.work/trace-<workload>-<seed>.json``.

Every metric is printed as a table (median, highest percentile with at
least ten children beyond it, child count) followed by a provenance line.
The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"

# A run must end within 180 s: no child is started or allowed to run past this.
HARD_LIMIT_S = 150.0
POLL_S = 0.005


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for ``proc`` (killing it at ``deadline``); returns its rusage."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if _clock() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(plan_path: Path, run_dir: Path, index: int, deadline: float) -> dict:
    """Run one child on a plan; returns its measured and reported results."""
    result_path = run_dir / f"result-{index}.json"
    log_path = run_dir / f"child-{index}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        spawn = _clock()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(plan_path), str(result_path)],
            stdin=subprocess.DEVNULL, stdout=log, stderr=log, cwd=ROOT,
        )
        try:
            usage = _reap(proc, deadline)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.waitpid(proc.pid, 0)
                proc.returncode = -9
    child = {"exit": proc.returncode, "rss_mib": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and result_path.exists():
        with open(result_path, encoding="utf-8") as f:
            reported = json.load(f)
        child["setup_s"] = reported["ready"] - spawn
        child["commands"] = reported["commands"]
        child["spans"] = reported["spans"]
    else:
        child["log"] = log_path.read_text(encoding="utf-8")[-2000:]
    return child


def _complete(child: dict) -> bool:
    return "commands" in child and all(c["rc"] == 0 for c in child["commands"])


def _median(values) -> float:
    return statistics.median(values)


def tail_percentile(values, better: str):
    """(percentile, value): the highest percentile with >= 10 values beyond it.

    "Beyond" is on the worse side.  (None, None) for fewer than 11 values.
    """
    n = len(values)
    if n < 11:
        return None, None
    worst_last = sorted(values, reverse=(better == "higher"))
    i = n - 11
    return 100 * (i + 1) // n, worst_last[i]


def _rate(child: dict, wl: workloads.Workload, kind: str):
    """Work per second of the commands of one kind, or None if there are none."""
    pairs = [
        (cmd.work, out["seconds"])
        for cmd, out in zip(wl.commands, child["commands"]) if cmd.kind == kind
    ]
    if not pairs:
        return None
    return sum(w for w, _ in pairs) / sum(s for _, s in pairs)


def _wall(child: dict) -> float:
    return sum(c["seconds"] for c in child["commands"])


# -- provenance -----------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rmp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, nproc: int) -> dict:
    import numpy
    import scipy

    import rmp
    from rmp.distributions import make_stream
    from rmp.estimators import SAMPLE_CHUNK
    from rmp.product import CHAIN_CHUNK, STEP_BLOCK

    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
        "rmp_version": rmp.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "SAMPLE_CHUNK": SAMPLE_CHUNK,
        "CHAIN_CHUNK": CHAIN_CHUNK,
        "STEP_BLOCK": STEP_BLOCK,
        "bit_generator": type(make_stream(0).bit_generator).__name__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# -- aggregation -------------------------------------------------------------------

def end_to_end(wl, children, attempted: int, failed: int) -> dict:
    """Per-child samples of every end-to-end figure (None where it does not apply)."""
    return {
        "wall_s": [_wall(c) for c in children],
        "estimate_samples_per_s": [_rate(c, wl, "estimate") for c in children],
        "clt_steps_per_s": [_rate(c, wl, "clt") for c in children],
        "setup_s": [c["setup_s"] for c in children],
        "peak_rss_mib": [c["rss_mib"] for c in children],
        "error_rate": [failed / attempted],
        "success_rate": [(attempted - failed) / attempted],
    }


E2E_TABLE = (
    ("wall_s", "s", "lower"),
    ("estimate_samples_per_s", "1/s", "higher"),
    ("clt_steps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("error_rate", "ratio", "lower"),
    ("success_rate", "ratio", "higher"),
)


def layer_report(wl, timed, reference):
    """(per-child samples of each per-layer metric, count mismatches, accounting)."""
    traced = [c for c in timed if c["traced"]]
    untraced = [c for c in timed if not c["traced"]]
    per_child = [tracing.layer_metrics(c["spans"]) for c in traced]
    samples = {k: [m[k] for m in per_child] for k in per_child[0]}
    samples["trace.overhead_s"] = [
        _median([_wall(c) for c in traced]) - _median([_wall(c) for c in untraced])
    ]
    for kind, name in (("estimate", "cli.estimate_samples_per_s"), ("clt", "cli.clt_steps_per_s")):
        rates = [_rate(c, wl, kind) for c in untraced]
        samples[name] = rates if rates[0] is not None else [0.0]
    samples["parallel.thread_efficiency"] = [1.0]
    counted = list(per_child)
    if reference is not None:
        ref = tracing.layer_metrics(reference["spans"])
        counted.append(ref)
        samples["parallel.thread_efficiency"] = [
            ref["product.chain_s"] / (wl.threads * _median(samples["product.chain_s"]))
        ]
    mismatches = [
        f"{k} differs between children: {sorted({m[k] for m in counted})}"
        for k in tracing.EXACT_COUNTS if len({m[k] for m in counted}) > 1
    ]
    shares = [
        sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) / m["trace.wall_s"]
        for m in per_child
    ]
    accounting = (
        f"layer self times sum to {min(shares):.4%}..{max(shares):.4%} of the traced "
        f"wall_s over {len(shares)} traced children"
        + (" (pool threads overlap, so busy time exceeds wall)" if wl.threads > 1 else "")
    )
    return samples, mismatches, accounting


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def print_table(samples: dict, declared: dict, rows) -> None:
    print(f"{'metric':<30} {'unit':<6} {'median':>12} {'tail':>22} {'runs':>5}")
    for name, unit, better in rows:
        values = [v for v in samples[name] if v is not None]
        if not values:
            print(f"{name:<30} {unit:<6} {'n/a (not run by this workload)':>41}")
            continue
        pct, tail = tail_percentile(values, better)
        tail_txt = f"p{pct} {_fmt(tail)}" if pct is not None else "n/a (needs 11 runs)"
        flag = "" if name in declared else "  (table only)"
        print(
            f"{name:<30} {unit:<6} {_fmt(_median(values)):>12} {tail_txt:>22} "
            f"{len(values):>5}{flag}"
        )


# -- main -----------------------------------------------------------------------------

def collect(wl, args, run_dir: Path):
    """Run children until --seconds are used; returns (timed children, reference).

    With --trace 1 untraced and traced children alternate.  The reference
    child (clt-threads only) runs after the timed ones at the reference
    thread count; its output is checked, not timed.
    """
    start = _clock()
    deadline = start + HARD_LIMIT_S
    spec_paths = {}
    for key in {cmd.spec for cmd in wl.commands}:
        spec_paths[key] = run_dir / f"{key}.json"
        spec_paths[key].write_text(json.dumps(workloads.SPECS[key]), encoding="utf-8")
    index = itertools.count()

    def child(threads: int, traced: bool) -> dict:
        i = next(index)
        plan_path = run_dir / f"plan-{i}.json"
        plan_path.write_text(json.dumps({
            "src": str(SRC),
            "specs": [str(p) for p in spec_paths.values()],
            "commands": [
                cmd.argv(str(spec_paths[cmd.spec]), args.seed, threads) for cmd in wl.commands
            ],
            "trace": traced,
        }), encoding="utf-8")
        c = run_child(plan_path, run_dir, i, deadline)
        c.update(threads=threads, traced=traced)
        return c

    timed = []
    min_children = 4 if args.trace else 3
    longest = 0.0
    while _clock() < deadline:
        t0 = _clock()
        timed.append(child(wl.threads, bool(args.trace) and len(timed) % 2 == 1))
        longest = max(longest, _clock() - t0)
        used = _clock() - start
        if len(timed) >= min_children and used + longest > args.seconds:
            break
        if used + longest > HARD_LIMIT_S:
            break
    reference = None
    if wl.reference_threads is not None:
        reference = child(wl.reference_threads, bool(args.trace))
    return timed, reference


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rmp" / "cli.py").is_file():
        print(f"error: no rmp source tree at {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    sys.path.insert(0, str(SRC))

    nproc = len(os.sched_getaffinity(0))
    wl = workloads.build(args.workload, args.smoke, nproc)
    refs = {cmd.spec: workloads.reference_values(cmd.spec) for cmd in wl.commands}
    prov = provenance(args, nproc)

    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        timed, reference = collect(wl, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    children = timed + ([reference] if reference is not None else [])

    attempted, failed, reasons = workloads.score(wl, children, refs)
    for c in children:
        if "log" in c:
            reasons.append(f"child exited {c['exit']}: {c['log'].strip()[-400:]}")
    timed = [c for c in timed if _complete(c)]
    if {c["traced"] for c in timed} != ({False, True} if args.trace else {False}):
        for r in reasons:
            print(r, file=sys.stderr)
        print("error: too few children completed to report metrics", file=sys.stderr)
        return 1
    if reference is not None and not _complete(reference):
        reference = None

    print(
        f"rmp benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} children={len(children)} "
        f"threads={wl.threads}"
    )
    correct = failed == 0
    if args.trace:
        declared = {m["name"]: m for m in bench["per_layer"]}
        samples, mismatches, accounting = layer_report(wl, timed, reference)
        if mismatches:
            correct = False
            reasons.extend(mismatches)
        print_table(
            samples, declared, [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        )
        print(accounting)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "provenance": prov,
            "children": [
                {k: c[k] for k in ("threads", "traced", "spans")}
                for c in children if _complete(c) and c["traced"]
            ],
        }), encoding="utf-8")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        declared = {m["name"]: m for m in bench["end_to_end"]}
        samples = end_to_end(wl, timed, attempted, failed)
        print_table(samples, declared, E2E_TABLE)
        print(f"rates are over {attempted} commands, {failed} failed")

    for r in reasons:
        print(f"FAILED {r}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    metrics = {
        name: {"value": _median(samples[name]), "unit": m["unit"]}
        for name, m in declared.items()
    }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
