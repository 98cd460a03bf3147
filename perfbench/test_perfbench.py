"""Tests of the benchmark itself: python -m pytest perfbench

The smoke runs use tiny sizes; they check that every metric named in
BENCHMARK.json is printed with its unit.  The negative cases feed
corrupted outputs to the same scoring code the benchmark uses.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    p = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, p.stderr
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    table = "\n".join(lines[:-1])
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']:<30} {m['unit']:<6}" in table
    if trace == "0":
        for name in ("estimate_samples_per_s", "clt_steps_per_s", "error_rate"):
            assert name in table
    assert '"bit_generator": "Philox"' in table


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    p = _bench(tmp_path, "--workload", "discrete", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


# -- negative cases ------------------------------------------------------------------

def _child(wl, seed=5, threads=1):
    """A child result produced in-process by rmp.cli.main at smoke size."""
    import rmp.cli

    commands = []
    for cmd in wl.commands:
        out = io.StringIO()
        with _spec_file(workloads.SPECS[cmd.spec]) as path:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = rmp.cli.main(cmd.argv(path, seed, threads))
        commands.append({"rc": rc, "seconds": 1.0, "stdout": out.getvalue(), "error": None})
    return {"exit": 0, "threads": threads, "traced": False, "commands": commands}


@contextlib.contextmanager
def _spec_file(spec):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "spec.json"
        path.write_text(json.dumps(spec))
        yield str(path)


def _refs(wl):
    return {cmd.spec: workloads.reference_values(cmd.spec) for cmd in wl.commands}


def test_clean_outputs_pass():
    wl = workloads.build("discrete", smoke=True, nproc=1)
    attempted, failed, reasons = workloads.score(wl, [_child(wl), _child(wl)], _refs(wl))
    assert (attempted, failed, reasons) == (4, 0, [])


def test_lambda_shifted_by_ten_se_is_a_failure():
    wl = workloads.build("mc-continuous", smoke=True, nproc=1)
    child = _child(wl)
    out = child["commands"][0]
    doc = json.loads(out["stdout"])
    doc["lambda"]["value"] += 10 * doc["lambda"]["std_error"]
    out["stdout"] = json.dumps(doc, indent=2) + "\n"
    attempted, failed, reasons = workloads.score(wl, [child], _refs(wl))
    assert (attempted, failed) == (2, 1)
    assert "lambda" in reasons[0] and "SE" in reasons[0]


def test_changed_stdout_hash_is_a_failure():
    wl = workloads.build("clt-threads", smoke=True, nproc=2)
    first, second = _child(wl, threads=2), _child(wl, threads=1)
    # same values, different bytes: only the determinism check can see it
    doc = json.loads(second["commands"][0]["stdout"])
    second["commands"][0]["stdout"] = json.dumps(doc) + "\n"
    attempted, failed, reasons = workloads.score(wl, [first, second], _refs(wl))
    assert (attempted, failed) == (2, 1)
    assert "SHA-256" in reasons[0]


def test_threads_do_not_change_stdout():
    wl = workloads.build("clt-threads", smoke=True, nproc=2)
    children = [_child(wl, threads=2), _child(wl, threads=1)]
    assert workloads.score(wl, children, _refs(wl))[1] == 0


def test_exit_code_wrong_ks_and_missing_field_are_failures():
    wl = workloads.build("clt-continuous", smoke=True, nproc=1)
    crashed = _child(wl)
    crashed["commands"][0]["rc"] = 1
    wide = _child(wl)
    doc = json.loads(wide["commands"][0]["stdout"])
    doc["ks_distance"] = 0.9
    wide["commands"][0]["stdout"] = json.dumps(doc, indent=2) + "\n"
    truncated = _child(wl)
    truncated["commands"][0]["stdout"] = '{"n": 200}'
    attempted, failed, reasons = workloads.score(wl, [crashed, wide, truncated], _refs(wl))
    assert (attempted, failed) == (3, 3)
    assert "exit code 1" in reasons[0] and "KS distance" in reasons[1]
    assert "lacks the field" in reasons[2]


# -- trace analysis --------------------------------------------------------------------

def _span(sid, parent, name, start, end, **attrs):
    return {"id": sid, "parent": parent, "request": 0, "name": name,
            "start": start, "end": end, "attrs": attrs}


def _traced_child(n_triples):
    spans = [
        _span(1, 0, "cli.main", 0.0, 10.0),
        _span(2, 1, "estimators.estimate_lambda_mc", 1.0, 9.0, samples=100, minus_inf_events=0),
        _span(3, 2, "parallel.map_chunks", 2.0, 8.0, chunks=1, threads=2),
        _span(4, 3, "estimators.chunk", 2.0, 6.0),
        _span(5, 3, "estimators.chunk", 3.0, 7.5),
        _span(6, 4, "distributions.sample_triples", 2.0, 3.0, n=n_triples),
    ]
    commands = [{"rc": 0, "seconds": 10.0, "stdout": "", "error": None}]
    return {"traced": True, "spans": spans, "commands": commands}


def test_self_times_cover_the_root_span_and_overlap_under_threads():
    selfs = tracing.self_times(_traced_child(500)["spans"])
    # map_chunks [2, 8] minus the union [2, 7.5] of its overlapping chunks
    assert selfs["parallel"] == pytest.approx(0.5)
    assert selfs["cli"] == pytest.approx(2.0)
    assert selfs["estimators"] == pytest.approx(2.0 + 3.0 + 4.5)
    assert selfs["distributions"] == pytest.approx(1.0)
    m = tracing.layer_metrics(_traced_child(500)["spans"])
    assert m["estimators.map_s"] == pytest.approx(6.0)
    assert m["estimators.reduce_s"] == pytest.approx(2.0)
    assert m["estimators.triples_per_sample"] == pytest.approx(5.0)
    assert m["parallel.chunks"] == 2


def test_counts_that_differ_between_children_are_reported():
    wl = workloads.build("mc-continuous", smoke=True, nproc=1)
    untraced = {"traced": False, "commands": [{"rc": 0, "seconds": 9.0}] * 2}
    _, mismatches, _ = run.layer_report(
        wl, [untraced, _traced_child(500), _traced_child(501)], None
    )
    assert len(mismatches) == 2  # distributions.triples and triples_per_sample
    assert "distributions.triples" in mismatches[0]


def test_tail_percentile_leaves_ten_values_beyond():
    values = list(range(1, 21))
    assert run.tail_percentile(values, "lower") == (50, 10)
    assert run.tail_percentile(values, "higher") == (50, 11)
    assert run.tail_percentile(values[:10], "lower") == (None, None)
