import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import pytest
from test_estimators import decimal_reference

from rmp import selftest
from rmp.cli import build_parser, main
from rmp.clt import CltReport, DegeneracyVerdict
from rmp.distributions import parse_spec
from rmp.estimators import estimate_sigma2_mc
from rmp.families import MAX_ATOMS
from rmp.selftest import CheckResult, _criterion

LOG2 = math.log(2.0)


def rmp(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "rmp", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def dists(tmp_path):
    files = {
        "cauchy": {"family": "CauchyRankOne"},
        "const111": {"family": "ConstantTriple", "value": [1, 1, 1]},
        "binary": {"family": "BinaryHill", "alpha": 2, "beta": 3, "p": 0.5},
        "uniform11": {"family": "UniformRankOne", "a": 1, "b": 1},
        "hill": {"family": "HillRandom", "a": 0.5, "b": 2},
        "atoms": {
            "family": "DiscreteAtoms",
            "atoms": [[[1, 0.5, 1], 0.5], [[2, 1, -1], 0.5]],
        },
        "cancelling": {
            "family": "DiscreteAtoms",
            "atoms": [[[2, 5, 1], 0.5], [[1, -2, 3], 0.5]],
        },
        "bad": None,  # malformed on purpose
    }
    paths = {}
    for name, doc in files.items():
        p = tmp_path / f"{name}.json"
        p.write_text('{"family": ' if doc is None else json.dumps(doc))
        paths[name] = str(p)
    return paths


class TestEstimate:
    def test_constant_exact_values(self, dists):
        out = rmp("estimate", "--dist", dists["const111"], "--samples", "1024")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["lambda"]["value"] == LOG2
        assert doc["sigma2"]["value"] == 0.0
        assert doc["lambda"]["seed"] == 0
        assert doc["lambda"]["n_samples"] == 1024

    def test_cauchy_mc(self, dists):
        out = rmp(
            "estimate", "--dist", dists["cauchy"], "--samples", "100000", "--seed", "7"
        )
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        err = abs(doc["lambda"]["value"] - LOG2)
        assert err <= 4.0 * doc["lambda"]["std_error"]
        assert doc["lambda"]["seed"] == 7

    def test_exact_binary(self, dists):
        out = rmp("estimate", "--dist", dists["binary"], "--exact")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["lambda"]["value"] == pytest.approx(0.9679448868067951, abs=1e-12)
        assert doc["sigma2"]["value"] == pytest.approx(0.02627715669180386, abs=1e-12)
        assert "std_error" not in doc["lambda"]

    def test_minus_inf_serialized_as_string(self, dists):
        out = rmp("estimate", "--dist", dists["cancelling"], "--exact")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["lambda"]["value"] == "-inf"
        assert doc["sigma2"]["value"] == "nan"

    @pytest.mark.parametrize("name, events", [("cancelling", 1), ("binary", 0)])
    def test_exact_counts_cancelling_atom_pairs(self, dists, name, events):
        # one ordered pair of the cancelling law's table is -inf
        out = rmp("estimate", "--dist", dists[name], "--exact")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["lambda"]["minus_inf_events"] == events
        assert doc["sigma2"]["minus_inf_events"] == events
        assert doc["lambda"]["inf_nan_events"] == doc["sigma2"]["inf_nan_events"] == 0
        assert (doc["lambda"]["value"] == "-inf") is (events > 0)

    def test_mc_counts_cancelled_terms(self, dists):
        out = rmp("estimate", "--dist", dists["cancelling"], "--samples", "1000")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["lambda"]["value"] == "-inf" and doc["sigma2"]["value"] == "nan"
        assert doc["lambda"]["minus_inf_events"] == doc["sigma2"]["minus_inf_events"] > 0

    @pytest.mark.parametrize("a, b", [(0.0, 1e-310), (-1e-307, 1e-307)])
    def test_counts_inf_and_nan_terms(self, tmp_path, a, b):
        # 1/x overflows on these Hill supports, which reach 0 and so pass
        # validation; the NaN estimate is data, its +inf and NaN cross
        # terms are counted
        dist = tmp_path / "hill.json"
        dist.write_text(json.dumps({"family": "HillRandom", "a": a, "b": b}))
        out = rmp("estimate", "--dist", str(dist), "--samples", "4096")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        for key in ("lambda", "sigma2"):
            assert doc[key]["value"] == "nan" and doc[key]["minus_inf_events"] == 0
            assert doc[key]["inf_nan_events"] > 0

    def test_one_pass_timing_line(self, dists):
        out = rmp("estimate", "--dist", dists["cauchy"], "--samples", "1000")
        assert out.returncode == 0
        assert out.stderr.startswith("estimate ") and out.stderr.count("\n") == 1

    def test_negative_sigma2_is_flagged_on_stderr(self, dists):
        # HillRandom [0.5, 2] has sigma2 = 0.00256; 1000 samples at seed 5
        # estimate -0.00264, within 1.6 SE of it.  stdout keeps the value
        args = ("--samples", "1000", "--seed", "5")
        out = rmp("estimate", "--dist", dists["hill"], *args)
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        value, se = doc["sigma2"]["value"], doc["sigma2"]["std_error"]
        assert value < 0
        warning = f"warning: sigma2 estimate {value:.6g} is negative (std_error {se:.6g})\n"
        assert out.stderr.startswith("estimate ") and out.stderr.endswith(warning)
        assert out.stderr.count("\n") == 2
        out = rmp("estimate", "--dist", dists["cauchy"], "--samples", "200000")
        assert out.returncode == 0 and "warning" not in out.stderr

    def test_variance_std_error_nan_at_3_samples(self, dists):
        # batches of one row have no spread, so the variance SE is undefined
        out = rmp("estimate", "--dist", dists["atoms"], "--samples", "3")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["sigma2"]["std_error"] == "nan"
        assert isinstance(doc["lambda"]["std_error"], float)

    def test_largest_seed(self, dists):
        out = rmp("estimate", "--dist", dists["atoms"], "--samples", "100",
                  "--seed", str(2**64 - 1))
        assert out.returncode == 0
        assert json.loads(out.stdout)["lambda"]["seed"] == 2**64 - 1

    def test_exact_on_continuous_fails(self, dists):
        out = rmp("estimate", "--dist", dists["cauchy"], "--exact")
        assert out.returncode == 1
        assert "not discrete" in out.stderr

    def test_missing_file(self, tmp_path):
        out = rmp("estimate", "--dist", str(tmp_path / "nope.json"))
        assert out.returncode == 1
        assert out.stderr.startswith("error:")

    def test_overflowing_triple_exit_1(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"family": "ConstantTriple", "value": [1, 1e200, 1e200]}')
        out = rmp("estimate", "--dist", str(path), "--samples", "1024")
        assert out.returncode == 1
        assert "c*(b/a)" in out.stderr and out.stdout == ""

    @pytest.mark.parametrize(
        "doc, match",
        [
            ('{"family": "DiscreteAtoms", "atoms": [[[1, 1, 1e200], 0.5], [[1, 1e200, 1], 0.5]]}',
             "not finite"),
            ('{"family": "UniformRankOne", "a": 1e308, "b": 1e308}', "too wide"),
            ('{"family": "HillRandom", "a": -1e308, "b": 1e308}', "too wide"),
            # 1/x overflows on the whole support: once lambda = NaN with exit 0
            ('{"family": "HillRandom", "a": 1e-310, "b": 2e-310}', "too close to 0"),
        ],
    )
    def test_overflowing_law_exit_1(self, tmp_path, doc, match):
        path = tmp_path / "law.json"
        path.write_text(doc)
        out = rmp("estimate", "--dist", str(path), "--samples", "1024")
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and match in out.stderr
        assert "Warning" not in out.stderr and out.stdout == ""

    def test_huge_binary_multiplier_exact(self, tmp_path):
        # beta^2 = 1e400 once ended in an OverflowError traceback
        path = tmp_path / "huge.json"
        path.write_text('{"family": "BinaryHill", "alpha": 2, "beta": 1e200, "p": 0.5}')
        out = rmp("estimate", "--dist", str(path), "--exact")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["lambda"]["value"] == pytest.approx(230.63452864859863, rel=1e-12)

    def test_malformed_config(self, dists):
        out = rmp("estimate", "--dist", dists["bad"])
        assert out.returncode == 1
        assert "malformed JSON" in out.stderr

    def test_out_file_and_clean_stdout(self, dists, tmp_path):
        path = tmp_path / "result.json"
        out = rmp(
            "estimate", "--dist", dists["const111"], "--samples", "64",
            "--out", str(path),
        )
        assert out.returncode == 0
        assert out.stdout == ""
        doc = json.loads(path.read_text())
        assert doc["lambda"]["value"] == LOG2


# the keys of an estimate's "lambda" and "sigma2" documents, in order;
# an exact route has no std_error
ESTIMATE_KEYS = ["value", "std_error", "n_samples", "seed", "minus_inf_events", "inf_nan_events"]


class TestDocumentKeys:
    """The key order of every document built from an Estimate."""

    @staticmethod
    def _doc(capsys, *argv):
        assert main([*argv, "--threads", "1"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_estimate(self, dists, capsys):
        doc = self._doc(capsys, "estimate", "--dist", dists["atoms"], "--samples", "1000")
        assert list(doc) == ["lambda", "sigma2", "ladder"]
        assert list(doc["lambda"]) == list(doc["sigma2"]) == ESTIMATE_KEYS
        assert list(doc["ladder"]) == ["c0", "c1"]

    def test_estimate_exact(self, dists, capsys):
        # enumeration draws nothing: no standard error and no seed (and
        # no --threads, which _doc would pass)
        assert main(["estimate", "--dist", dists["atoms"], "--exact"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["lambda", "sigma2", "ladder"]
        keys = [k for k in ESTIMATE_KEYS if k not in ("std_error", "seed")]
        assert list(doc["lambda"]) == list(doc["sigma2"]) == keys
        assert list(doc["ladder"]) == ["c0", "c1"]

    def test_estimate_exact_does_not_depend_on_seed(self, dists, capsys):
        # enumeration draws nothing, so a seed is refused, not ignored
        argv = ("estimate", "--dist", dists["atoms"], "--exact")
        for seed in ("1", "2"):
            assert main([*argv, "--seed", seed]) == 1
            out = capsys.readouterr()
            assert out.out == "" and "--seed" in out.err.splitlines()[-1]

    def test_clt_is_its_report_then_source(self, dists, capsys):
        doc = self._doc(capsys, "clt", "--dist", dists["cauchy"], "--source", "closed-form",
                        "--n", "20", "--chains", "20")
        fields = [f.name for f in dataclasses.fields(CltReport)]
        assert list(doc) == [*fields, "source"]

    def test_degeneracy_is_its_verdict(self, dists, capsys):
        assert main(["degeneracy", "--dist", dists["atoms"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        fields = [f.name for f in dataclasses.fields(DegeneracyVerdict)]
        assert list(doc) == ["lambda" if k == "lam" else k for k in fields]
        # an EntryTriple is written as [a, b, c]
        triples = [triple for triple, _ in doc["pairwise_residuals"]]
        assert triples == [[1.0, 0.5, 1.0], [2.0, 1.0, -1.0]]
        assert doc["atom"] in triples

    def test_clt_mc_source_estimates(self, dists, capsys):
        doc = self._doc(capsys, "clt", "--dist", dists["cauchy"], "--source", "mc",
                        "--samples", "1000", "--n", "20", "--chains", "20")
        assert list(doc) == [
            "n", "m_chains", "lambda_used", "sigma2_used", "empirical_mean",
            "empirical_var", "ks_distance", "histogram", "minus_inf_events",
            "inf_nan_events", "seed", "source", "source_estimates",
        ]
        source = doc["source_estimates"]
        assert list(source) == ["lambda", "sigma2"]
        assert list(source["lambda"]) == list(source["sigma2"]) == ESTIMATE_KEYS
        assert (doc["lambda_used"], doc["sigma2_used"]) == (
            source["lambda"]["value"], source["sigma2"]["value"])


class TestCriterion:
    def test_names_and_times_a_check(self):
        calls = []

        @_criterion("stub-check")
        def stub(quick=False, threads=1):
            calls.append((quick, threads))
            return False, "detail"

        result = stub(quick=True, threads=3)
        assert calls == [(True, 3)]
        assert (result.name, result.passed, result.detail) == ("stub-check", False, "detail")
        assert result.seconds >= 0.0
        assert stub().passed is False and calls[-1] == (False, 1)


class TestSelftestOutput:
    @pytest.mark.parametrize("passed, code", [(True, 0), (False, 3)])
    def test_times_on_stderr_only(self, monkeypatch, capsys, passed, code):
        # the wall times differ between runs; stdout must not
        outs = []
        for seconds in (12.34, 56.78):
            results = [CheckResult("first", True, "detail one", seconds),
                       CheckResult("second-check", passed, "detail two", seconds)]
            monkeypatch.setattr(selftest, "run_battery", lambda quick, threads: results)
            assert main(["selftest", "--quick"]) == code
            out, err = capsys.readouterr()
            assert f"{seconds:.2f}" not in out and err.count(f"{seconds:.2f}s") == 2
            outs.append(out)
        status = "PASS" if passed else "FAIL"
        assert outs[0] == outs[1] == (
            "[PASS] first         detail one\n"
            f"[{status}] second-check  detail two\n"
            f"{1 + passed}/2 criteria passed\n"
        )


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    """perfbench/<name>.py as a module, compiled from its text so that
    nothing is written there; listed in sys.modules while it runs, where
    its dataclasses look their module up."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    with mock.patch.dict(sys.modules, {module.__name__: module}):
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


class TestBenchmarkContract:
    """What perfbench/ looks up in rmp by name: its tracer wraps module
    attributes, its provenance line reads constants, its checks call the
    exact and closed-form routes."""

    def test_traced_attributes_are_callable(self):
        tracing = _load_perfbench("tracing")
        for module, attr, *_ in tracing.TARGETS:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
        for module, _ in tracing.MAP_CALLERS:
            assert callable(importlib.import_module(module).map_chunks), module

    def test_provenance_constants(self):
        from rmp.estimators import SAMPLE_CHUNK
        from rmp.product import CHAIN_CHUNK, STEP_BLOCK

        for value in (SAMPLE_CHUNK, CHAIN_CHUNK, STEP_BLOCK):
            assert isinstance(value, int) and value > 0

    def test_reference_values_are_two_finite_floats(self):
        workloads = _load_perfbench("workloads")
        for key in workloads.SPECS:
            ref = workloads.reference_values(key)
            assert len(ref) == 2, key
            assert all(isinstance(v, float) and math.isfinite(v) for v in ref), (key, ref)

    def test_estimate_notes_read_the_record(self):
        tracing = _load_perfbench("tracing")
        spec = parse_spec('{"family": "DiscreteAtoms", '
                          '"atoms": [[[2, 5, 1], 0.5], [[1, -2, 3], 0.5]]}')
        e = estimate_sigma2_mc(spec, 1000)
        assert e.minus_inf_events > 0
        notes = tracing._notes_estimate((spec, 1000), e)
        assert notes == {"samples": 1000, "minus_inf_events": e.minus_inf_events}


class TestClt:
    def test_constant_exact_source(self, dists):
        out = rmp(
            "clt", "--dist", dists["const111"], "--n", "100", "--chains", "50",
            "--source", "exact",
        )
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["sigma2_used"] == 0.0
        assert doc["empirical_var"] <= 1e-24
        assert doc["ks_distance"] is None
        assert sum(c for _, _, c in doc["histogram"]) == 50
        assert doc["minus_inf_events"] == doc["inf_nan_events"] == 0

    def test_uniform_closed_form(self, dists, tmp_path):
        hist = tmp_path / "hist.csv"
        out = rmp(
            "clt", "--dist", dists["uniform11"], "--n", "2000", "--chains", "400",
            "--source", "closed-form", "--seed", "3", "--hist-out", str(hist),
        )
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["sigma2_used"] == 1.25
        assert abs(doc["empirical_var"] - 1.25) <= 0.125
        assert doc["ks_distance"] <= 1.9495 / math.sqrt(400)
        text = hist.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 42  # header + 40 bins + trailing newline
        assert "\r" not in text
        left = lines[1].split(",")[0]
        assert float(left) == doc["histogram"][0][0]
        assert len(left.replace("-", "").replace(".", "").lstrip("0")) >= 16

    def test_closed_form_unavailable_exit_2(self, dists):
        out = rmp(
            "clt", "--dist", dists["atoms"], "--n", "100", "--chains", "50",
            "--source", "closed-form",
        )
        assert out.returncode == 2
        assert "no closed form" in out.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("estimate", "--dist", "atoms", "--samples", "abc"),
            ("estimate", "--samples", "10"),
            (),
            ("clt", "--dist", "atoms", "--source", "bogus"),
            ("degeneracy", "--dist", "atoms", "--tolerance", "-inf"),
            # a seed outside 64 bits would run the stream of seed mod 2**64
            # under another reported seed; no thread count below 1 exists
            ("estimate", "--dist", "atoms", "--seed", "-1"),
            ("estimate", "--dist", "atoms", "--seed", str(2**64)),
            ("estimate", "--dist", "atoms", "--threads", "0"),
            ("clt", "--dist", "atoms", "--source", "exact", "--threads", "-4"),
            ("selftest", "--quick", "--threads", "0"),
            # counts are checked where they go unused too: --exact and
            # --source exact draw no samples
            ("estimate", "--dist", "atoms", "--exact", "--samples", "-3"),
            ("clt", "--dist", "atoms", "--source", "exact", "--samples", "-3"),
            ("clt", "--dist", "atoms", "--source", "exact", "--n", "9"),
            ("clt", "--dist", "atoms", "--source", "exact", "--chains", "9"),
        ],
        ids=[
            "bad_int", "missing_dist", "no_subcommand", "bad_choice", "option_value",
            "seed_negative", "seed_2_64", "threads_0", "threads_negative",
            "selftest_threads_0", "exact_samples_negative", "clt_samples_negative",
            "clt_n_9", "clt_chains_9",
        ],
    )
    def test_usage_error_exit_1(self, dists, args):
        # 2 is kept for a missing closed form; a usage error is a config error
        out = rmp(*(dists.get(a, a) for a in args))
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.startswith("usage: rmp")
        assert out.stderr.splitlines()[-1].startswith("error: rmp")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("args", [("--help",), ("estimate", "--help")])
    def test_help_exit_0(self, args):
        out = rmp(*args)
        assert out.returncode == 0
        assert out.stdout.startswith("usage: rmp")

    def test_exact_source_on_continuous_exit_1(self, dists):
        out = rmp(
            "clt", "--dist", dists["cauchy"], "--n", "100", "--chains", "50",
            "--source", "exact",
        )
        assert out.returncode == 1

    def test_mc_source(self, dists):
        out = rmp(
            "clt", "--dist", dists["cauchy"], "--n", "500", "--chains", "100",
            "--source", "mc", "--samples", "50000", "--seed", "11",
        )
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert "source_estimates" in doc
        assert doc["source_estimates"]["lambda"]["seed"] == 12  # decoupled stream
        assert abs(doc["lambda_used"] - LOG2) < 0.05

    def test_degenerate_lambda_exit_1(self, dists):
        out = rmp(
            "clt", "--dist", dists["cancelling"], "--n", "100", "--chains", "50",
            "--source", "exact",
        )
        assert out.returncode == 1
        assert "-inf" in out.stderr

    def test_negative_sigma2_estimate_exit_1(self, dists):
        # 8 MC samples of this law give sigma2 = -0.0092: no hypothesis to
        # test, unlike the degenerate law sigma2 = 0
        out = rmp(
            "clt", "--dist", dists["hill"], "--source", "mc", "--samples", "8",
            "--n", "20", "--chains", "20", "--seed", "1",
        )
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and "sigma2" in out.stderr
        assert out.stdout == ""


class TestRankOneOverflow:
    @pytest.mark.parametrize(
        "doc",
        [
            {"family": "ExponentialRankOne", "theta": 1e-308},
            {"family": "UniformRankOne", "a": 1.7e308, "b": 1e300},
        ],
        ids=["exponential", "uniform"],
    )
    def test_estimate_exit_1(self, tmp_path, doc):
        # x + y of two draws can overflow: once lambda = NaN with 0 events
        path = tmp_path / "law.json"
        path.write_text(json.dumps(doc))
        out = rmp("estimate", "--dist", str(path), "--samples", "1000")
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and "overflow" in out.stderr
        assert out.stdout == ""


class TestExactDrawsNothing:
    @pytest.mark.parametrize("option", [("--seed", "9"), ("--threads", "2"), ("--samples", "7")])
    @pytest.mark.parametrize("exact_first", [True, False], ids=["exact-first", "exact-last"])
    def test_sampling_option_is_a_usage_error(self, dists, option, exact_first):
        args = ["--exact", *option] if exact_first else [*option, "--exact"]
        out = rmp("estimate", "--dist", dists["atoms"], *args)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("usage: rmp estimate")
        last = out.stderr.splitlines()[-1]
        assert last.startswith("error: rmp estimate") and option[0] in last

    @pytest.mark.parametrize("source, dist", [("closed-form", "cauchy"), ("exact", "atoms")])
    @pytest.mark.parametrize("samples_first", [True, False], ids=["samples-first", "samples-last"])
    def test_clt_samples_without_mc_source_is_a_usage_error(self, dists, source, dist,
                                                            samples_first):
        # only --source mc draws samples: a count there would go unused
        args = [("--samples", "7"), ("--source", source)]
        args = [a for pair in (args if samples_first else args[::-1]) for a in pair]
        out = rmp("clt", "--dist", dists[dist], "--n", "20", "--chains", "20", *args)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("usage: rmp clt")
        last = out.stderr.splitlines()[-1]
        assert last.startswith("error: rmp clt") and "--samples" in last


class TestDegeneracy:
    @pytest.mark.parametrize("option", [("--seed", "1"), ("--threads", "2")])
    def test_no_seed_or_threads(self, dists, option):
        # the verdict is exact: nothing is drawn and nothing runs in parallel
        out = rmp("degeneracy", "--dist", dists["atoms"], *option)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.splitlines()[-1].startswith("error: rmp")
        doc = json.loads(rmp("degeneracy", "--dist", dists["atoms"]).stdout)
        assert "seed" not in doc

    def test_constant_true(self, dists):
        out = rmp("degeneracy", "--dist", dists["const111"])
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["is_degenerate_candidate"] is True
        assert doc["sigma2"] == 0.0

    def test_binary_false(self, dists):
        out = rmp("degeneracy", "--dist", dists["binary"])
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["is_degenerate_candidate"] is False
        assert doc["sigma2"] > 0.0

    def test_cancelling_law_exit_1(self, dists):
        # lambda = -inf: no CLT, so no verdict that could read "sigma2 > 0"
        out = rmp("degeneracy", "--dist", dists["cancelling"])
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and "-inf" in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exit_1(self, dists, tolerance):
        # sigma2 = 0 exactly here; a NaN tolerance read "not degenerate"
        out = rmp("degeneracy", "--dist", dists["const111"], f"--tolerance={tolerance}")
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and "tolerance" in out.stderr
        assert out.stdout == ""

    def test_continuous_exit_1(self, dists):
        out = rmp("degeneracy", "--dist", dists["cauchy"])
        assert out.returncode == 1
        assert "requires finite support" in out.stderr

    @pytest.mark.parametrize(
        "doc, candidate",
        [
            # |a + bc/a|^4 = 1e320 once ended in an OverflowError traceback
            ({"family": "ConstantTriple", "value": [1e80, 1, 1]}, True),
            ({"family": "BinaryHill", "alpha": 2, "beta": 1e200, "p": 0.5}, False),
        ],
    )
    def test_extreme_atoms(self, tmp_path, doc, candidate):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(doc))
        lam, c0, c1 = decimal_reference(parse_spec(json.dumps(doc)))
        verdict = rmp("degeneracy", "--dist", str(path))
        exact = rmp("estimate", "--dist", str(path), "--exact")
        for out in (verdict, exact):
            assert out.returncode == 0 and "Traceback" not in out.stderr
        v, e = json.loads(verdict.stdout), json.loads(exact.stdout)
        assert v["is_degenerate_candidate"] is candidate
        assert v["lambda"] == e["lambda"]["value"] == pytest.approx(lam, rel=1e-15)
        assert v["sigma2"] == e["sigma2"]["value"]
        assert (v["sigma2"] > 0.0) is not candidate
        if candidate:
            assert v["lambda"] == 184.20680743952366 and v["sigma2"] == 0.0


class TestAtomCap:
    @pytest.mark.parametrize("command", ["estimate", "clt", "degeneracy"])
    def test_too_many_atoms_exit_1(self, tmp_path, command):
        k = MAX_ATOMS + 1
        path = tmp_path / "law.json"
        path.write_text(json.dumps(
            {"family": "DiscreteAtoms", "atoms": [[[i + 1, 0, 0], 1 / k] for i in range(k)]}
        ))
        extra = ["--source", "exact"] if command == "clt" else []
        out = rmp(command, "--dist", str(path), *extra)
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and "too many atoms" in out.stderr
        assert out.stdout == ""


class TestDeterminism:
    def test_estimate_byte_identical_across_threads(self, dists):
        cmd = ["estimate", "--dist", dists["cauchy"], "--samples", "20000", "--seed", "9"]
        a = rmp(*cmd, "--threads", "1")
        b = rmp(*cmd, "--threads", "8")
        c = rmp(*cmd, "--threads", "1")
        assert a.stdout == b.stdout == c.stdout
        assert a.returncode == 0

    def test_mc_byte_identical_across_1_2_8_threads(self, dists):
        # 3 chunks, so 2 and 8 threads both run chunks at once
        for cmd in (
            ["estimate", "--dist", dists["cauchy"], "--samples", "140000", "--seed", "3"],
            ["clt", "--dist", dists["cauchy"], "--n", "100", "--chains", "50",
             "--source", "mc", "--samples", "140000", "--seed", "3"],
        ):
            outs = [rmp(*cmd, "--threads", t) for t in ("1", "2", "8")]
            assert all(o.returncode == 0 for o in outs)
            assert outs[0].stdout == outs[1].stdout == outs[2].stdout

    def test_finite_support_byte_identical_across_1_2_8_threads(self, dists):
        # BinaryHill draws words of 8 steps: 140 000 samples are 3 chunks,
        # the full ones segments of 65 538 steps, and --n 1001 is a block of
        # 125 words and a last block of one step; each ends in a cut word
        for cmd in (
            ["estimate", "--dist", dists["binary"], "--samples", "140000", "--seed", "3"],
            ["clt", "--dist", dists["binary"], "--n", "1001", "--chains", "300",
             "--source", "exact", "--seed", "3"],
            ["clt", "--dist", dists["binary"], "--n", "1001", "--chains", "300",
             "--source", "mc", "--samples", "140000", "--seed", "3"],
        ):
            outs = [rmp(*cmd, "--threads", t) for t in ("1", "2", "8")]
            assert all(o.returncode == 0 for o in outs)
            assert outs[0].stdout == outs[1].stdout == outs[2].stdout

    def test_clt_byte_identical_across_threads(self, dists):
        cmd = [
            "clt", "--dist", dists["uniform11"], "--n", "300", "--chains", "150",
            "--source", "closed-form", "--seed", "4",
        ]
        a = rmp(*cmd, "--threads", "1")
        b = rmp(*cmd, "--threads", "6")
        assert a.stdout == b.stdout
        assert a.returncode == 0

    def test_default_threads_byte_identical_to_one(self, dists):
        # several chunks each, so a default above 1 runs chunks at once
        for cmd in (
            ["estimate", "--dist", dists["cauchy"], "--samples", "140000", "--seed", "3"],
            ["clt", "--dist", dists["uniform11"], "--n", "1100", "--chains", "300",
             "--source", "closed-form", "--seed", "4"],
        ):
            default, one = rmp(*cmd), rmp(*cmd, "--threads", "1")
            assert default.returncode == one.returncode == 0
            assert default.stdout == one.stdout

    @pytest.mark.parametrize(
        "argv", [["estimate"], ["clt", "--source", "closed-form"]], ids=["estimate", "clt"]
    )
    @pytest.mark.parametrize("cpus, want", [(8, 8), (None, 1)])
    def test_threads_default_to_cpu_count(self, argv, cpus, want, monkeypatch):
        # where the OS has no affinity mask
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        with mock.patch("os.cpu_count", return_value=cpus):
            args = build_parser().parse_args([*argv, "--dist", "x.json"])
        assert args.threads == want

    @pytest.mark.parametrize(
        "argv", [["estimate"], ["clt", "--source", "closed-form"]], ids=["estimate", "clt"]
    )
    def test_threads_default_to_cpu_affinity(self, argv):
        # a taskset or cpuset leaves 3 of the host's 64 CPUs to the process
        with mock.patch("os.sched_getaffinity", return_value={0, 5, 7}, create=True), \
                mock.patch("os.cpu_count", return_value=64):
            args = build_parser().parse_args([*argv, "--dist", "x.json"])
        assert args.threads == 3


_NO_SCIPY = """
import json, sys
import rmp.cli
for argv in json.loads(sys.argv[1]):
    assert rmp.cli.main(argv) == 0, argv
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""


def test_runtime_needs_no_scipy(dists):
    # numpy is the one runtime dependency; scipy is for tests only
    runs = [
        ["estimate", "--dist", dists["atoms"], "--samples", "1000"],
        ["estimate", "--dist", dists["atoms"], "--exact"],
        ["clt", "--dist", dists["uniform11"], "--source", "closed-form",
         "--n", "100", "--chains", "50"],
        ["clt", "--dist", dists["atoms"], "--source", "exact", "--n", "100", "--chains", "50"],
        ["clt", "--dist", dists["cauchy"], "--source", "mc", "--samples", "1000",
         "--n", "100", "--chains", "50"],
        ["degeneracy", "--dist", dists["atoms"]],
    ]
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps(runs)], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
