import json
import math
import subprocess
import sys

import pytest
from test_estimators import decimal_reference

from rmp.distributions import MAX_ATOMS, parse_spec

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
        assert (doc["lambda"]["value"] == "-inf") is (events > 0)

    def test_mc_counts_cancelled_terms(self, dists):
        out = rmp("estimate", "--dist", dists["cancelling"], "--samples", "1000")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["lambda"]["value"] == "-inf" and doc["sigma2"]["value"] == "nan"
        assert doc["lambda"]["minus_inf_events"] == doc["sigma2"]["minus_inf_events"] > 0

    def test_one_pass_timing_line(self, dists):
        out = rmp("estimate", "--dist", dists["cauchy"], "--samples", "1000")
        assert out.returncode == 0
        assert out.stderr.startswith("estimate ") and out.stderr.count("\n") == 1

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
        ],
    )
    def test_overflowing_law_exit_1(self, tmp_path, doc, match):
        path = tmp_path / "law.json"
        path.write_text(doc)
        out = rmp("estimate", "--dist", str(path), "--samples", "1024")
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and match in out.stderr
        assert out.stdout == ""

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
        ],
        ids=[
            "bad_int", "missing_dist", "no_subcommand", "bad_choice", "option_value",
            "seed_negative", "seed_2_64", "threads_0", "threads_negative",
            "selftest_threads_0",
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

    def test_clt_byte_identical_across_threads(self, dists):
        cmd = [
            "clt", "--dist", dists["uniform11"], "--n", "300", "--chains", "150",
            "--source", "closed-form", "--seed", "4",
        ]
        a = rmp(*cmd, "--threads", "1")
        b = rmp(*cmd, "--threads", "6")
        assert a.stdout == b.stdout
        assert a.returncode == 0


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
