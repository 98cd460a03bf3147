"""Command-line front end.

Subcommands:

* ``estimate``   Lyapunov exponent and CLT variance (Monte Carlo, or
                 exact enumeration with ``--exact``).
* ``clt``        simulate the normalized statistic against N(0, sigma^2)
                 with (lambda, sigma^2) taken from a closed form, exact
                 enumeration, or a Monte Carlo run.
* ``degeneracy`` atomic-case check of the sigma^2 = 0 conditions.
* ``selftest``   full acceptance battery with fixed seeds.

Results are JSON documents (keys in fixed order, non-finite reals
serialized as the strings "-inf"/"inf"/"nan"); histograms can also be
written as CSV.  stdout carries only the result document; diagnostics
go to stderr.  A given invocation is byte-reproducible and independent
of ``--threads``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .clt import CltReport, degeneracy_check, simulate_normalized
from .distributions import _MASK64, NotDiscreteError, SpecError, load_spec
# estimate_lambda_mc stays a module attribute: perfbench/tracing.py wraps
# it here by name
from .estimators import (
    EstimateResult,
    NoClosedFormError,
    closed_form,
    estimate_lambda_mc,
    estimate_sigma2_mc,
    exact_discrete,
    lambda_view,
)

# exception -> exit code, most specific first: NoClosedFormError is a
# ValueError, so it must match before the generic entry
_EXIT_CODES = (
    (NoClosedFormError, 2),
    (OSError, 1),
    (ValueError, 1),
)


def _jsonify(x):
    """Replace non-finite floats by strings so the document is valid JSON."""
    if isinstance(x, float):
        if math.isfinite(x):
            return x
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return "nan"
    if isinstance(x, dict):
        return {k: _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return x


def _dump(doc: dict, out: str | None) -> None:
    text = json.dumps(_jsonify(doc), indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _result_doc(r: EstimateResult) -> dict:
    return {
        "value": r.value,
        "std_error": r.std_error,
        "n_samples": r.n_samples,
        "seed": r.seed,
        "minus_inf_events": r.minus_inf_events,
        "inf_nan_events": r.inf_nan_events,
    }


def _write_histogram_csv(path: str, histogram) -> None:
    lines = ["bin_left,bin_right,count"]
    for left, right, count in histogram:
        lines.append(f"{left:.17g},{right:.17g},{count}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _report_doc(report: CltReport, source: str) -> dict:
    return {
        "n": report.n,
        "m_chains": report.m_chains,
        "lambda_used": report.lambda_used,
        "sigma2_used": report.sigma2_used,
        "empirical_mean": report.empirical_mean,
        "empirical_var": report.empirical_var,
        "ks_distance": report.ks_distance,
        "histogram": [list(b) for b in report.histogram],
        "minus_inf_events": report.minus_inf_events,
        "inf_nan_events": report.inf_nan_events,
        "seed": report.seed,
        "source": source,
    }


# -- commands ---------------------------------------------------------------

def cmd_estimate(args) -> int:
    spec = load_spec(args.dist)
    if args.exact:
        lam, sigma2, ladder = exact_discrete(spec)
        meta = {
            "n_samples": 0,
            "seed": args.seed,
            "minus_inf_events": ladder.minus_inf_events,
            "inf_nan_events": 0,
        }
        lam_doc, sig_doc = {"value": lam, **meta}, {"value": sigma2, **meta}
    else:
        sig_r, ladder = estimate_sigma2_mc(spec, args.samples, args.seed, args.threads)
        print(f"estimate {sig_r.wall_time_s:.2f}s", file=sys.stderr)
        if sig_r.value < 0.0:
            # sigma2 >= 0 for every law: sampling noise, not a variance
            print(f"warning: sigma2 estimate {sig_r.value:.6g} is negative "
                  f"(std_error {sig_r.std_error:.6g})", file=sys.stderr)
        lam_doc, sig_doc = _result_doc(lambda_view(sig_r, ladder)), _result_doc(sig_r)
    ladder_doc = {"c0": ladder.c0, "c1": ladder.c1}
    _dump({"lambda": lam_doc, "sigma2": sig_doc, "ladder": ladder_doc}, args.out)
    return 0


def cmd_clt(args) -> int:
    spec = load_spec(args.dist)
    source_doc = None
    if args.source == "closed-form":
        lam, sigma2 = closed_form(spec)
    elif args.source == "exact":
        lam, sigma2, _ = exact_discrete(spec)
    else:
        # decoupled from the chain streams so the hypothesis is
        # estimated on randomness independent of the evidence
        src_seed = (args.seed + 1) & _MASK64
        sig_r, ladder = estimate_sigma2_mc(spec, args.samples, src_seed, args.threads)
        lam_r = lambda_view(sig_r, ladder)
        lam, sigma2 = lam_r.value, sig_r.value
        source_doc = {"lambda": _result_doc(lam_r), "sigma2": _result_doc(sig_r)}

    report = simulate_normalized(
        spec, args.n, args.chains, lam, sigma2, args.seed, args.threads
    )
    doc = _report_doc(report, args.source)
    if source_doc is not None:
        doc["source_estimates"] = source_doc
    if args.hist_out:
        _write_histogram_csv(args.hist_out, report.histogram)
    _dump(doc, args.out)
    return 0


def cmd_degeneracy(args) -> int:
    spec = load_spec(args.dist)
    try:
        verdict = degeneracy_check(spec, args.tolerance)
    except NotDiscreteError:
        raise SpecError("degeneracy check requires finite support") from None
    doc = {
        "is_degenerate_candidate": verdict.is_degenerate_candidate,
        "atom": [verdict.atom.a, verdict.atom.b, verdict.atom.c],
        "lambda_residual": verdict.lambda_residual,
        "pairwise_residuals": [
            [[t.a, t.b, t.c], res] for t, res in verdict.pairwise_residuals
        ],
        "lambda": verdict.lam,
        "sigma2": verdict.sigma2,
        "tolerance": verdict.tolerance,
    }
    _dump(doc, args.out)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_battery

    results = run_battery(quick=args.quick, threads=args.threads)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  ({r.seconds:6.2f}s)  {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 3 if failed else 0


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError after the usage line.

    argparse would exit 2, which means "no closed form" here; main maps
    a ValueError to 1, a config error.  Subcommand parsers are made of
    the same class.  Not an ArgumentError, which a parent parser would
    catch and report again.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _int_in(lo: int, hi: float = math.inf):
    """argparse type: an int in [lo, hi]; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is not in [{lo}, {hi}]")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one (a taskset or cpuset narrows it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rmp",
        description=(
            "Lyapunov exponents and CLT variances for products of "
            "singular 2x2 random matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sampled=True):
        p.add_argument("--dist", required=True, help="distribution JSON path")
        if sampled:
            p.add_argument(
                "--seed", type=_int_in(0, _MASK64), default=0, help="64-bit seed (default 0)"
            )
            p.add_argument(
                "--threads",
                type=_int_in(1),
                default=_usable_cpus(),
                help="worker cap (default: the usable CPUs); output does not depend on it",
            )
        p.add_argument("--out", help="write the JSON result here instead of stdout")

    p = sub.add_parser("estimate", help="estimate lambda and sigma^2")
    common(p)
    p.add_argument("--samples", type=_int_in(2), default=100_000, help="MC sample count")
    p.add_argument(
        "--exact",
        action="store_true",
        help="exact enumeration (finite-support laws only)",
    )
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("clt", help="simulate the normalized statistic")
    common(p)
    p.add_argument("--n", type=_int_in(10), default=10_000, help="chain length")
    p.add_argument("--chains", type=_int_in(10), default=500, help="number of chains")
    p.add_argument(
        "--source",
        required=True,
        choices=["closed-form", "exact", "mc"],
        help="where (lambda, sigma^2) come from",
    )
    p.add_argument("--samples", type=_int_in(2), default=100_000, help="MC source samples")
    p.add_argument("--hist-out", help="write the histogram CSV here")
    p.set_defaults(fn=cmd_clt)

    p = sub.add_parser("degeneracy", help="atomic-case degeneracy conditions")
    common(p, sampled=False)
    p.add_argument("--tolerance", type=float, default=1e-9, help="relative tolerance")
    p.set_defaults(fn=cmd_degeneracy)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true", help="reduced sample counts")
    p.add_argument("--threads", type=_int_in(1), default=1, help="worker cap (default 1)")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except tuple(exc for exc, _ in _EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for exc, code in _EXIT_CODES if isinstance(e, exc))


if __name__ == "__main__":
    sys.exit(main())
