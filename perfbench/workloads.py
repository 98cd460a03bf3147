"""Workloads of the rmp benchmark and the checks on their outputs.

Each workload is a short list of ``rmp`` CLI commands that one fresh
child process runs after setup.  The workloads were chosen so that every
layer is exercised by one workload and bypassed by another:

* ``mc-continuous``: ``rmp estimate`` on two continuous laws.  Continuous
  sampler and Monte Carlo reducer; the sigma^2 arrays reach ~400 MiB so
  reducer memory shows.  The chain kernel is not run.
* ``clt-continuous``: ``rmp clt --source closed-form`` on Exponential(1).
  Chain kernel over the same continuous sampler; no MC estimator runs.
* ``discrete``: ``rmp estimate`` on a 3-atom law plus ``rmp clt --source
  exact`` on BinaryHill.  The ``searchsorted`` and ``where`` sampler
  branches and exact enumeration; the only workload a discrete-only
  change can move.
* ``clt-threads``: ``clt-continuous`` with ``--threads`` = nproc.  The only
  workload that exercises the thread pool.  Its stdout must equal that of
  the single-thread run, which a reference child re-runs untimed.

Every command output is checked; a command that fails any check counts
as one failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

# One-sample KS critical value at level 0.001 is KS_COEFF / sqrt(chains).
KS_COEFF = 1.9495
# |estimate - reference| must stay within SE_BAND standard errors.
SE_BAND = 4.0

SPECS = {
    "cauchy": {"family": "CauchyRankOne"},
    "exp1": {"family": "ExponentialRankOne", "theta": 1.0},
    # the 3-atom law of the acceptance battery (rmp selftest)
    "atoms3": {
        "family": "DiscreteAtoms",
        "atoms": [
            [[1.0, 0.5, 1.0], 0.25],
            [[2.0, 1.0, -1.0], 0.5],
            [[-1.5, 2.0, 0.5], 0.25],
        ],
    },
    "binary": {"family": "BinaryHill", "alpha": 2, "beta": 3, "p": 0.5},
}

# Sizes measured on 2 cores to give 0.8-2.8 s of rmp.cli.main per child;
# the smoke sizes only exercise the plumbing.
FULL = {"samples": 4_000_000, "n": 10_000, "chains": 4000}
SMOKE = {"samples": 20_000, "n": 200, "chains": 64}

NAMES = ("mc-continuous", "clt-continuous", "discrete", "clt-threads")


@dataclass(frozen=True)
class Command:
    """One ``rmp`` invocation of a workload."""

    kind: str  # "estimate" or "clt"
    spec: str  # key into SPECS
    options: tuple[str, ...]  # CLI options after ``--dist PATH``
    work: int  # MC samples (estimate) or chain steps n * chains (clt)
    chains: int = 0

    def argv(self, spec_path: str, seed: int, threads: int) -> list[str]:
        return [
            self.kind, "--dist", spec_path, *self.options,
            "--seed", str(seed), "--threads", str(threads),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    threads: int
    # thread count of an extra untimed child whose stdout must match
    reference_threads: int | None = None


def _estimate(spec: str, samples: int) -> Command:
    return Command("estimate", spec, ("--samples", str(samples)), samples)


def _clt(spec: str, source: str, n: int, chains: int) -> Command:
    options = ("--n", str(n), "--chains", str(chains), "--source", source)
    return Command("clt", spec, options, n * chains, chains)


def build(name: str, smoke: bool, nproc: int) -> Workload:
    """The workload called ``name``; ``nproc`` sets clt-threads' thread count."""
    size = SMOKE if smoke else FULL
    samples, n, chains = size["samples"], size["n"], size["chains"]
    if name == "mc-continuous":
        return Workload(name, (_estimate("cauchy", samples), _estimate("exp1", samples)), 1)
    if name == "clt-continuous":
        return Workload(name, (_clt("exp1", "closed-form", n, chains),), 1)
    if name == "discrete":
        cmds = (_estimate("atoms3", samples), _clt("binary", "exact", n, chains))
        return Workload(name, cmds, 1)
    if name == "clt-threads":
        return Workload(name, (_clt("exp1", "closed-form", n, chains),), nproc, 1)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# -- checks -------------------------------------------------------------------

def reference_values(spec_key: str):
    """(lambda, sigma2) of a spec from the closed form or exact enumeration."""
    from rmp.distributions import parse_spec
    from rmp.estimators import closed_form, exact_discrete

    spec = parse_spec(json.dumps(SPECS[spec_key]))
    if spec.is_discrete:
        lam, sigma2, _ = exact_discrete(spec)
        return lam, sigma2
    return closed_form(spec)


def _is_real(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def check_output(cmd: Command, text: str, ref) -> list[str]:
    """Reasons the stdout of one command is wrong; empty when it is right."""
    try:
        return _check_doc(cmd, json.loads(text), ref)
    except ValueError:
        return ["stdout is not a JSON document"]
    except (KeyError, TypeError) as e:
        return [f"stdout lacks the field {e}"]


def _check_doc(cmd: Command, doc: dict, ref) -> list[str]:
    lam_ref, sigma2_ref = ref
    bad = []
    if cmd.kind == "estimate":
        for key, want in (("lambda", lam_ref), ("sigma2", sigma2_ref)):
            got, se = doc[key]["value"], doc[key]["std_error"]
            if not (_is_real(got) and _is_real(se) and se > 0.0):
                bad.append(f"{key} = {got!r} with SE {se!r} is not a finite estimate")
            elif abs(got - want) > SE_BAND * se:
                bad.append(
                    f"{key} = {got!r} is {abs(got - want) / se:.1f} SE from {want!r}"
                )
        return bad
    if doc["lambda_used"] != lam_ref or doc["sigma2_used"] != sigma2_ref:
        bad.append(
            f"clt used ({doc['lambda_used']!r}, {doc['sigma2_used']!r}), "
            f"reference is ({lam_ref!r}, {sigma2_ref!r})"
        )
    if doc["m_chains"] != cmd.chains:
        bad.append(f"m_chains = {doc['m_chains']!r}, expected {cmd.chains}")
    limit = KS_COEFF / math.sqrt(cmd.chains)
    ks = doc["ks_distance"]
    if not (_is_real(ks) and ks < limit):
        bad.append(f"KS distance {ks!r} is not below {limit:.4f}")
    return bad


def score(workload: Workload, children, refs):
    """Check every command of every child.

    ``children`` are child results in run order (a reference child
    included); ``refs`` maps spec keys to reference (lambda, sigma2).
    Returns (attempted, failed, reasons).  Besides the value checks,
    each command's stdout must hash to the same SHA-256 in every child:
    all children of a run use one seed, so any difference is a
    determinism failure (across runs, tracing or thread counts).
    """
    attempted = failed = 0
    reasons = []
    first_hash = {}
    for c, child in enumerate(children):
        outs = child.get("commands") or []
        for i, cmd in enumerate(workload.commands):
            attempted += 1
            out = outs[i] if i < len(outs) else None
            if out is None:
                bad = [f"child exited {child.get('exit')!r} before the command ran"]
            elif out["rc"] != 0:
                detail = (out.get("error") or out.get("stderr") or "").strip()
                bad = [f"exit code {out['rc']!r}: {detail[-300:]}".rstrip(": ")]
            else:
                bad = check_output(cmd, out["stdout"], refs[cmd.spec])
                digest = hashlib.sha256(out["stdout"].encode()).hexdigest()
                if first_hash.setdefault(i, digest) != digest:
                    bad.append(
                        f"stdout SHA-256 {digest[:12]} differs from the first run's "
                        f"{first_hash[i][:12]} (threads={child.get('threads')}, "
                        f"traced={child.get('traced')})"
                    )
            if bad:
                failed += 1
                reasons.append(f"child {c} command {i} ({' '.join(cmd.options)}): " + "; ".join(bad))
    return attempted, failed, reasons
