"""The benchmark's workloads: inputs made from the seed, operations, checks.

An operation is one CLI invocation or one library call together with the
checks on its output.  It fails when the exit code is wrong, when a checked
value is outside its tolerance, when it raises, or when its output differs
from the same operation's output in the run's first pass (JSON reports are
compared byte for byte without their ``duration_s`` line, CSVs and printed
text byte for byte, library results coefficient for coefficient).

Tolerances reuse tests/test_acceptance.py where it has one; the two that do
not come from there say why next to their value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ncpain.cli as cli
import ncpain.moyal as moyal
import ncpain.quasidet as quasidet
from ncpain.laxpair import (SymState, integrate_symmetric,
                            normalize_first_integral)
from ncpain.moyal import MoyalPolynomial
from ncpain.ring import random_invertible

from tracing import without_duration

# From tests/test_acceptance.py.
ZC_TOL = 1e-12           # criterion 1: curvature diagonal and P-II identity
STAGE0_TOL = 1e-5        # criterion 2: stencil residual of the exact seed
QD_TOL = 1e-8            # criterion 3: quasideterminant vs oracle
ASSOC_TOL = 1e-12        # criterion 4: star-product associativity
LAX_TOL = 1e-12          # criterion 5: symmetric Lax residual
DRIFT_TOL = 1e-8         # criterion 5: first-integral drift
REDUCTION_TOL = 1e-5     # criterion 5: reduction residual, scalar flow

# Stage 4 of dress-heavy multiplies four quasideterminant stages whose values
# reach ~1e26, so the two routes' different rounding is amplified: the
# relative discrepancy reads 1.15e-8, and a legitimate reordering can double
# it.  A wrong formula gives O(1); 1e-6 separates the two.
DRESS_HEAVY_QD_TOL = 1e-6
# The reduction residual is a centred-stencil residual, O(h^2) times the
# fourth derivative of v2.  Random 3x3 data grow to norm <= 10 on [0, 2]
# (the input rule below) and then read up to ~1.2e-4 at h = 5e-4; 1e-3 keeps
# that headroom while a broken reduction reads O(1).
MATRIX_REDUCTION_TOL = 1e-3
# Input rule for the random flow data: a coarse pre-flight (h = 0.01) must
# stay below this norm on [0, 2], i.e. keep clear of a pole of the flow.
FLOW_MAX_NORM = 10.0

MOYAL_THETA = 0.05
MOYAL_CAP = {"full": 16, "tiny": 10}
# Entries of the 2x2 star-polynomial matrix: {monomial: magnitude}, as in
# tests/test_quasidet.py::test_quasidet_over_star_polynomials.  The seed
# draws only the phases.  With fixed magnitudes the star-inverse series
# stop after almost the same number of terms for every seed (84 or 85 star
# products in the two quasideterminant routes at cap 16), so the work hardly
# depends on the seed; drawn magnitudes moved it by up to 2x.  The constant
# terms stay dominant (|a00| = 1 > 0.2 * 0.1 / 1.3) whatever the phases.
MOYAL_ENTRIES = (
    ({(0, 0): 1.0, (1, 0): 0.08}, {(0, 0): 0.2, (0, 1): 0.05}),
    ({(0, 0): 0.1, (1, 1): 0.04}, {(0, 0): 1.3, (2, 0): 0.06}),
)

# The five runs of scripts/run_verification_suite.py, copied so that editing
# the script cannot change the workload.
SUITE_RUNS = (
    ("quasidet", ["quasidet", "--random", "4", "2", "--seed", "7",
                  "--pos", "1", "3"]),
    ("zc-rational", ["zc", "--seed-kind", "rational", "--C", "4",
                     "--lambda", "1,i,2-3i"]),
    ("zc-random", ["zc", "--seed-kind", "random", "--d", "3",
                   "--seed", "0"]),
    ("dress", ["dress", "--N", "2", "--gamma", "i,2i", "--seed", "rational",
               "--C", "4", "--z", "{z}"]),
    ("symmetric", ["symmetric", "--v0", "0.1", "--v2", "0.3", "--alpha0",
                   "0.5", "--alpha1", "1.5", "--t", "{t}", "--normalize"]),
)

# Grid and time ranges per size; "tiny" is the warm-up and smoke-test size.
RANGES = {
    "full": {"suite_z": "1:2:0.001", "suite_t": "0:1:0.001",
             "heavy_z": "1:2:0.001", "flow_t": "0:2:0.0005",
             "zc_trials": "200"},
    "tiny": {"suite_z": "1:1.02:0.001", "suite_t": "0:0.05:0.001",
             "heavy_z": "1:1.02:0.001", "flow_t": "0:0.05:0.0005",
             "zc_trials": "5"},
}


@dataclass
class Op:
    """One operation: ``run(workload)`` returns (problems, output bytes)."""

    name: str
    run: Callable[["Workload"], tuple[list, bytes]]


@dataclass
class Workload:
    ops: list
    out_dir: str
    inputs: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)

    def run_pass(self, tracer=None) -> list:
        """Run every operation once; returns one message per failed one."""
        failures = []
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = index
            try:
                problems, output = op.run(self)
            except Exception as exc:  # a raising operation counts as failed
                problems = [f"raised {type(exc).__name__}: {exc}"]
                output = None
            if output is not None:
                digest = hashlib.sha256(output).hexdigest()
                if self.references.setdefault(op.name, digest) != digest:
                    problems.append("output differs from the first pass")
            if problems:
                failures.append(f"{op.name}: " + "; ".join(problems))
        if tracer is not None:
            tracer.op = None
        return failures


# -- checks ----------------------------------------------------------------

def _at_most(label, value, tol):
    # Reports write non-finite floats as strings such as "nan".
    if not isinstance(value, (int, float)) or not value <= tol:
        return [f"{label} {value!r} exceeds {tol:g}"]
    return []


def check_quasidet(results, record):
    return _at_most("discrepancy", results["discrepancy_rel"], QD_TOL)


def check_zc(results, record):
    overall = results["overall"]
    problems = []
    for key in ("e11", "e22", "e12_identity", "e21_identity"):
        problems += _at_most(key, overall[key], ZC_TOL)
    return problems


def dress_check(qd_tol):
    def check(results, record):
        stages = results["stages"]
        for entry in stages[1:]:
            # Recorded, not gated: stages >= 1 of these seeds do not solve
            # the equation (a known, open defect).
            record(f"stage{entry['stage']}_residual_sup",
                   entry["residual_sup"])
        record("quasidet_vs_direct", results["quasidet_vs_direct"])
        return (_at_most("stage-0 residual", stages[0]["residual_sup"],
                         STAGE0_TOL)
                + _at_most("quasidet vs direct",
                           results["quasidet_vs_direct"], qd_tol))
    return check


def symmetric_check(reduction_tol):
    def check(results, record):
        lax = max((s["residual"] for s in results["lax_samples"]
                   if s["residual"] is not None), default=None)
        reduction = (results["reduction"] or {}).get("sup")
        record("reduction_sup", reduction)
        return (_at_most("Lax residual", lax, LAX_TOL)
                + _at_most("first-integral drift",
                           results["first_integral_drift"], DRIFT_TOL)
                + _at_most("reduction residual", reduction, reduction_tol))
    return check


# -- operations --------------------------------------------------------------

def cli_op(name, argv, report, check) -> Op:
    """Run ``ncpain.cli.main`` in-process and check its JSON report."""

    def run(wl):
        out = os.path.join(wl.out_dir, name)
        shutil.rmtree(out, ignore_errors=True)
        text = io.StringIO()
        with contextlib.redirect_stdout(text), \
                contextlib.redirect_stderr(text):
            code = cli.main(argv + ["--out", out])
        problems = [] if code == cli.EXIT_OK else [f"exit code {code}"]
        output = text.getvalue().encode()
        report_path = os.path.join(out, report)
        if not os.path.exists(report_path):
            return problems + ["no report written"], output
        with open(report_path, "rb") as fh:
            raw = fh.read()
        output += without_duration(raw)
        for csv in sorted(f for f in os.listdir(out) if f.endswith(".csv")):
            with open(os.path.join(out, csv), "rb") as fh:
                output += csv.encode() + fh.read()

        def record(key, value):
            wl.values[f"{name}.{key}"] = value

        problems += check(json.loads(raw)["results"], record)
        return problems, output

    return Op(name, run)


def library_op(name, call, check=None) -> Op:
    """One library call on ``wl.state``; its result is kept under ``name``."""

    def run(wl):
        result = call(wl.state)
        wl.state[name] = result
        problems = check(result, wl.state) if check is not None else []
        return problems, _poly_bytes(result)

    return Op(name, run)


def _poly_bytes(p: MoyalPolynomial) -> bytes:
    return repr((p.terms(), p.theta, p.cap, p.approximate)).encode()


# -- inputs ------------------------------------------------------------------

def _phase(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def moyal_matrix(rng, cap):
    """MOYAL_ENTRIES with a random phase on every coefficient."""
    def entry(magnitudes):
        return MoyalPolynomial(
            {key: mag * _phase(rng) for key, mag in magnitudes.items()},
            MOYAL_THETA, cap)

    return quasidet.BlockMatrix([[entry(m) for m in row]
                                 for row in MOYAL_ENTRIES])


def moyal_polys(rng, cap, degree):
    """Three sparse polynomials of the given degree for associativity."""
    polys = []
    for _ in range(3):
        coeffs = {(0, 0): rng.uniform(0.5, 1.0) * _phase(rng)}
        for m in range(degree + 1):
            coeffs[(m, degree - m)] = rng.uniform(0.1, 0.5) * _phase(rng)
        polys.append(MoyalPolynomial(coeffs, MOYAL_THETA, cap))
    return polys


def flow_seed(rng) -> int:
    """A CLI seed whose random 3x3 flow data stay bounded on [0, 2].

    Builds the initial state exactly as ``ncpain symmetric --random-matrix 3
    --normalize`` does and resamples until a coarse pre-flight keeps every
    field below FLOW_MAX_NORM.
    """
    while True:
        seed = int(rng.integers(2 ** 31))
        data = np.random.default_rng(seed)
        v0, v1, v2 = (random_invertible(data, 3, scale=0.5) for _ in range(3))
        state = normalize_first_integral(SymState(v0, v1, v2, 0.5, 1.5, 0.0))
        flow = integrate_symmetric(state, 2.0, 0.01)
        if not flow.truncated and max(
                max(s.v0.norm(), s.v1.norm(), s.v2.norm())
                for s in flow.states) <= FLOW_MAX_NORM:
            return seed


# -- workloads ---------------------------------------------------------------

def suite(seed, size):
    r = RANGES[size]
    checks = {"quasidet": ("quasidet_report.json", check_quasidet),
              "zc-rational": ("zc_report.json", check_zc),
              "zc-random": ("zc_report.json", check_zc),
              "dress": ("dress_report.json", dress_check(QD_TOL)),
              "symmetric": ("symmetric_report.json",
                            symmetric_check(REDUCTION_TOL))}
    ops = []
    for name, argv in SUITE_RUNS:
        argv = [a.format(z=r["suite_z"], t=r["suite_t"]) for a in argv]
        ops.append(cli_op(name, argv, *checks[name]))
    return ops, {}


def dress_heavy(seed, size):
    argv = ["dress", "--N", "4", "--gamma", "i,2i,3i,4i", "--seed",
            "rational", "--C", "4", "--z", RANGES[size]["heavy_z"],
            "--d", "3"]
    return [cli_op("dress", argv, "dress_report.json",
                   dress_check(DRESS_HEAVY_QD_TOL))], {}


def moyal_qd(seed, size):
    rng = np.random.default_rng([seed, 3])
    cap = MOYAL_CAP[size]
    matrix = moyal_matrix(rng, cap)
    f, g, h = moyal_polys(rng, cap, degree=cap // 4)
    x1 = MoyalPolynomial.x1(MOYAL_THETA, cap)
    x2 = MoyalPolynomial.x2(MOYAL_THETA, cap)

    def against_direct(oracle, state):
        diff = (state["quasideterminant"] - oracle).norm()
        return _at_most("|direct - oracle|", diff, QD_TOL)

    def bracket_exact(x2x1, state):
        bracket = state["x1*x2"] - x2x1
        if bracket.coeffs != {(0, 0): 1j * MOYAL_THETA}:
            return [f"x1*x2 - x2*x1 = {bracket!r}, expected i*theta"]
        return []

    def associative(rhs, state):
        diff = state["(f*g)*h"] - rhs
        worst = max((abs(c) for c in diff.coeffs.values()), default=0.0)
        scale = max(1.0, f.norm() * g.norm() * h.norm())
        return _at_most("associativity", worst / scale, ASSOC_TOL)

    def star(a, b):
        # Looked up per call, so a tracer or test sees every product.
        return moyal.star_product(a, b)

    ops = [
        library_op("quasideterminant",
                   lambda s: quasidet.quasideterminant(matrix, 0, 0)),
        library_op("quasideterminant_oracle",
                   lambda s: quasidet.quasideterminant_oracle(matrix, 0, 0),
                   against_direct),
        library_op("x1*x2", lambda s: star(x1, x2)),
        library_op("x2*x1", lambda s: star(x2, x1), bracket_exact),
        library_op("f*g", lambda s: star(f, g)),
        library_op("(f*g)*h", lambda s: star(s["f*g"], h)),
        library_op("g*h", lambda s: star(g, h)),
        library_op("f*(g*h)", lambda s: star(f, s["g*h"]), associative),
    ]
    return ops, {"cap": cap, "theta": MOYAL_THETA}


def flow(seed, size):
    r = RANGES[size]
    cli_seed = flow_seed(np.random.default_rng([seed, 4]))
    common = ["--alpha0", "0.5", "--alpha1", "1.5", "--t", r["flow_t"],
              "--normalize"]
    ops = [
        cli_op("symmetric-matrix",
               ["symmetric", "--random-matrix", "3", "--seed", str(cli_seed)]
               + common, "symmetric_report.json",
               symmetric_check(MATRIX_REDUCTION_TOL)),
        cli_op("symmetric-scalar",
               ["symmetric", "--v0", "0.1", "--v2", "0.3"] + common,
               "symmetric_report.json", symmetric_check(REDUCTION_TOL)),
        cli_op("zc-random",
               ["zc", "--seed-kind", "random", "--d", "3", "--trials",
                r["zc_trials"], "--seed", str(cli_seed)],
               "zc_report.json", check_zc),
    ]
    return ops, {"cli_seed": cli_seed}


MAKERS = {"suite": suite, "dress-heavy": dress_heavy, "moyal-qd": moyal_qd,
            "flow": flow}


def build(name: str, seed: int, size: str, out_dir: str) -> Workload:
    """Make the workload's inputs from ``seed``; ``size`` is full or tiny."""
    ops, inputs = MAKERS[name](seed, size)
    return Workload(ops, out_dir, inputs={"seed": seed, **inputs})
