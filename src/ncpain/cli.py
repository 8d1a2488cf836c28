"""Command-line front end for the verification experiments.

Subcommands: ``quasidet``, ``zc``, ``dress``, ``symmetric``.  Each is run
by a ``run_*(args)`` function that prints its summary and returns
``(parameters, results, exit_code)``; ``main`` times it and
writes ``<subcommand>_report.json`` to ``--out``.  The parser checks the
arguments; input the library rejects raises ``ValueError``.  Exit codes:
0 success, 1 usage error (bad arguments or input, an unreadable ``--file``
or an unwritable ``--out``), 2 numerical failure (near-singular data, or a
``zc`` residual that overflows), 3 truncated flow.  Reports are
deterministic for fixed parameters and seed apart from the duration field.
A value may start with a minus sign (``--z -1:-0.99:0.001``).  A reader
closing stdout early changes neither the exit code nor the report.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from .dressing import (DressingChain, SpectralPoint, integrate_linear,
                       masked_iterated, masked_n_fold)
from .grid import MIN_STENCIL_LENGTH, GridFunction
from .laxpair import (NORMALIZED_ALPHA_SUM, STENCIL_BLOCK, PiiState,
                      SymState, build_A, build_B, first_integral_drift,
                      integrate_symmetric, lax_residual_symmetric,
                      normalize_first_integral, pii_residual_exact,
                      pii_residual_grid, reduction_check,
                      zero_curvature_residual)
from .quasidet import (BlockMatrix, quasideterminant, quasideterminant_oracle)
from .reports import ExperimentReport, write_grid_csv
from .ring import (COND_FLOOR, MatrixElement, NearSingularError,
                   random_invertible)
from .solutions import SEED_SIGNS, seed_constant, seed_function, seed_jets

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_TRUNCATED = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as a value only if
        # it is a plain negative number; also read "-1:-0.99:0.001", "-1,i"
        # and "-i" so (no option here is "-" and a digit, "." or i/j).
        self._negative_number_matcher = re.compile(r"-\.?[\dij]", re.I)

    def error(self, message):
        raise ValueError(message)


def positive_int(text: str) -> int:
    """argparse type for sizes and counts."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_float(text: str) -> float:
    """argparse type for thresholds: a finite float >= 0."""
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"need a finite value >= 0: {text}")
    return value


# benchmark/run.py records it; ROADMAP item 5 deletes it.
def max_workers() -> int:
    return 1


# benchmark/tracing.py wraps it; ROADMAP item 5 deletes it.
def _pool_map(fn, items):
    return [fn(x) for x in items]


def _print(*args, **kwargs):
    """print() to stdout; once the reader has gone, output is discarded."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        # Later writes, and the flush at interpreter exit, then succeed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}")
    if not np.isfinite(value):
        raise ValueError(f"number must be finite, got {text!r}")
    return value


def parse_complex_list(text: str) -> list[complex]:
    return [parse_complex(part) for part in text.split(",") if part]


def parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    try:
        z0, z1, h = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"range must be numeric, got {text!r}")
    if not (h > 0 and z1 > z0):
        raise ValueError("range needs stop > start and step > 0")
    steps = (z1 - z0) / h
    if not np.isfinite(steps):
        raise ValueError(f"range must be finite, got {text!r}")
    n = round(steps) + 1
    if n < 2 or abs((n - 1) * h - (z1 - z0)) > 1e-9 * max(1.0, z1 - z0):
        raise ValueError("range is not an integral number of steps")
    return z0, h, n


def _number_from_json(node) -> complex:
    # parse_complex read the numbers; bools are ints, NaN stays a float.
    if isinstance(node, (int, complex)):
        return complex(node)
    if isinstance(node, str):
        return parse_complex(node)
    raise ValueError(f"cannot read matrix entry {node!r}")


def _entry_from_json(node) -> MatrixElement:
    if not isinstance(node, list):
        return MatrixElement.scalar(_number_from_json(node))
    if not all(isinstance(row, list) for row in node):
        raise ValueError("matrix entry rows must be lists")
    return MatrixElement(np.array([[_number_from_json(x) for x in row]
                                   for row in node], dtype=complex))


def _matrix_from_json(text: str) -> BlockMatrix:
    try:
        data = json.loads(text, parse_float=parse_complex,
                          parse_int=parse_complex)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid matrix JSON: {exc}")
    if not isinstance(data, list) or not data:
        raise ValueError("matrix JSON must be a non-empty list of rows")
    return BlockMatrix([[_entry_from_json(x) for x in row] for row in data])


def _matrix_value(el: MatrixElement):
    if el.d == 1:
        return complex(el.data[0, 0])
    return el.data.tolist()


# -- quasidet ---------------------------------------------------------------

def run_quasidet(args):
    if args.inline is not None:
        matrix = _matrix_from_json(args.inline)
        source = {"kind": "inline", "text": args.inline}
    elif args.file is not None:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        matrix = _matrix_from_json(text)
        source = {"kind": "file", "path": args.file}
    elif args.identity is not None:
        matrix = BlockMatrix([[MatrixElement.scalar(float(i == j))
                               for j in range(args.identity)]
                              for i in range(args.identity)])
        source = {"kind": "identity", "n": args.identity}
    else:
        n, d = args.random
        rng = np.random.default_rng(args.seed)
        matrix = BlockMatrix([[random_invertible(rng, d)
                               for _ in range(n)] for _ in range(n)])
        source = {"kind": "random", "n": n, "d": d, "seed": args.seed}
    i, j = args.pos
    if not (1 <= i <= matrix.n and 1 <= j <= matrix.n):
        raise ValueError(f"position ({i},{j}) outside {matrix.n}x{matrix.n}")

    value = quasideterminant(matrix, i - 1, j - 1)
    oracle = quasideterminant_oracle(matrix, i - 1, j - 1)
    diff = (value - oracle).norm()
    rel = diff / max(1.0, value.norm())
    _print(f"quasideterminant ({i},{j}): {_matrix_value(value)}")
    _print(f"oracle value:            {_matrix_value(oracle)}")
    _print(f"discrepancy:             {rel:.6e}")

    parameters = {"source": source, "pos": [i, j], "seed": args.seed}
    results = {
        "value": _matrix_value(value),
        "oracle": _matrix_value(oracle),
        "discrepancy_abs": diff,
        "discrepancy_rel": rel,
    }
    return parameters, results, EXIT_OK


# -- zc ----------------------------------------------------------------------

def _zc_case_stats(state: PiiState) -> dict:
    """Each key's value for every case stacked along the batch axis."""
    res = zero_curvature_residual(state)
    a = build_A(state)
    b = build_B(state.v, state.lam)
    scale = np.fmax(1.0, a.point_norms() * b.point_norms())
    pii = pii_residual_exact(state.v, state.v_zz, state.z, state.C)
    one_minus = res.entry(0, 1) + 1j * pii
    one_plus = res.entry(1, 0) - 1j * pii
    stats = {
        "e11": res.entry(0, 0).point_norms() / scale,
        "e22": res.entry(1, 1).point_norms() / scale,
        "e12_identity": one_minus.point_norms() / scale,
        "e21_identity": one_plus.point_norms() / scale,
        "full": res.point_norms() / scale,
    }
    if not np.isfinite([scale, *stats.values()]).all():
        raise OverflowError("the residual or its scale is not finite")
    return stats


def run_zero_curvature(args):
    lambdas = parse_complex_list(args.lam)
    if not lambdas:
        raise ValueError("--lambda needs at least one value")
    kind = args.seed_kind

    # Random cases without --C each draw their own C; None is recorded.
    c_val = parse_complex(args.C) if args.C is not None else None
    if kind in SEED_SIGNS:
        s = SEED_SIGNS[kind]
        if c_val is None:
            c_val = seed_constant(s)
        z = np.linspace(1.0, 2.0, 9)
        blocks = [[*seed_jets(s, z, args.d), z, c_val]]
    else:
        # A row per case: v, v_z, v_zz (real, then imaginary), z, C if drawn.
        d2 = 6 * args.d ** 2
        draws = np.random.default_rng(args.seed).standard_normal(
            (args.trials, d2 + (4 if c_val is None else 2)))
        m = draws[:, :d2].reshape(-1, 3, 2, args.d, args.d)
        v = (m[:, :, 0] + 1j * m[:, :, 1]).swapaxes(0, 1)
        # Python numbers: numpy's complex scalars would round build_A apart.
        z, *c = draws[:, d2:].view(complex).T.tolist()
        # Blocks of cases stacked along the batch axis, z and C one per case.
        blocks = [[*map(MatrixElement, v[:, k]), z[k], c[0][k] if c else c_val]
                  for k in (slice(lo, lo + STENCIL_BLOCK)
                            for lo in range(0, args.trials, STENCIL_BLOCK))]

    def sweep(lam):
        # numpy overflows show in the finiteness check of each case; Python
        # complex arithmetic (lam ** 2 in build_A) raises OverflowError.
        try:
            stats = [_zc_case_stats(PiiState(v, v_z, v_zz, z, lam, c))
                     for v, v_z, v_zz, z, c in blocks]
        except OverflowError as exc:
            raise FloatingPointError(
                f"zero-curvature check overflows at lambda = {lam}: {exc}"
            ) from None
        return {key: float(max(s[key].max() for s in stats))
                for key in stats[0]}

    per_lambda = _pool_map(sweep, lambdas)
    overall = {key: max(p[key] for p in per_lambda)
               for key in per_lambda[0]}
    for lam, stats in zip(lambdas, per_lambda):
        _print(f"lambda = {lam}: max diagonal residual "
               f"{max(stats['e11'], stats['e22']):.3e}, "
               f"identity residual {stats['e12_identity']:.3e}")
    _print(f"overall max entry(1,2) identity residual: "
           f"{overall['e12_identity']:.3e}")

    parameters = {
        "seed_kind": kind, "d": args.d,
        "lambdas": lambdas, "C": c_val,
        "trials": args.trials, "seed": args.seed,
    }
    results = {
        "per_lambda": [{"lambda": lam, **stats}
                       for lam, stats in zip(lambdas, per_lambda)],
        "overall": overall,
    }
    return parameters, results, EXIT_OK


# -- dress --------------------------------------------------------------------

def _residual_stats(grid: GridFunction, mask: np.ndarray, c_val: complex
                    ) -> dict:
    residual = pii_residual_grid(grid, c_val)
    ok = mask[:-2] & mask[1:-1] & mask[2:]
    return {
        "masked_fraction": float(1.0 - mask.mean()),
        "stencil_points": int(ok.sum()),
        "residual_sup": residual.sup_norm(ok) if ok.any() else None,
        "residual_mean": residual.mean_norm(ok) if ok.any() else None,
    }


def run_dressing(args):
    gammas = parse_complex_list(args.gamma)
    z0, h, n = parse_range(args.z)
    # RK4 samples the seed between grid points too, so the whole range
    # (up to parse_range's tolerance on its stop) must miss the pole.
    z_end = z0 + (n - 1) * h
    s = SEED_SIGNS[args.seed]
    if s != 0 and z0 <= 0.0 <= z_end + 1e-9 * max(1.0, z_end - z0):
        raise ValueError(f"--seed {args.seed} has a pole at z = 0, "
                         f"inside --z {args.z}")
    c_val = parse_complex(args.C) if args.C is not None else seed_constant(s)
    eye = MatrixElement.eye(args.d)
    v, _, _ = seed_jets(s, z0 + h * np.arange(n), args.d)
    pairs = (integrate_linear(seed_function(s, args.d), gammas, (eye, eye),
                              z0, h, n) if gammas else [])
    points = [SpectralPoint(g, chi, phi)
              for g, (chi, phi) in zip(gammas, pairs)]
    chain = DressingChain(tuple(points), GridFunction(z0, h, v))

    grids, masks = masked_n_fold(chain, args.N)
    stage_stats = []
    for k, (grid, mask) in enumerate(zip(grids, masks)):
        stats = _residual_stats(grid, mask, c_val)
        stage_stats.append({"stage": k, **stats})
        write_grid_csv(os.path.join(args.out, f"dress_v{k}.csv"), grid)
        sup = stats["residual_sup"]
        _print(f"stage {k}: residual sup "
               f"{'n/a' if sup is None else format(sup, '.3e')}, "
               f"masked fraction {stats['masked_fraction']:.3f}")

    discrepancy = None
    if args.N >= 1:
        direct, direct_mask = masked_iterated(chain, args.N)
        common = masks[args.N] & direct_mask
        if common.any():
            diffs = (grids[args.N].batch - direct.batch).point_norms()
            ref = max(grids[args.N].sup_norm(common), 1.0)
            discrepancy = float(diffs[common].max()) / ref
            _print(f"quasideterminant vs direct discrepancy: "
                   f"{discrepancy:.3e}")

    parameters = {
        "N": args.N, "gammas": gammas, "seed_kind": args.seed,
        "C": c_val, "z0": z0, "h": h, "points": n, "d": args.d,
    }
    results = {
        "stages": stage_stats,
        "quasidet_vs_direct": discrepancy,
    }
    return parameters, results, EXIT_OK


# -- symmetric ----------------------------------------------------------------

FIELD_DEFAULTS = {"v0": "0.1", "v1": "1", "v2": "0.3"}


def _lax_samples(samples: SymState) -> list[dict]:
    """Per position of the batched ``samples``: its time and its Lax
    residual relative to the norms of its fields, or the refusal of an
    inverse there.  A refusal's message gives the condition number of its
    first refused position, so that position is dropped and the rest
    rerun: each refused sample reports what it raises alone."""
    residuals = np.full(len(samples.t), np.nan)
    errors = {}
    keep = np.arange(len(samples.t))
    while keep.size:
        batch = samples.at(keep)
        try:
            res = lax_residual_symmetric(batch)
        except NearSingularError as exc:
            errors[int(keep[exc.indices[0]])] = str(exc)
            keep = np.delete(keep, exc.indices[0])
        else:
            scale = np.fmax(1.0, batch.v0.point_norms()
                            + batch.v1.point_norms() + batch.v2.point_norms())
            residuals[keep] = res.point_norms() / scale
            break
    return [{"t": t, "residual": None, "error": errors[k]} if k in errors
            else {"t": t, "residual": r}
            for k, (t, r) in enumerate(zip(samples.t.tolist(),
                                           residuals.tolist()))]


def run_symmetric(args):
    t0, h, n = parse_range(args.t)
    given = {k: getattr(args, k) for k in FIELD_DEFAULTS
             if getattr(args, k) is not None}
    if args.random_matrix is not None and given:
        raise ValueError("--random-matrix draws v0, v1 and v2; "
                         f"drop --{next(iter(given))}")
    if args.normalize and "v1" in given:
        raise ValueError("--normalize sets v1 from the first integral; "
                         "drop --v1")
    if args.random_matrix is not None:
        d = args.random_matrix
        rng = np.random.default_rng(args.seed)
        v0, v1, v2 = (random_invertible(rng, d, scale=0.5) for _ in range(3))
        data_desc = {"kind": "random", "d": d, "seed": args.seed}
    else:
        fields = {k: parse_complex(given.get(k, default))
                  for k, default in FIELD_DEFAULTS.items()}
        v0, v1, v2 = (MatrixElement.scalar(x) for x in fields.values())
        data_desc = {"kind": "scalar", **fields}
    alpha0 = parse_complex(args.alpha0)
    alpha1 = parse_complex(args.alpha1)
    state = SymState(v0, v1, v2, alpha0, alpha1, t0)
    if args.normalize:
        if abs(alpha0 + alpha1 - NORMALIZED_ALPHA_SUM) > 1e-12:
            raise ValueError("--normalize requires alpha0 + alpha1 = 2")
        state = normalize_first_integral(state)
        data_desc["v1"] = _matrix_value(state.v1)

    flow = integrate_symmetric(state, t0 + (n - 1) * h, h,
                               min_condition=args.min_cond)
    path = flow.path
    covered = len(path.t)

    sample_idx = sorted({round(i * (covered - 1) / 10) for i in range(11)})
    lax_samples = _lax_samples(path.at(sample_idx))

    drift = first_integral_drift(path)

    reduction = None
    if args.normalize and not flow.truncated and covered >= MIN_STENCIL_LENGTH:
        residual = reduction_check(path)
        reduction = {"sup": residual.sup_norm(),
                     "mean": residual.mean_norm()}

    lax_worst = max((s["residual"] for s in lax_samples
                     if s["residual"] is not None), default=None)
    if lax_worst is not None:
        _print(f"max sampled Lax residual: {lax_worst:.3e}")
    _print(f"first-integral drift: {drift:.3e}")
    if reduction is not None:
        _print(f"reduction residual sup: {reduction['sup']:.3e}")
    if flow.truncated:
        print(f"flow truncated: {flow.reason}", file=sys.stderr)

    parameters = {
        "data": data_desc, "alpha0": alpha0, "alpha1": alpha1,
        "t0": t0, "h": h, "steps": n - 1,
        "normalize": bool(args.normalize), "min_cond": args.min_cond,
        "seed": args.seed,
    }
    results = {
        "truncated": flow.truncated,
        "truncation_reason": flow.reason,
        "states_covered": covered,
        "lax_samples": lax_samples,
        "first_integral_drift": drift,
        "reduction": reduction,
    }
    return parameters, results, EXIT_TRUNCATED if flow.truncated else EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ncpain",
                     description="Noncommutative Painleve II experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_q = sub.add_parser("quasidet", help="quasideterminant vs oracle")
    source = p_q.add_mutually_exclusive_group(required=True)
    source.add_argument("--inline", help="matrix as JSON rows")
    source.add_argument("--file", help="path to a JSON matrix")
    source.add_argument("--identity", type=positive_int,
                        help="n x n scalar identity matrix")
    source.add_argument("--random", type=positive_int, nargs=2,
                        metavar=("N", "D"),
                        help="random invertible N x N matrix of D x D entries")
    p_q.add_argument("--pos", type=int, nargs=2, required=True,
                     metavar=("I", "J"), help="1-based position")
    p_q.add_argument("--seed", type=int, default=0)
    p_q.set_defaults(run=run_quasidet, experiment="quasidet")

    p_z = sub.add_parser("zc", help="zero-curvature residual checks")
    p_z.add_argument("--seed-kind", default="random",
                     choices=("rational", "rational-neg", "random"))
    p_z.add_argument("--d", type=positive_int, default=2)
    p_z.add_argument("--C", default=None)
    p_z.add_argument("--lambda", dest="lam", default="1,i,2-3i")
    p_z.add_argument("--trials", type=positive_int, default=25)
    p_z.add_argument("--seed", type=int, default=0)
    p_z.set_defaults(run=run_zero_curvature, experiment="zero_curvature")

    p_d = sub.add_parser("dress", help="Darboux dressing pipeline")
    p_d.add_argument("--N", type=int, required=True, choices=range(5))
    p_d.add_argument("--gamma", default="",
                     help="comma-separated dressing parameters")
    p_d.add_argument("--seed", default="rational",
                     choices=tuple(SEED_SIGNS), help="seed solution")
    p_d.add_argument("--C", help="P-II constant (default 4s, at which the "
                     "seed v = s/z solves P-II)")
    p_d.add_argument("--z", default="1:2:0.001", help="grid start:stop:step")
    p_d.add_argument("--d", type=positive_int, default=1)
    p_d.set_defaults(run=run_dressing, experiment="dressing")

    p_s = sub.add_parser("symmetric", help="symmetric three-field flow")
    for k, default in FIELD_DEFAULTS.items():
        p_s.add_argument(f"--{k}", help=f"scalar value (default {default})")
    p_s.add_argument("--random-matrix", type=positive_int,
                     help="use random d x d matrix data")
    p_s.add_argument("--alpha0", default="0.5")
    p_s.add_argument("--alpha1", default="1.5")
    p_s.add_argument("--t", default="0:1:0.001", help="flow start:stop:step")
    p_s.add_argument("--normalize", action="store_true",
                     help="zero the first integral (needs alpha sum 2)")
    p_s.add_argument("--min-cond", type=nonnegative_float, default=COND_FLOOR)
    p_s.add_argument("--seed", type=int, default=0)
    p_s.set_defaults(run=run_symmetric, experiment="symmetric")

    for p in sub.choices.values():
        p.add_argument("--out", default=".")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t_start = time.perf_counter()
        # Overflow shows as an exit code, a mask, a truncation or inf/nan.
        with np.errstate(all="ignore"):
            parameters, results, code = args.run(args)
        ExperimentReport(args.experiment, parameters, results,
                         time.perf_counter() - t_start
                         ).write(args.out, f"{args.command}_report.json")
    except (ValueError, OSError) as exc:
        # OSError: an unreadable --file or an unwritable --out
        print(f"usage error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except (NearSingularError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    _print(end="", flush=True)  # a closed pipe shows here, not at exit
    return code


if __name__ == "__main__":
    sys.exit(main())
