"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
reported (not asserted) dressing residual.
"""

import json
import time

import numpy as np

from ncpain.ring import MatrixElement, commutator, random_invertible
from ncpain.moyal import MoyalPolynomial, star_product
from ncpain.quasidet import (BlockMatrix, commutative_limit_residual,
                             determinant_ratio, quasideterminant,
                             quasideterminant_oracle)
from ncpain.grid import GridFunction
from ncpain.laxpair import (PiiState, SymState, build_A, build_B, build_L,
                            build_P, first_integral, integrate_symmetric,
                            lax_residual_symmetric, normalize_first_integral,
                            pii_residual_exact, pii_residual_grid,
                            reduction_check, zero_curvature_residual)
from ncpain.dressing import (DressingChain, SpectralPoint, darboux_once,
                             dt_eigenfunctions, integrate_linear,
                             masked_iterated, masked_n_fold,
                             stage_eigenfunctions)
from ncpain.cli import main
from ncpain.solutions import seed_jets, seed_value

from conftest import all_quasideterminants, n_fold

LAMBDAS = (1.0 + 0j, 1j, 2 - 3j)


def report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({detail})")


def gaussian(rng, d):
    return MatrixElement(rng.standard_normal((d, d))
                         + 1j * rng.standard_normal((d, d)))


def test_criterion_1_zero_curvature_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_diag = 0.0
    worst_identity = 0.0
    for trial in range(100):
        d = (trial % 4) + 1
        v, v_z, v_zz = gaussian(rng, d), gaussian(rng, d), gaussian(rng, d)
        z = complex(rng.standard_normal(), rng.standard_normal())
        c_val = complex(rng.standard_normal(), rng.standard_normal())
        for lam in LAMBDAS:
            s = PiiState(v, v_z, v_zz, z, lam, c_val)
            res = zero_curvature_residual(s)
            pii = pii_residual_exact(v, v_zz, z, c_val)
            scale = max(1.0, build_A(s).norm() * build_B(v, lam).norm())
            worst_diag = max(worst_diag,
                             res.entry(0, 0).norm() / scale,
                             res.entry(1, 1).norm() / scale)
            worst_identity = max(
                worst_identity,
                (res.entry(0, 1) + 1j * pii).norm() / scale,
                (res.entry(1, 0) - 1j * pii).norm() / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_diag <= 1e-12 and worst_identity <= 1e-12 and elapsed < 1.0
    report_line(1, ok, f"diag {worst_diag:.2e}, identity "
                       f"{worst_identity:.2e}, {elapsed:.2f}s")
    assert worst_diag <= 1e-12
    assert worst_identity <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_rational_seed():
    t0 = time.perf_counter()
    worst_exact = 0.0
    worst_curvature = 0.0
    worst_grid = 0.0
    for sign, c_val in ((1, 4.0), (-1, -4.0)):
        z = np.linspace(1.0, 2.0, 7)
        v, v_z, v_zz = seed_jets(sign, z, 2)
        worst_exact = max(worst_exact, pii_residual_exact(
            v, v_zz, z, c_val).point_norms().max())
        for lam in LAMBDAS:
            s = PiiState(v, v_z, v_zz, z, lam, c_val)
            worst_curvature = max(
                worst_curvature,
                zero_curvature_residual(s).point_norms().max())
        scalar_v, _, _ = seed_jets(sign, 1.0 + 1e-3 * np.arange(1001), 1)
        grid = GridFunction(1.0, 1e-3, scalar_v)
        worst_grid = max(worst_grid,
                         pii_residual_grid(grid, c_val).sup_norm())
    elapsed = time.perf_counter() - t0
    ok = (worst_exact <= 1e-13 and worst_grid <= 1e-5
          and worst_curvature <= 1e-12 and elapsed < 1.0)
    report_line(2, ok, f"exact {worst_exact:.2e}, grid {worst_grid:.2e}, "
                       f"curvature {worst_curvature:.2e}, {elapsed:.2f}s")
    assert worst_exact <= 1e-13
    assert worst_grid <= 1e-5
    assert worst_curvature <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_quasideterminants():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst_oracle = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        mat = BlockMatrix([[random_invertible(rng, d, max_condition=1e3)
                            for _ in range(n)] for _ in range(n)])
        arr = np.block([[mat.entry(i, j).data for j in range(n)]
                        for i in range(n)])
        if np.linalg.cond(arr) > 1e4:
            continue
        for i in range(n):
            for j in range(n):
                direct = quasideterminant(mat, i, j)
                oracle = quasideterminant_oracle(mat, i, j)
                worst_oracle = max(worst_oracle, (direct - oracle).norm()
                                   / max(1.0, oracle.norm()))

    worst_commutative = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        while True:
            arr = rng.standard_normal((n, n))
            if np.linalg.cond(arr) <= 1e4:
                break
        mat = BlockMatrix([[MatrixElement.scalar(arr[i, j])
                            for j in range(n)] for i in range(n)])
        for i in range(n):
            for j in range(n):
                # positions whose deleted submatrix is ill-conditioned are
                # outside the operation's own precondition
                sub = np.delete(np.delete(arr, i, axis=0), j, axis=1)
                if sub.size and np.linalg.cond(sub) > 1e4:
                    continue
                value = abs(determinant_ratio(mat, i, j))
                worst_commutative = max(
                    worst_commutative,
                    commutative_limit_residual(mat, i, j) / max(1.0, value))

    mat3 = BlockMatrix([[random_invertible(rng, 2, max_condition=1e2)
                         for _ in range(3)] for _ in range(3)])
    nine = all_quasideterminants(mat3)
    count = sum(len(row) for row in nine)

    elapsed = time.perf_counter() - t0
    ok = (worst_oracle <= 1e-8 and worst_commutative <= 1e-10
          and count == 9 and elapsed < 5.0)
    report_line(3, ok, f"oracle {worst_oracle:.2e}, commutative "
                       f"{worst_commutative:.2e}, 3x3 count {count}, "
                       f"{elapsed:.2f}s")
    assert worst_oracle <= 1e-8
    assert worst_commutative <= 1e-10
    assert count == 9
    assert elapsed < 5.0


def test_criterion_4_moyal_ring():
    rng = np.random.default_rng(4)
    theta = 0.37
    t0 = time.perf_counter()
    x1 = MoyalPolynomial.x1(theta)
    x2 = MoyalPolynomial.x2(theta)
    bracket = commutator(x1, x2)
    bracket_exact = bracket.coeffs == {(0, 0): 1j * theta}

    def random_poly(th):
        coeffs = {}
        for _ in range(4):
            m = int(rng.integers(0, 5))
            n = int(rng.integers(0, 5 - m))
            coeffs[(m, n)] = complex(rng.uniform(-0.5, 0.5),
                                     rng.uniform(-0.5, 0.5))
        return MoyalPolynomial(coeffs, th)

    worst_assoc = 0.0
    for _ in range(50):
        f, g, h = (random_poly(theta) for _ in range(3))
        lhs = star_product(star_product(f, g), h)
        rhs = star_product(f, star_product(g, h))
        diff = lhs - rhs
        scale = max(1.0, f.norm() * g.norm() * h.norm())
        worst = max((abs(c) for c in diff.coeffs.values()), default=0.0)
        worst_assoc = max(worst_assoc, worst / scale)

    pointwise_exact = True
    for _ in range(10):
        f, g = random_poly(0.0), random_poly(0.0)
        product = star_product(f, g)
        expected = {}
        for (m1, n1), c1 in f.coeffs.items():
            for (m2, n2), c2 in g.coeffs.items():
                key = (m1 + m2, n1 + n2)
                expected[key] = expected.get(key, 0j) + c1 * c2
        expected = {k: v for k, v in expected.items() if v != 0}
        pointwise_exact = pointwise_exact and product.coeffs == expected

    elapsed = time.perf_counter() - t0
    ok = (bracket_exact and worst_assoc <= 1e-12 and pointwise_exact
          and elapsed < 1.0)
    report_line(4, ok, f"bracket exact {bracket_exact}, associativity "
                       f"{worst_assoc:.2e}, theta=0 exact {pointwise_exact}, "
                       f"{elapsed:.2f}s")
    assert bracket_exact
    assert worst_assoc <= 1e-12
    assert pointwise_exact
    assert elapsed < 1.0


def test_criterion_5_symmetric_lax():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    worst_lax = 0.0
    for trial in range(100):
        d = (trial % 3) + 1
        s = SymState(random_invertible(rng, d),
                     random_invertible(rng, d),
                     gaussian(rng, d),
                     complex(rng.standard_normal(), rng.standard_normal()),
                     complex(rng.standard_normal(), rng.standard_normal()))
        res = lax_residual_symmetric(s)
        scale = max(1.0, build_L(s).norm() * build_P(s).norm())
        worst_lax = max(worst_lax, res.norm() / scale)

    s0 = normalize_first_integral(
        SymState(MatrixElement.scalar(0.1), MatrixElement.scalar(1.0),
                 MatrixElement.scalar(0.3), 0.5, 1.5, 0.0))
    flow = integrate_symmetric(s0, 1.0, 1e-3)
    assert not flow.truncated
    f0 = first_integral(flow.states[0])
    drift = max((first_integral(s) - f0).norm() for s in flow.states)
    reduction = reduction_check(flow.path).sup_norm()

    elapsed = time.perf_counter() - t0
    ok = (worst_lax <= 1e-12 and drift <= 1e-8 and reduction <= 1e-5
          and elapsed < 10.0)
    report_line(5, ok, f"lax {worst_lax:.2e}, drift {drift:.2e}, "
                       f"reduction {reduction:.2e}, {elapsed:.2f}s")
    assert worst_lax <= 1e-12
    assert drift <= 1e-8
    assert reduction <= 1e-5
    assert elapsed < 10.0


def test_criterion_6_darboux_pipeline():
    t0 = time.perf_counter()
    one = MatrixElement.eye(1)
    z0, h, n = 1.0, 1e-3, 1001
    zs = z0 + h * np.arange(n)
    seed = GridFunction(z0, h, seed_value(1, zs, 1))

    points = []
    for gamma in (1j, 2j):
        [(chi, phi)] = integrate_linear(lambda z: seed_value(1, z, 1),
                                        [gamma], (one, one), z0, h, n)
        points.append(SpectralPoint(gamma, chi, phi))
    chain = DressingChain(tuple(points), seed)

    # N = 1: quasideterminant eigenfunctions equal the direct formulas
    *_, qd_pair = stage_eigenfunctions(points, lambda pivot, k: pivot.inv())
    qd_chi, qd_phi = (GridFunction(z0, h, f) for f in qd_pair[:2])
    dr_chi, dr_phi = dt_eigenfunctions(points[1].gamma, points[1].chi,
                                       points[1].phi, points[0].gamma,
                                       points[0].chi, points[0].phi)
    scale1 = max(1.0, dr_chi.sup_norm(), dr_phi.sup_norm())
    eig_diff = max(
        max((a - b).norm() for a, b in zip(qd_chi, dr_chi)),
        max((a - b).norm() for a, b in zip(qd_phi, dr_phi)),
    ) / scale1

    # N = 2: product of stage factors equals literal iteration
    v2_product = n_fold(chain, 2)
    v2_iterated, v2_mask = masked_iterated(chain, 2)
    assert v2_mask.all()
    scale2 = max(1.0, v2_iterated.sup_norm())
    compose_diff = max((a - b).norm() for a, b in
                       zip(v2_product, v2_iterated)) / scale2

    # zero seed is an exact fixed point
    zero_seed = GridFunction(z0, h, seed_value(0, zs, 1))
    zero_chain = DressingChain(tuple(points), zero_seed)
    zero_norm = n_fold(zero_chain, 2).sup_norm()

    # d = 1 commutative path equals the matrix path with d = 1
    p = points[0]
    dressed = darboux_once(seed, p)
    commutative_diff = 0.0
    for k in range(0, n, 25):
        chi = p.chi[k].data[0, 0]
        phi = p.phi[k].data[0, 0]
        v = seed[k].data[0, 0]
        expected = (phi / chi) ** 2 * v
        commutative_diff = max(
            commutative_diff,
            abs(dressed[k].data[0, 0] - expected)
            / max(1.0, abs(expected)))

    # reported, not asserted: equation residual of the dressed solution
    grids, masks = masked_n_fold(chain, 1)
    stencil_ok = masks[1][:-2] & masks[1][1:-1] & masks[1][2:]
    v1_residual = pii_residual_grid(grids[1], 4.0).sup_norm(stencil_ok)
    masked_fraction = float(1.0 - masks[1].mean())

    elapsed = time.perf_counter() - t0
    ok = (eig_diff <= 1e-10 and compose_diff <= 1e-10
          and zero_norm == 0.0 and commutative_diff <= 1e-12
          and elapsed < 30.0)
    report_line(6, ok, f"eigfns {eig_diff:.2e}, composition "
                       f"{compose_diff:.2e}, zero seed {zero_norm}, "
                       f"commutative {commutative_diff:.2e}, {elapsed:.2f}s")
    print(f"  dressed-solution residual (reported, no threshold): "
          f"sup {v1_residual:.6e}, masked fraction {masked_fraction:.3f}")
    assert eig_diff <= 1e-10
    assert compose_diff <= 1e-10
    assert zero_norm == 0.0
    assert commutative_diff <= 1e-12
    assert np.isfinite(v1_residual)
    assert elapsed < 30.0


def test_criterion_7_determinism_and_interface(tmp_path):
    t0 = time.perf_counter()

    def strip_duration(path):
        data = json.loads(path.read_text(encoding="utf-8"))
        data.pop("duration_s", None)
        return json.dumps(data, sort_keys=True)

    json_same = True
    csv_same = True
    for args, report_name in (
        (["zc", "--seed-kind", "random", "--d", "2", "--seed", "9"],
         "zc_report.json"),
        (["dress", "--N", "1", "--gamma", "i", "--seed", "rational",
          "--C", "4", "--z", "1:1.1:0.002"], "dress_report.json"),
    ):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(args + ["--out", str(out)]) == 0
        json_same = json_same and (strip_duration(out_a / report_name)
                                   == strip_duration(out_b / report_name))
        for csv in out_a.glob("*.csv"):
            csv_same = csv_same and (csv.read_bytes()
                                     == (out_b / csv.name).read_bytes())

    usage = main(["zc", "--lambda", "0", "--out", str(tmp_path)])
    numerical = main(["quasidet", "--inline", "[[1,1],[1,1]]",
                      "--pos", "1", "1", "--out", str(tmp_path)])
    truncated = main(["symmetric", "--v0", "-0.05", "--v1", "1",
                      "--v2", "0", "--alpha0", "1", "--alpha1", "0",
                      "--t", "0:1:0.001", "--min-cond", "1e-2",
                      "--out", str(tmp_path)])
    success = main(["quasidet", "--identity", "2", "--pos", "1", "1",
                    "--out", str(tmp_path)])

    elapsed = time.perf_counter() - t0
    codes_ok = (usage, numerical, truncated, success) == (1, 2, 3, 0)
    ok = json_same and csv_same and codes_ok
    report_line(7, ok, f"json identical {json_same}, csv identical "
                       f"{csv_same}, exit codes {(usage, numerical, truncated, success)}, "
                       f"{elapsed:.2f}s")
    assert json_same
    assert csv_same
    assert codes_ok
