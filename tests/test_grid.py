import numpy as np
import pytest

from ncpain.ring import MatrixElement
from ncpain.grid import GridFunction
from ncpain.reports import write_grid_csv


def test_sampling_and_axis():
    f = GridFunction.sample(lambda z: MatrixElement.scalar(z ** 2),
                            1.0, 0.25, 5)
    assert len(f) == 5
    assert f.z(4) == pytest.approx(2.0)
    assert np.allclose(f.zs(), [1.0, 1.25, 1.5, 1.75, 2.0])
    assert f[2].data[0, 0] == pytest.approx(2.25)


def test_norms_and_mask():
    vals = [MatrixElement.scalar(x) for x in (1.0, -3.0, 2.0)]
    f = GridFunction(0.0, 1.0, tuple(vals))
    assert f.sup_norm() == pytest.approx(3.0)
    assert f.mean_norm() == pytest.approx(2.0)
    assert f.sup_norm(mask=[True, False, True]) == pytest.approx(2.0)


def test_same_grid_and_allclose():
    a = GridFunction.sample(lambda z: MatrixElement.scalar(z), 0.0, 0.1, 6)
    b = GridFunction.sample(lambda z: MatrixElement.scalar(z), 0.0, 0.1, 6)
    c = GridFunction.sample(lambda z: MatrixElement.scalar(z), 0.5, 0.1, 6)
    assert a.same_grid(b) and a.allclose(b)
    assert not a.same_grid(c)


def test_validation():
    with pytest.raises(ValueError):
        GridFunction(0.0, -1.0, (MatrixElement.scalar(1.0),))
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, ())


def test_batched_storage_and_access():
    vals = [MatrixElement([[x, 1.0], [0.0, x]]) for x in (1.0, 2.0, 3.0, 4.0)]
    f = GridFunction(0.0, 0.5, vals)
    assert f.batch.data.shape == (4, 2, 2)
    assert [v.data.tolist() for v in f.values] == [v.data.tolist()
                                                   for v in vals]
    assert np.array_equal(f[2].data, vals[2].data)
    assert f[1:3].data.shape == (2, 2, 2)
    same = GridFunction(0.0, 0.5, f.batch)
    assert same.allclose(f)
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.5, MatrixElement.eye(2))


def test_norms_match_pointwise_loop_exactly(rng):
    vals = [MatrixElement(rng.standard_normal((3, 3))
                          + 1j * rng.standard_normal((3, 3)))
            for _ in range(50)]
    f = GridFunction(0.0, 0.1, vals)
    norms = [v.norm() for v in vals]
    mask = [k % 3 != 0 for k in range(50)]
    kept = [x for x, ok in zip(norms, mask) if ok]
    assert f.sup_norm() == max(norms)
    assert f.mean_norm() == sum(norms) / len(norms)
    assert f.mean_norm(mask) == sum(kept) / len(kept)


def test_csv_rows_match_pointwise_formatting(tmp_path):
    vals = [MatrixElement([[1.5, -0.0], [2e-300j, float("nan")]]),
            MatrixElement([[-1 / 3, 1e20], [0.1 + 0.2j, -7.0]])]
    f = GridFunction(1.0, 0.001, vals)
    write_grid_csv(str(tmp_path / "g.csv"), f)
    rows = (tmp_path / "g.csv").read_text(encoding="utf-8").splitlines()[1:]
    for k, row in enumerate(rows):
        expected = [repr(f.z(k))]
        for x in vals[k].data.ravel():
            expected += [repr(float(x.real)), repr(float(x.imag))]
        assert row == ",".join(expected)
