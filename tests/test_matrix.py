"""Matrix ring: involution laws, exact solves, generators, JSON codecs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreinv import (
    GF,
    QI,
    QQ,
    BackendMismatchError,
    DimensionMismatchError,
    GaussianRational,
    Mat,
    Weight,
    left_annihilator_basis,
    mat_from_json,
    mat_to_json,
    random_group_invertible,
    random_mat,
    random_non_group_invertible,
    random_weight,
    solve_left,
    solve_right,
    weight_from_json,
)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
gaussians = st.builds(GaussianRational, rationals, rationals)


def mats(field, elems, dim=2):
    return st.builds(
        lambda rows: Mat(field, rows),
        st.lists(st.lists(elems, min_size=dim, max_size=dim), min_size=dim, max_size=dim),
    )


def test_identity_and_negation():
    a = Mat(QQ, [[1, 2], [3, 4]])
    assert Mat.identity(QQ, 2) * a == a
    assert a + (-a) == Mat.zeros(QQ, 2)


def test_nilpotent_square_is_zero():
    n = Mat(QQ, [[0, 1], [0, 0]])
    assert n * n == Mat.zeros(QQ, 2)


def test_star_examples():
    a = Mat(QI, [[1, GaussianRational(0, 1)], [0, 1]])
    assert a.star() == Mat(QI, [[1, 0], [GaussianRational(0, -1), 1]])
    b = Mat(GF(3), [[1, 2], [0, 1]])
    assert b.star() == b.transpose()


@settings(max_examples=50)
@given(mats(QI, gaussians))
def test_star_is_an_involution(a):
    assert a.star().star() == a


@settings(max_examples=50)
@given(mats(QI, gaussians), mats(QI, gaussians))
def test_star_antimultiplicative_additive(a, b):
    assert (a * b).star() == b.star() * a.star()
    assert (a + b).star() == a.star() + b.star()


def test_inverse_examples():
    assert Mat(QQ, [[1, 1], [0, 1]]).inverse() == Mat(QQ, [[1, -1], [0, 1]])
    assert Mat(QQ, [[1, 1], [0, 0]]).inverse() is None
    assert Mat(GF(5), [[2]]).inverse() == Mat(GF(5), [[3]])


def test_solve_right_examples():
    b = Mat(QQ, [[5, 6], [7, 8]])
    assert solve_right(Mat.identity(QQ, 2), b).solution == b
    ones = Mat(QQ, [[1, 1], [1, 1]])
    w = solve_right(ones, ones)
    assert w.consistent and ones * w.solution == ones
    # free variable (second row of x) zeroed by the witness rule
    assert w.solution == Mat(QQ, [[1, 1], [0, 0]])
    w0 = solve_right(Mat.zeros(QQ, 2), Mat(QQ, [[1, 0], [0, 0]]))
    assert not w0.consistent and w0.solution is None


def test_solve_left_examples():
    b = Mat(QQ, [[5, 6], [7, 8]])
    assert solve_left(Mat.identity(QQ, 2), b).solution == b
    a = Mat(QQ, [[1, 1], [1, 1]])
    target = Mat(QQ, [[1, 1], [0, 0]])
    w = solve_left(a, target)
    assert w.consistent
    assert w.solution * a == target
    assert w.solution == Mat(QQ, [[1, 0], [0, 0]])
    assert not solve_left(Mat.zeros(QQ, 2), target).consistent


def test_solve_is_deterministic():
    a = random_mat(3, QQ, seed=11)
    b = random_mat(3, QQ, seed=12)
    w1, w2 = solve_right(a, b), solve_right(a, b)
    assert w1 == w2


@settings(max_examples=40)
@given(mats(QQ, rationals, dim=3))
def test_inverse_coincides_with_both_solves(a):
    ident = Mat.identity(QQ, 3)
    r = solve_right(a, ident)
    l = solve_left(a, ident)
    inv = a.inverse()
    assert (inv is not None) == r.consistent == l.consistent
    if inv is not None:
        assert inv == r.solution == l.solution
        assert a * inv == ident and inv * a == ident


def test_is_hermitian_wrt():
    ident = Weight.identity(QQ, 2)
    assert (ident.value * Mat(QQ, [[0, 0], [0, 1]])).is_hermitian()
    assert not (ident.value * Mat(QQ, [[0, 1], [0, 0]])).is_hermitian()
    w = Weight(Mat(QQ, [[1, 0], [0, 2]]))
    m = Mat(QQ, [[0, 0], [0, 1]])
    assert (w.value * m).star() == w.value * m
    assert (w.value * m).is_hermitian()
    assert not (w.value * Mat(QQ, [[0, 1], [1, 0]])).is_hermitian()


def test_is_idempotent():
    assert Mat.identity(QQ, 2).is_idempotent()
    assert Mat(QQ, [[1, 1], [0, 0]]).is_idempotent()
    assert not Mat(QQ, [[0, 1], [0, 0]]).is_idempotent()


def test_mismatch_errors():
    with pytest.raises(DimensionMismatchError):
        Mat(QQ, [[1, 2], [3, 4]]) + Mat(QQ, [[1]])
    with pytest.raises(BackendMismatchError):
        Mat(QQ, [[1]]) * Mat(GF(2), [[1]])
    with pytest.raises(DimensionMismatchError):
        Mat(QQ, [[1, 2]])


@pytest.mark.parametrize("field", [QQ, QI, GF(2), GF(3), GF(5)])
def test_random_weight_is_hermitian_invertible(field):
    for seed in range(5):
        w = random_weight(3, field, seed=seed)
        assert w.value.is_hermitian()
        assert w.value * w.inv == Mat.identity(field, 3)


def test_definite_weight_is_positive():
    w = random_weight(3, QI, seed=9, definite=True)
    rng_vectors = [[1, 0, 0], [1, 2, 3], [GaussianRational(1, 1), 0, GaussianRational(0, 2)]]
    for v in rng_vectors:
        vec = [QI.coerce(x) for x in v]
        acc = QI.zero()
        for i in range(3):
            for j in range(3):
                acc = acc + QI.conj(vec[i]) * w.value.rows[i][j] * vec[j]
        assert acc.im == 0 and acc.re > 0


def test_random_group_invertible_ranks():
    m = random_group_invertible(3, QQ, seed=4, rank=3)
    assert m.is_invertible()
    z = random_group_invertible(3, QQ, seed=4, rank=0)
    assert z == Mat.zeros(QQ, 3)
    for seed in range(6):
        m = random_group_invertible(3, QQ, seed=seed)
        # group invertibility: the rank does not drop from m to m^2
        assert len(left_annihilator_basis(m)) == len(left_annihilator_basis(m * m))


def test_random_non_group_invertible():
    for seed in range(6):
        m = random_non_group_invertible(3, QI, seed=seed)
        assert len(left_annihilator_basis(m)) < len(left_annihilator_basis(m * m))


def test_jacobson_invertibility_symmetry():
    for field in (QQ, GF(5)):
        ident = Mat.identity(field, 3)
        for seed in range(30):
            a = random_mat(3, field, seed=seed)
            b = random_mat(3, field, seed=seed + 1000)
            assert (ident + a * b).is_invertible() == (ident + b * a).is_invertible()


def test_left_annihilator_basis():
    m = Mat(QQ, [[1, 1], [1, 1]])
    basis = left_annihilator_basis(m)
    assert len(basis) == 1
    (v,) = basis
    assert [sum(v[k] * m.rows[k][j] for k in range(2)) for j in range(2)] == [0, 0]
    assert left_annihilator_basis(Mat.identity(QQ, 2)) == ()


def test_json_round_trips():
    samples = [
        Mat(QQ, [[Fraction(1, 2), -2], [0, 3]]),
        Mat(QI, [[GaussianRational(1, Fraction(1, 3))], ]),
        Mat(GF(5), [[2, 4], [0, 1]]),
    ]
    for m in samples:
        assert mat_from_json(mat_to_json(m)) == m
    obj = mat_to_json(samples[2])
    assert obj["backend"] == "Fp" and obj["p"] == 5
    assert obj["entries"] == [["2", "4"], ["0", "1"]]


def test_weight_loader_validates():
    good = mat_to_json(Mat(QQ, [[2, 1], [1, 1]]))
    assert weight_from_json(good).value == Mat(QQ, [[2, 1], [1, 1]])
    with pytest.raises(ValueError):
        weight_from_json(mat_to_json(Mat(QQ, [[0, 1], [0, 0]])))  # not Hermitian
    with pytest.raises(ValueError):
        weight_from_json(mat_to_json(Mat(QQ, [[1, 1], [1, 1]])))  # singular


def test_mat_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        mat_from_json({"backend": "Z", "dim": 1, "entries": [["1"]]})
    with pytest.raises(ValueError):
        mat_from_json({"backend": "Q", "dim": 2, "entries": [["1", "2"]]})
    with pytest.raises(ValueError):
        mat_from_json({"backend": "Fp", "dim": 1, "entries": [["1"]]})
    with pytest.raises(ValueError):
        mat_from_json({"backend": "Q", "dim": 1, "entries": [[0.5]]})
