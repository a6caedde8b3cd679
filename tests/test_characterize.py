"""Idempotent/unit certificates, Gram formulas, weighted-EP, uniqueness audits."""

import pytest

import coreinv.characterize
from coreinv import (
    BackendMismatchError,
    GInverseKind,
    GF,
    QI,
    QQ,
    Decomposition,
    Flavor,
    InvalidCertificateError,
    Mat,
    NotInvertible,
    Side,
    Weight,
    brute_idempotent_certificates,
    certificate_from_json,
    certificate_to_json,
    core_from_pu,
    core_from_qw,
    core_from_s,
    core_from_t,
    cross_check,
    cross_check_sweep,
    decompose_idempotent,
    decompose_q,
    decomposition_from_json,
    decomposition_to_json,
    dual_decompose,
    dual_from_pu,
    dual_from_qw,
    dual_from_s,
    dual_from_t,
    dual_gram_formula,
    e_core,
    e_core_via_power,
    ep_decompose,
    ep_from_s,
    f_dual_core,
    f_dual_core_via_power,
    gram_converse_check,
    gram_formula,
    group_inverse,
    inv_13e,
    inv_14f,
    is_weighted_ep,
    lemma_r_core_check,
    mat_from_json,
    mat_to_json,
    random_annihilator_witness,
    random_group_invertible,
    random_mat,
    random_non_group_invertible,
    random_weight,
    replay,
    uniqueness_audit,
    verify,
    weighted_mp,
)
from coreinv.ginverse import MAX_POWER
from conftest import cold_start

A = Mat(QQ, [[1, 1], [0, 0]])
I2 = Weight.identity(QQ, 2)
A_CORE = Mat(QQ, [[1, 0], [0, 0]])  # the core inverse of A for e = 1


def test_decompose_idempotent_examples():
    d = decompose_idempotent(Mat.identity(QQ, 2), I2, 1)
    assert d.element == Mat.zeros(QQ, 2) and d.unit == Mat.identity(QQ, 2)
    d0 = decompose_idempotent(Mat.zeros(QQ, 2), I2, 1)
    assert d0.element == Mat.identity(QQ, 2) and d0.unit == Mat.identity(QQ, 2)
    d1 = decompose_idempotent(A, I2, 1)
    assert d1.element == Mat(QQ, [[0, 0], [0, 1]])
    assert d1.unit == Mat(QQ, [[1, 1], [0, 1]])
    assert d1.unit.is_invertible()
    neg = decompose_idempotent(Mat(QQ, [[0, 1], [0, 0]]), I2, 1)
    assert isinstance(neg, NotInvertible)


def test_decompose_q_examples():
    d = decompose_q(Mat.identity(QQ, 2), I2, 1)
    assert d.element == Mat.zeros(QQ, 2) and d.unit == Mat.identity(QQ, 2)
    d1 = decompose_q(A, I2, 1)
    assert d1.element == Mat(QQ, [[0, 0], [0, 1]])
    assert d1.unit == Mat(QQ, [[1, 0], [0, 1]])
    d0 = decompose_q(Mat.zeros(QQ, 2), I2, 1)
    assert d0.element == Mat.identity(QQ, 2) and d0.unit == Mat.identity(QQ, 2)


def test_core_from_pu():
    d = decompose_idempotent(A, I2, 1)
    assert core_from_pu(A, I2, d) == A_CORE
    d2 = decompose_idempotent(A, I2, 2)
    assert core_from_pu(A, I2, d2) == A_CORE
    ident = Mat.identity(QQ, 2)
    di = decompose_idempotent(ident, I2, 1)
    assert core_from_pu(ident, I2, di) == ident


def test_core_from_s():
    s = Mat(QQ, [[0, 0], [0, 2]])
    assert (s * A).is_zero() and s.is_hermitian()
    assert core_from_s(A, I2, s, 1) == A_CORE
    assert core_from_s(Mat.identity(QQ, 2), I2, Mat.zeros(QQ, 2), 1) == Mat.identity(QQ, 2)
    assert core_from_s(Mat.zeros(QQ, 2), I2, Mat.identity(QQ, 2), 1) == Mat.zeros(QQ, 2)


def test_core_from_qw():
    d = decompose_q(A, I2, 1)
    assert core_from_qw(A, I2, d) == A_CORE
    d2 = decompose_q(A, I2, 2)
    assert core_from_qw(A, I2, d2) == A_CORE


def test_core_from_t():
    t = Mat(QQ, [[0, 0], [0, 3]])
    assert core_from_t(A, I2, t, 1) == A_CORE
    assert core_from_t(Mat.identity(QQ, 2), I2, Mat.zeros(QQ, 2), 1) == Mat.identity(QQ, 2)
    assert core_from_t(Mat.zeros(QQ, 2), I2, Mat.identity(QQ, 2), 1) == Mat.zeros(QQ, 2)


def test_invalid_certificates_raise():
    bad_p = Mat(QQ, [[0, 1], [0, 0]])  # not idempotent
    with pytest.raises(InvalidCertificateError):
        core_from_pu(A, I2, Decomposition(Flavor.IDEM_P, Side.CORE, bad_p, A + bad_p, 1))
    p = Mat(QQ, [[0, 0], [0, 1]])
    wrong_unit = Mat.identity(QQ, 2)
    with pytest.raises(InvalidCertificateError):
        core_from_pu(A, I2, Decomposition(Flavor.IDEM_P, Side.CORE, p, wrong_unit, 1))
    with pytest.raises(InvalidCertificateError):
        # s does not annihilate a
        core_from_s(A, I2, Mat(QQ, [[1, 0], [0, 0]]), 1)
    with pytest.raises(InvalidCertificateError):
        # wrong side
        core_from_pu(A, I2, Decomposition(Flavor.IDEM_P, Side.DUAL, p, A + p, 1))
    with pytest.raises(InvalidCertificateError):
        # singular unit: s = -a^n on an invertible instance
        core_from_s(Mat.identity(QQ, 2), I2, -Mat.identity(QQ, 2), 1)


def test_dual_side_star_mirror():
    b = A.star()
    dual = f_dual_core(b, I2).value
    assert dual == Mat(QQ, [[1, 0], [0, 0]])
    for flavor, rebuild in (
        (Flavor.IDEM_P, dual_from_pu),
        (Flavor.IDEM_Q, dual_from_qw),
    ):
        for n in (1, 2):
            d = dual_decompose(b, I2, n, flavor)
            assert rebuild(b, I2, d) == dual
    ident = Mat.identity(QQ, 2)
    for n in (1, 2):
        d = dual_decompose(ident, I2, n, Flavor.IDEM_P)
        assert dual_from_pu(ident, I2, d) == ident
    z = Mat.zeros(QQ, 2)
    dz = dual_decompose(z, I2, 1, Flavor.IDEM_P)
    assert dual_from_pu(z, I2, dz) == z
    assert dual_from_s(z, I2, Mat.identity(QQ, 2), 1) == z
    assert dual_from_t(z, I2, Mat.identity(QQ, 2), 1) == z


def test_round_trip_all_flavors_random():
    for i in range(6):
        dim = (2, 3)[i % 2]
        a = random_group_invertible(dim, QI, seed=50 + i)
        e = random_weight(dim, QI, seed=60 + i, definite=True)
        core = e_core(a, e).value
        dual = f_dual_core(a, e).value
        for n in (1, 2, 3):
            assert core_from_pu(a, e, decompose_idempotent(a, e, n)) == core
            assert core_from_qw(a, e, decompose_q(a, e, n)) == core
            s = random_annihilator_witness(a, e, n, seed=70 + i, side=Side.CORE)
            assert core_from_s(a, e, s, n) == core
            t = random_annihilator_witness(
                a, e, n, seed=80 + i, side=Side.CORE, flavor=Flavor.ELEM_T
            )
            assert core_from_t(a, e, t, n) == core
            assert dual_from_pu(a, e, dual_decompose(a, e, n, Flavor.IDEM_P)) == dual
            assert dual_from_qw(a, e, dual_decompose(a, e, n, Flavor.IDEM_Q)) == dual
            sd = random_annihilator_witness(a, e, n, seed=90 + i, side=Side.DUAL)
            assert dual_from_s(a, e, sd, n) == dual
            td = random_annihilator_witness(
                a, e, n, seed=95 + i, side=Side.DUAL, flavor=Flavor.ELEM_T
            )
            assert dual_from_t(a, e, td, n) == dual


def test_witness_generator_contract():
    a = random_group_invertible(3, QI, seed=7, rank=2)
    e = random_weight(3, QI, seed=8, definite=True)
    s = random_annihilator_witness(a, e, 1, seed=9, side=Side.CORE)
    assert (s * a).is_zero()
    assert (e.value * s).is_hermitian()
    assert (a + s).is_invertible()
    t = random_annihilator_witness(a, e, 1, seed=10, side=Side.DUAL)
    assert (a * t).is_zero()
    assert (e.value * t).is_hermitian()
    non_idempotent = 0
    for seed in range(12):
        w = random_annihilator_witness(a, e, 1, seed=seed, side=Side.CORE)
        if not w.is_idempotent():
            non_idempotent += 1
    assert non_idempotent > 0


def test_side_and_flavor_may_be_given_as_strings():
    # A is not EP for e = 1: its core-side witness annihilates it on the left only
    s = random_annihilator_witness(A, I2, 1, 0, side="core", flavor="t")
    assert s == random_annihilator_witness(A, I2, 1, 0, side=Side.CORE, flavor=Flavor.ELEM_T)
    assert (s * A).is_zero() and not (A * s).is_zero()
    assert dual_decompose(A, I2, 1, "q") == dual_decompose(A, I2, 1, Flavor.IDEM_Q)
    assert uniqueness_audit(A, I2, 1, "p") == uniqueness_audit(A, I2, 1, Flavor.IDEM_P)
    for call in (
        lambda: random_annihilator_witness(A, I2, 1, 0, side="x"),
        lambda: random_annihilator_witness(A, I2, 1, 0, flavor="x"),
        lambda: dual_decompose(A, I2, 1, "x"),
        lambda: uniqueness_audit(A, I2, 1, "x"),
    ):
        with pytest.raises(ValueError, match="'x' is not a valid"):
            call()


def test_gram_formula_examples():
    assert gram_formula(Mat.identity(QQ, 2), I2) == Mat.identity(QQ, 2)
    p = Mat(QQ, [[0, 0], [0, 1]])
    gram = A.star() * A + p
    assert gram == Mat(QQ, [[1, 1], [1, 2]])
    assert gram_formula(A, I2) == gram.inverse() * A.star() == A_CORE
    assert gram_formula(Mat.zeros(QQ, 2), I2) == Mat.zeros(QQ, 2)
    assert isinstance(gram_formula(Mat(QQ, [[0, 1], [0, 0]]), I2), NotInvertible)


def test_dual_gram_formula_examples():
    assert dual_gram_formula(Mat.identity(QQ, 2), I2) == Mat.identity(QQ, 2)
    assert dual_gram_formula(A.star(), I2) == Mat(QQ, [[1, 0], [0, 0]])
    assert dual_gram_formula(Mat.zeros(QQ, 2), I2) == Mat.zeros(QQ, 2)
    assert isinstance(dual_gram_formula(Mat(QQ, [[0, 1], [0, 0]]), I2), NotInvertible)


def test_gram_agreement_on_random_instances():
    for i in range(8):
        dim = (2, 3)[i % 2]
        a = random_group_invertible(dim, QI, seed=150 + i)
        e = random_weight(dim, QI, seed=160 + i, definite=True)
        assert gram_formula(a, e) == e_core(a, e).value
        assert dual_gram_formula(a, e) == f_dual_core(a, e).value


def test_gram_converse_check():
    assert gram_converse_check(Mat.identity(QQ, 2), I2, Mat.zeros(QQ, 2))
    assert gram_converse_check(A, I2, Mat(QQ, [[0, 0], [0, 1]]))
    with pytest.raises(InvalidCertificateError):
        # p idempotent but p a != 0
        gram_converse_check(Mat(QQ, [[0, 1], [0, 0]]), I2, Mat(QQ, [[1, 0], [0, 0]]))
    # valid p on a non-core-invertible matrix: the Gram matrix must be singular
    assert not gram_converse_check(Mat(QQ, [[0, 1], [0, 0]]), I2, Mat.zeros(QQ, 2))


def test_is_weighted_ep_examples():
    a = Mat(QQ, [[1, 2], [3, 4]])
    e = random_weight(2, QQ, seed=20, definite=True)
    f = random_weight(2, QQ, seed=21, definite=True)
    rep = is_weighted_ep(a, e, f)
    assert rep.weighted_ep and rep.p == Mat.zeros(QQ, 2)

    h = Mat(QQ, [[1, 0], [0, 0]])
    rep_h = is_weighted_ep(h, I2, I2)
    assert rep_h.weighted_ep and rep_h.p == Mat(QQ, [[0, 0], [0, 1]])

    rep_a = is_weighted_ep(A, I2, I2)
    assert not rep_a.weighted_ep
    assert rep_a.e_core.value == A_CORE
    assert rep_a.f_dual_core.value == Mat(QQ, [["1/2", "1/2"], ["1/2", "1/2"]])

    nil = Mat(QQ, [[0, 1], [0, 0]])
    rep_n = is_weighted_ep(nil, I2, I2)
    assert not rep_n.weighted_ep and isinstance(rep_n.e_core, NotInvertible)


def test_ep_decompose_examples():
    ident = Mat.identity(QQ, 2)
    d = ep_decompose(ident, I2, I2, 1)
    assert d.element == Mat.zeros(QQ, 2)

    h = Mat(QQ, [[1, 0], [0, 0]])
    dh = ep_decompose(h, I2, I2, 1)
    assert dh.element == ident - h and dh.unit == ident

    a = Mat(QQ, [[2, 0], [0, 0]])
    e = Weight(Mat(QQ, [[1, 0], [0, 3]]))
    f = Weight(Mat(QQ, [[2, 0], [0, 1]]))
    d2 = ep_decompose(a, e, f, 2)
    p = d2.element
    assert p == Mat(QQ, [[0, 0], [0, 1]])
    assert d2.unit == Mat(QQ, [[4, 0], [0, 1]])
    assert (e.value * p).is_hermitian() and (f.value * p).is_hermitian()
    assert (a * p).is_zero() and (p * a).is_zero()

    assert isinstance(ep_decompose(A, I2, I2, 1), NotInvertible)


def test_a_built_decomposition_that_fails_its_checks_is_an_internal_error(monkeypatch):
    # the identity is an idempotent, Hermitian for e = 1, that does not annihilate a
    h = Mat(QQ, [[1, 0], [0, 0]])  # weighted-EP for e = f = 1
    monkeypatch.setattr(
        coreinv.characterize, "_idempotent", lambda a, w, side: Mat.identity(a.field, a.n)
    )
    for build in (
        lambda: decompose_idempotent(h, I2),
        lambda: decompose_q(h, I2),
        lambda: dual_decompose(h, I2),
        lambda: dual_decompose(h, I2, flavor=Flavor.IDEM_Q),
        lambda: ep_decompose(h, I2, I2),
    ):
        with pytest.raises(RuntimeError, match="^internal error"):
            build()


def test_ep_from_s():
    a = Mat(QQ, [[2, 0], [0, 0]])
    e = Weight(Mat(QQ, [[1, 0], [0, 3]]))
    f = Weight(Mat(QQ, [[2, 0], [0, 1]]))
    p = ep_decompose(a, e, f, 1).element
    value = ep_from_s(a, e, f, p, 1)
    assert value == e_core(a, e).value == f_dual_core(a, f).value
    # 5 p: still Hermitian for both weights, still annihilating
    s = Mat(p.field, [[5 * v for v in row] for row in p.rows])
    assert ep_from_s(a, e, f, s, 2) == value
    with pytest.raises(InvalidCertificateError):
        ep_from_s(A, I2, I2, Mat(QQ, [[0, 0], [0, 1]]), 1)  # a s != 0 fails


def test_ep_agreement_with_definition():
    # EP by definition: group inverse and weighted MP inverse exist and agree
    for seed in range(10):
        a = random_group_invertible(2, QQ, seed=300 + seed)
        e = random_weight(2, QQ, seed=400 + seed, definite=True)
        f = random_weight(2, QQ, seed=500 + seed, definite=True)
        g = group_inverse(a)
        mp = weighted_mp(a, e, f)
        by_definition = (
            not isinstance(g, NotInvertible)
            and not isinstance(mp, NotInvertible)
            and g.value == mp.value
        )
        assert is_weighted_ep(a, e, f).weighted_ep == by_definition


def test_uniqueness_audit_finite():
    F2, F3 = GF(2), GF(3)
    assert uniqueness_audit(Mat.identity(F2, 2), Weight.identity(F2, 2), 1, Flavor.IDEM_P)
    a = Mat(F3, [[1, 0], [0, 0]])
    e3 = Weight.identity(F3, 2)
    assert uniqueness_audit(a, e3, 1, Flavor.IDEM_P)
    assert uniqueness_audit(a, e3, 1, Flavor.IDEM_Q)
    z = Mat.zeros(F2, 2)
    assert uniqueness_audit(z, Weight.identity(F2, 2), 1, Flavor.IDEM_P)


def test_uniqueness_audit_rational():
    for seed in range(6):
        a = random_group_invertible(3, QQ, seed=600 + seed)
        e = random_weight(3, QQ, seed=700 + seed, definite=True)
        for n in (1, 2):
            assert uniqueness_audit(a, e, n, Flavor.IDEM_P)
            assert uniqueness_audit(a, e, n, Flavor.IDEM_Q)
    with pytest.raises(ValueError):
        uniqueness_audit(Mat(QQ, [[0, 1], [0, 0]]), I2, 1, Flavor.IDEM_P)


def test_error_path_nilpotent_gram():
    # conditions of the Gram criterion cannot rescue a non-group-invertible
    # matrix in finite dimension: every valid idempotent leaves it singular
    nil = random_non_group_invertible(3, QQ, seed=31)
    e = random_weight(3, QQ, seed=32, definite=True)
    assert isinstance(gram_formula(nil, e), NotInvertible)
    assert not gram_converse_check(nil, e, Mat.zeros(QQ, 3))
    assert isinstance(group_inverse(nil), NotInvertible)
    assert isinstance(e_core(nil, e), NotInvertible)


def test_decomposition_json_round_trip():
    d = decompose_idempotent(A, I2, 2)
    obj = decomposition_to_json(d)
    assert obj["flavor"] == "p" and obj["side"] == "core" and obj["n"] == 2
    back = decomposition_from_json(obj)
    assert back == d
    with pytest.raises(ValueError):
        decomposition_from_json({"flavor": "p", "side": "core", "n": 1})
    with pytest.raises(ValueError):
        decomposition_from_json({**obj, "flavor": "x"})


def test_a_certificate_built_with_strings_replays():
    d = decompose_idempotent(A, I2, 1)
    built = Decomposition("p", "core", d.element, d.unit, 1)
    assert (built.flavor, built.side) == (Flavor.IDEM_P, Side.CORE) and built == d
    assert replay(A, I2, built) == core_from_pu(A, I2, built) == A_CORE
    dq = dual_decompose(A, I2, 2, Flavor.IDEM_Q)
    built = Decomposition("q", "dual", dq.element, dq.unit, 2)
    assert replay(A, I2, built) == dual_from_qw(A, I2, built) == f_dual_core(A, I2).value
    with pytest.raises(ValueError):
        Decomposition("x", "core", d.element, d.unit, 1)
    with pytest.raises(ValueError):
        Decomposition("p", "left", d.element, d.unit, 1)


def _public_calls(e, f, certificates):
    """A fixed sequence of public calls, each on the matrix it is given."""
    calls = [
        group_inverse,
        lambda a: inv_13e(a, e),
        lambda a: inv_14f(a, f),
        lambda a: e_core(a, e),
        lambda a: f_dual_core(a, f),
        lambda a: weighted_mp(a, e, f),
        lambda a: e_core_via_power(a, e, 2),
        lambda a: f_dual_core_via_power(a, f, 3),
        lambda a: is_weighted_ep(a, e, f),
        lambda a: decompose_idempotent(a, e, 2),
        lambda a: decompose_q(a, e, 1),
        lambda a: dual_decompose(a, f, 2, Flavor.IDEM_Q),
        lambda a: gram_formula(a, e),
        lambda a: dual_gram_formula(a, f),
        lambda a: ep_decompose(a, e, f, 2),
        lambda a: verify(GInverseKind.E_CORE, a, Mat.identity(a.field, a.n), e=e),
    ]
    for d in certificates:
        calls.append(lambda a, d=d: replay(a, e if d.side is Side.CORE else f, d))
    return calls


@pytest.mark.parametrize("field", [QQ, QI, GF(3)], ids=str)
def test_calls_on_one_held_matrix_give_what_fresh_copies_give(field, monkeypatch):
    """Every call of the sequence on one Mat, which the thread holds with its facts
    from one call to the next, returns what the same call returns on a fresh copy."""
    products = []
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    ep_reports = 0
    for seed in (3, 4, 5):
        w = random_weight(3, field, seed=10 + seed, definite=seed == 4)
        b = random_mat(3, field, seed=20 + seed)
        h = b.star() * Mat(field, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]) * b
        for a, e, f in (
            (w.inv * h, w, w),  # w-selfadjoint: weighted-EP for e = f = w when group invertible
            (random_group_invertible(3, field, seed=seed, rank=2), w, Weight.identity(field, 3)),
            (random_non_group_invertible(3, field, seed=seed), w, w),
        ):

            def fresh(a=a):
                return Mat._of(a.field, a.n, a.form)

            built = (decompose_idempotent(fresh(), e, 1), dual_decompose(fresh(), f, 2))
            calls = _public_calls(e, f, [d for d in built if not isinstance(d, NotInvertible)])
            products.clear()
            cold = [call(fresh()) for call in calls]
            spent_cold = len(products)
            products.clear()
            warm = [call(a) for call in calls]
            assert warm == cold, (field, seed)
            assert len(products) < spent_cold
            ep_reports += warm[8].weighted_ep
    assert ep_reports > 0


def _exponent_entry_points():
    """(least n, call of n) for each public entry point that takes an exponent."""
    a, f3 = Mat(QQ, [[1, 1], [0, 0]]), GF(3)
    a3, e3 = Mat(f3, [[1, 1], [0, 0]]), Weight.identity(f3, 2)
    cert = certificate_to_json(e_core_via_power(a, I2, 2))
    d = decomposition_to_json(decompose_idempotent(a, I2))
    s = Mat(QQ, [[0, 0], [-1, 1]])
    return [
        (2, lambda n: e_core_via_power(a, I2, n)),
        (2, lambda n: f_dual_core_via_power(a, I2, n)),
        (2, lambda n: lemma_r_core_check(a, I2, n)),
        (2, lambda n: certificate_from_json({**cert, "n": n})),
        (1, lambda n: decompose_idempotent(a, I2, n)),
        (1, lambda n: decompose_q(a, I2, n)),
        (1, lambda n: dual_decompose(a, I2, n)),
        (1, lambda n: ep_decompose(a, I2, I2, n)),
        (1, lambda n: uniqueness_audit(a, I2, n, Flavor.IDEM_P)),
        (1, lambda n: uniqueness_audit(a3, e3, n, Flavor.IDEM_P)),
        (1, lambda n: random_annihilator_witness(a, I2, n, seed=1)),
        (1, lambda n: core_from_s(a, I2, s, n)),
        (1, lambda n: core_from_t(a, I2, s, n)),
        (1, lambda n: dual_from_s(a, I2, s, n)),
        (1, lambda n: dual_from_t(a, I2, s, n)),
        (1, lambda n: ep_from_s(a, I2, I2, s, n)),
        (1, lambda n: cross_check(a3, e3, e3, n=n)),
        (1, lambda n: cross_check_sweep(2, 2, n=n)),
        (1, lambda n: cross_check_sweep(2, 2, n=n, sample=1, seed=1)),
        (1, lambda n: brute_idempotent_certificates(a3, e3, n, Flavor.IDEM_P)),
        (1, lambda n: decomposition_from_json({**d, "n": n})),
    ]


@pytest.mark.parametrize("n", [0, -1, MAX_POWER + 1, True, 1.0, "2"], ids=repr)
def test_every_exponent_entry_point_refuses_a_bad_n_with_one_message(n):
    for least, call in _exponent_entry_points():
        with pytest.raises(ValueError) as caught:
            call(n)
        message = f"n must satisfy {least} <= n <= {MAX_POWER} as an int, got {n!r}"
        assert str(caught.value) == message


def _count_work(monkeypatch):
    """Record each product (with its factors' forms), rank and inverse any Mat forms."""
    work = []
    for name in ("__mul__", "rank", "inverse"):
        real = getattr(Mat, name)

        def counted(*args, name=name, real=real):
            work.append((name, *(m.form for m in args)))
            return real(*args)

        monkeypatch.setattr(Mat, name, counted)
    return work


def _decoded(m):
    return mat_from_json(mat_to_json(m))


def _characterize_instances(field):
    """(a, e, f) per field: weighted-EP for e = f = w, group invertible with e != f,
    and not group invertible."""
    w = random_weight(3, field, seed=30, definite=True)
    b = random_mat(3, field, seed=31)
    h = b.star() * Mat(field, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]) * b  # w^-1 h is w-selfadjoint
    return [
        (w.inv * h, w, w),
        (random_group_invertible(3, field, seed=33, rank=2), w, Weight.identity(field, 3)),
        (random_non_group_invertible(3, field, seed=34), w, w),
    ]


def _characterizations(e, f, n):
    """Each characterize entry point that builds a result from (a, e, f, n), on a."""
    return {
        "decompose_idempotent": lambda a: decompose_idempotent(a, e, n),
        "decompose_q": lambda a: decompose_q(a, e, n),
        "dual_decompose p": lambda a: dual_decompose(a, f, n, Flavor.IDEM_P),
        "dual_decompose q": lambda a: dual_decompose(a, f, n, Flavor.IDEM_Q),
        "ep_decompose": lambda a: ep_decompose(a, e, f, n),
        "is_weighted_ep": lambda a: is_weighted_ep(a, e, f),
        "gram_formula": lambda a: gram_formula(a, e),
        "dual_gram_formula": lambda a: dual_gram_formula(a, f),
    }


@pytest.mark.parametrize("field", [QQ, QI, GF(3)], ids=str)
def test_a_repeated_characterization_on_an_equal_copy_works_nothing_out_again(field, monkeypatch):
    """Each entry point, repeated on an equal matrix decoded from JSON (and a decoded
    certificate for replay), reads what the held instance keeps: no product, rank or
    inverse, and an equal result."""
    work = _count_work(monkeypatch)
    replayed = 0
    for a, e, f in _characterize_instances(field):
        for n in (1, 2):
            built = []
            for name, call in _characterizations(e, f, n).items():
                first = call(a)
                if isinstance(first, Decomposition):
                    built.append(first)
                copy = _decoded(a)
                work.clear()
                assert call(copy) == first, name
                assert work == [], name
            for d in built:
                w = e if d.side is Side.CORE else f
                first = replay(a, w, d)
                copy, d_copy = _decoded(a), decomposition_from_json(decomposition_to_json(d))
                work.clear()
                assert replay(copy, w, d_copy) == first
                assert work == [], (d.flavor, d.side)
                replayed += 1
    assert replayed > 0


@pytest.mark.parametrize("field", [QQ, QI, GF(3)], ids=str)
def test_ep_decompose_with_f_equal_to_e_forms_only_a_p_on_the_dual_side(field, monkeypatch):
    """Once the core side is held, the dual-side check of the EP idempotent p for
    an f equal to e repeats neither the idempotence nor the Hermitian test: it
    forms a·p for the annihilation alone."""
    a, w, _ = _characterize_instances(field)[0]
    assert is_weighted_ep(a, w, w)
    f = Weight(w.value * Mat.identity(field, 3))  # an equal weight, another object
    held = {n: decompose_idempotent(a, w, n) for n in (1, 2)}
    work = _count_work(monkeypatch)
    p = held[2].element
    assert ep_decompose(a, w, f, 2) == held[2]
    assert work == [("__mul__", a.form, p.form)]
    work.clear()  # a p = 0 is held now, whatever n
    assert ep_decompose(a, w, f, 1) == held[1] and work == []


@pytest.mark.parametrize("field", [QQ, QI, GF(3)], ids=str)
def test_held_characterizations_are_kept_per_weight_value_and_exponent(field):
    """Calls with one weight value and exponent, then others, on one held matrix
    return what each returns cold: a later pair finds none of an earlier one's
    results."""
    a = random_group_invertible(3, field, seed=33, rank=2)  # not weighted-EP for either
    weights = (Weight.identity(field, 3), random_weight(3, field, seed=35, definite=True))
    cases = [(w, n) for w in weights for n in (1, 2)]
    held = [{name: call(a) for name, call in _characterizations(w, w, n).items()} for w, n in cases]
    for (w, n), results in zip(cases, held):
        for name, call in _characterizations(w, w, n).items():
            cold_start()
            assert call(_decoded(a)) == results[name], name
    differ = {name for name in held[0] if held[0][name] != held[2][name]}
    assert differ == set(held[0]) - {"ep_decompose"}


def test_a_refused_replay_is_not_held():
    """A refused certificate raises the same text before and after a valid one with
    the same element is held, and a weight of another value finds no held replay."""
    d = decompose_idempotent(A, I2, 1)
    tampered = Decomposition(d.flavor, d.side, d.element, d.unit + Mat.identity(QQ, 2), d.n)
    texts = []
    for replay_valid in (False, True, False):
        if replay_valid:
            assert replay(A, I2, d) == A_CORE
            continue
        with pytest.raises(InvalidCertificateError) as caught:
            replay(_decoded(A), I2, tampered)
        texts.append(str(caught.value))
    assert texts == ["unit does not match its defining formula"] * 2
    # (e p)* != e p for this e, so a replay that found the fact held for e = 1 would pass
    e = Weight(Mat(QQ, [[2, 1], [1, 1]]))
    with pytest.raises(InvalidCertificateError, match=r"^weighted element must be Hermitian"):
        replay(A, e, d)


def test_a_weight_of_another_prime_field_finds_no_held_characterization():
    """F_3 and F_5 forms are both tuples of ints, so an F_5 weight can have the
    form of a held F_3 one: each call on the F_5 weight refuses it, cold and with
    the F_3 results held."""
    a, w3, w5 = Mat(GF(3), [[1, 0], [0, 0]]), Weight.identity(GF(3), 2), Weight.identity(GF(5), 2)
    d = decompose_idempotent(a, w3, 1)
    held, other = _characterizations(w3, w3, 1), _characterizations(w5, w5, 1)
    # is_weighted_ep reads e_core and f_dual_core, which ginverse keys by the
    # weight's form alone (ROADMAP Known defects)
    del held["is_weighted_ep"]
    held["replay"], other["replay"] = lambda a: replay(a, w3, d), lambda a: replay(a, w5, d)
    for name, hold_call in held.items():
        for hold in (False, True):
            cold_start()
            if hold:
                hold_call(a)
            with pytest.raises(BackendMismatchError):
                other[name](_decoded(a))
