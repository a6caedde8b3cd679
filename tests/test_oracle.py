"""Brute-force enumeration: solution sets, idempotent certificates, cross-checks."""

import pytest

from coreinv import (
    GF,
    QQ,
    EnumerationSpace,
    Flavor,
    GInverseKind,
    Mat,
    NotInvertible,
    SpaceTooLargeError,
    Weight,
    brute_idempotent_certificates,
    brute_solutions,
    cross_check,
    cross_check_sweep,
    decompose_idempotent,
    e_core,
    f_dual_core,
    group_inverse,
    weighted_mp,
)

F2, F3 = GF(2), GF(3)
E2 = Weight.identity(F2, 2)
E3 = Weight.identity(F3, 2)


def test_enumeration_space_counts():
    assert EnumerationSpace(2, 2).count == 16
    assert EnumerationSpace(3, 2).count == 81
    assert EnumerationSpace(5, 2).count == 625
    assert EnumerationSpace(3, 3).count == 19683
    assert EnumerationSpace(5, 3).count == 5**9
    assert EnumerationSpace(3, 3).exhaustive
    assert not EnumerationSpace(5, 3).exhaustive
    with pytest.raises(SpaceTooLargeError):
        EnumerationSpace(5, 3).matrices()


def test_enumeration_order_is_lexicographic():
    first = list(EnumerationSpace(2, 2).matrices())[:3]
    assert first == [
        ((0, 0), (0, 0)),
        ((0, 0), (0, 1)),
        ((0, 0), (1, 0)),
    ]


def test_brute_ecore_examples():
    assert brute_solutions(GInverseKind.E_CORE, Mat.identity(F2, 2), e=E2) == {
        Mat.identity(F2, 2)
    }
    assert brute_solutions(GInverseKind.E_CORE, Mat(F2, [[0, 1], [0, 0]]), e=E2) == set()
    a = Mat(F3, [[1, 0], [0, 0]])
    sols = brute_solutions(GInverseKind.E_CORE, a, e=E3)
    assert len(sols) == 1
    assert sols == {e_core(a, E3).value}


def test_brute_matches_constructions_for_every_kind():
    samples = [
        Mat(F3, [[0, 0], [0, 0]]),
        Mat(F3, [[1, 1], [0, 0]]),
        Mat(F3, [[0, 1], [0, 0]]),
        Mat(F3, [[2, 1], [1, 1]]),
    ]
    for a in samples:
        for kind, constructed in (
            (GInverseKind.GROUP, group_inverse(a)),
            (GInverseKind.E_CORE, e_core(a, E3)),
            (GInverseKind.F_DUAL_CORE, f_dual_core(a, E3)),
            (GInverseKind.WEIGHTED_MP, weighted_mp(a, E3, E3)),
        ):
            kwargs = {}
            if kind in (GInverseKind.E_CORE, GInverseKind.WEIGHTED_MP):
                kwargs["e"] = E3
            if kind in (GInverseKind.F_DUAL_CORE, GInverseKind.WEIGHTED_MP):
                kwargs["f"] = E3
            brute = brute_solutions(kind, a, **kwargs)
            if isinstance(constructed, NotInvertible):
                assert brute == set()
            else:
                assert brute == {constructed.value}


def test_brute_13e_existence_matches_membership():
    from coreinv import inv_13e

    for raw in EnumerationSpace(2, 2).matrices():
        a = Mat(F2, [list(r) for r in raw])
        sols = brute_solutions(GInverseKind.ONE_THREE_E, a, e=E2)
        constructed = inv_13e(a, E2)
        if isinstance(constructed, NotInvertible):
            assert sols == set()
        else:
            assert constructed.value in sols


def test_brute_requires_finite_backend_and_weights():
    with pytest.raises(ValueError):
        brute_solutions(GInverseKind.E_CORE, Mat(QQ, [[1]]), e=Weight.identity(QQ, 1))
    with pytest.raises(ValueError):
        brute_solutions(GInverseKind.E_CORE, Mat.identity(F2, 2))


def test_space_too_large_refused():
    a = Mat(GF(5), [[0] * 3 for _ in range(3)])
    e = Weight.identity(GF(5), 3)
    with pytest.raises(SpaceTooLargeError):
        brute_solutions(GInverseKind.E_CORE, a, e=e)
    # sampled mode runs (and finds the zero solution among its draws or not)
    sols = brute_solutions(GInverseKind.E_CORE, a, e=e, sample=50, seed=1)
    assert sols <= {Mat.zeros(GF(5), 3)}
    with pytest.raises(ValueError):
        brute_solutions(GInverseKind.E_CORE, a, e=e, sample=10)  # seed missing


def test_brute_idempotent_certificates():
    assert brute_idempotent_certificates(Mat.identity(F2, 2), E2, 1, Flavor.IDEM_P) == {
        Mat.zeros(F2, 2)
    }
    a = Mat(F3, [[1, 1], [0, 0]])
    certs = brute_idempotent_certificates(a, E3, 1, Flavor.IDEM_P)
    d = decompose_idempotent(a, E3, 1)
    assert certs == {d.element}
    nil = Mat(F3, [[0, 1], [0, 0]])
    assert brute_idempotent_certificates(nil, E3, 1, Flavor.IDEM_P) == set()
    assert brute_idempotent_certificates(nil, E3, 2, Flavor.IDEM_Q) == set()


def test_cross_check_single_instances():
    z = Mat.zeros(F2, 2)
    report = cross_check(z, E2, E2, n=2)
    assert report["ok"]
    by_kind = {c["kind"]: c for c in report["checks"]}
    assert by_kind["ecore"]["brute_count"] == 1
    nil = Mat(F2, [[0, 1], [0, 0]])
    report_nil = cross_check(nil, E2, E2)
    assert report_nil["ok"]
    assert {c["kind"]: c["brute_count"] for c in report_nil["checks"]}["ecore"] == 0


def test_cross_check_is_deterministic():
    a = Mat(F3, [[1, 2], [0, 1]])
    assert cross_check(a, E3, E3, n=2) == cross_check(a, E3, E3, n=2)


def test_sweep_f2_exhaustive():
    report = cross_check_sweep(2, 2, n=2)
    assert report["space"] == {"p": 2, "dim": 2, "count": 16, "exhaustive": True}
    assert report["checked"] == 16 * 4  # 4 invertible symmetric weights over F2
    assert report["mismatches"] == []


def test_sweep_refuses_large_space_without_sample():
    with pytest.raises(SpaceTooLargeError):
        cross_check_sweep(5, 3)


def test_sweep_sampled():
    report = cross_check_sweep(5, 3, sample=3, seed=11)
    assert report["checked"] == 3
    assert report["space"]["exhaustive"] is False
    assert report["mismatches"] == []
    with pytest.raises(ValueError):
        cross_check_sweep(5, 3, sample=3)
