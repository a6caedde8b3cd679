"""Constructions and verification of the six generalized-inverse kinds."""

import gc
import json
import random
import threading

import pytest

import coreinv.ginverse
from coreinv import (
    GF,
    QI,
    QQ,
    BackendMismatchError,
    DimensionMismatchError,
    GInverseKind,
    Mat,
    NotInvertible,
    Weight,
    brute_solutions,
    certificate_from_json,
    certificate_to_json,
    cross_check,
    decompose_idempotent,
    e_core,
    e_core_via_power,
    f_dual_core,
    f_dual_core_via_power,
    gram_formula,
    group_inverse,
    inv_13e,
    inv_14f,
    is_weighted_ep,
    lemma_r_core_check,
    mat_from_json,
    mat_to_json,
    random_group_invertible,
    random_mat,
    random_non_group_invertible,
    random_weight,
    solve_left,
    solve_right,
    verify,
    weighted_mp,
)
from coreinv.ginverse import EQUATIONS, HELD_FACTS, HELD_MATRICES, MAX_POWER, _instance, _Instance
from coreinv.oracle import EnumerationSpace, iter_invertible_symmetric
from conftest import cold_start

A = Mat(QQ, [[1, 1], [0, 0]])  # a non-Hermitian idempotent used throughout
N = Mat(QQ, [[0, 1], [0, 0]])  # nilpotent, not group invertible
I2 = Weight.identity(QQ, 2)


def certs_equal(cert, expected):
    assert not isinstance(cert, NotInvertible)
    return cert.value == expected


def test_group_inverse_identity():
    assert certs_equal(group_inverse(Mat.identity(QQ, 3)), Mat.identity(QQ, 3))


def test_group_inverse_of_idempotent():
    cert = group_inverse(A)
    assert certs_equal(cert, A)
    g = cert.value
    assert A * g * A == A and g * A * g == g and A * g == g * A
    x, y = cert.witnesses["x"], cert.witnesses["y"]
    assert A * A * x == A and y * A * A == A


def test_group_inverse_negative():
    neg = group_inverse(N)
    assert isinstance(neg, NotInvertible)
    assert neg.failed == "a^2R"


def test_inv_13e_examples():
    ident3 = Mat.identity(QQ, 3)
    w = random_weight(3, QQ, seed=1, definite=True)
    assert certs_equal(inv_13e(ident3, w), ident3)

    cert = inv_13e(A, I2)
    expected = Mat(QQ, [[1, 0], [0, 0]])
    assert certs_equal(cert, expected)
    assert A * expected * A == A
    assert (A * expected).is_hermitian()


def test_inv_13e_over_f2_matches_brute():
    F2 = GF(2)
    a = Mat(F2, [[1, 0], [0, 0]])
    e = Weight.identity(F2, 2)
    sols = brute_solutions(GInverseKind.ONE_THREE_E, a, e=e)
    assert a in sols
    cert = inv_13e(a, e)
    assert cert.value in sols


def test_inv_14f_examples():
    w = random_weight(2, QQ, seed=2, definite=True)
    assert certs_equal(inv_14f(Mat.identity(QQ, 2), w), Mat.identity(QQ, 2))
    cert = inv_14f(A.star(), I2)
    assert certs_equal(cert, Mat(QQ, [[1, 0], [0, 0]]))
    assert certs_equal(inv_14f(Mat.zeros(QQ, 2), I2), Mat.zeros(QQ, 2))


def test_e_core_examples():
    assert certs_equal(e_core(A, I2), Mat(QQ, [[1, 0], [0, 0]]))
    assert certs_equal(e_core(Mat.zeros(QQ, 2), I2), Mat.zeros(QQ, 2))
    neg = e_core(N, I2)
    assert isinstance(neg, NotInvertible) and neg.failed == "group"


def test_e_core_verifies_all_five_equations():
    cert = e_core(A, I2)
    x = cert.value
    assert A * x * A == A
    assert x * A * x == x
    assert (A * x).is_hermitian()
    assert x * A * A == A
    assert A * x * x == x


def test_f_dual_core_examples():
    h = Mat(QQ, [[1, 0], [0, 0]])  # Hermitian idempotent
    assert certs_equal(f_dual_core(h, I2), h)
    assert certs_equal(f_dual_core(A.star(), I2), Mat(QQ, [[1, 0], [0, 0]]))
    assert isinstance(f_dual_core(N, I2), NotInvertible)


def test_via_power_examples():
    ident = Mat.identity(QQ, 2)
    assert certs_equal(e_core_via_power(ident, I2, 2), ident)
    assert e_core_via_power(A, I2, 2).value == e_core(A, I2).value
    neg = e_core_via_power(N, I2, 2)
    assert isinstance(neg, NotInvertible)
    assert certs_equal(f_dual_core_via_power(ident, I2, 2), ident)
    assert f_dual_core_via_power(A.star(), I2, 2).value == f_dual_core(A.star(), I2).value
    assert isinstance(f_dual_core_via_power(N, I2, 2), NotInvertible)


def test_via_power_rejects_bad_n():
    for bad in (1, 0, -1, 9):
        with pytest.raises(ValueError):
            e_core_via_power(A, I2, bad)
        with pytest.raises(ValueError):
            f_dual_core_via_power(A, I2, bad)


def test_path_independence_on_random_instances():
    for i in range(12):
        dim = (2, 3)[i % 2]
        a = random_group_invertible(dim, QI, seed=100 + i)
        e = random_weight(dim, QI, seed=200 + i, definite=True)
        direct = e_core(a, e)
        for n in (2, 3):
            assert e_core_via_power(a, e, n).value == direct.value
        dual = f_dual_core(a, e)
        for n in (2, 3):
            assert f_dual_core_via_power(a, e, n).value == dual.value


def test_existence_equivalence_group_and_13e():
    cases = [A, N, Mat.zeros(QQ, 2), Mat.identity(QQ, 2)]
    cases += [random_mat(2, QQ, seed=s) for s in range(8)]
    for a in cases:
        ec = e_core(a, I2)
        both = not isinstance(group_inverse(a), NotInvertible) and not isinstance(
            inv_13e(a, I2), NotInvertible
        )
        assert (not isinstance(ec, NotInvertible)) == both


def test_weighted_mp_examples():
    a = Mat(QQ, [[1, 2], [3, 4]])
    e = random_weight(2, QQ, seed=3, definite=True)
    f = random_weight(2, QQ, seed=4, definite=True)
    cert = weighted_mp(a, e, f)
    assert certs_equal(cert, a.inverse())
    assert certs_equal(weighted_mp(A, I2, I2), Mat(QQ, [["1/2", 0], ["1/2", 0]]))
    assert certs_equal(weighted_mp(Mat.zeros(QQ, 2), I2, I2), Mat.zeros(QQ, 2))


def test_weighted_mp_equations_hold():
    cert = weighted_mp(A, I2, I2)
    x = cert.value
    assert A * x * A == A and x * A * x == x
    assert (A * x).is_hermitian() and (x * A).is_hermitian()


def test_weighted_mp_negative_for_indefinite_weight():
    # the column space of a is isotropic for e = diag(1, -1): a* e a = 0,
    # so the {1,3e} membership fails even though a is group invertible
    a = Mat(QQ, [[1, 0], [1, 0]])
    e = Weight(Mat(QQ, [[1, 0], [0, -1]]))
    assert (a.star() * e.value * a).is_zero()
    res = inv_13e(a, e)
    assert isinstance(res, NotInvertible)
    mp = weighted_mp(a, e, e)
    assert isinstance(mp, NotInvertible) and mp.failed == "13e"
    ec = e_core(a, e)
    assert isinstance(ec, NotInvertible) and ec.failed == "13e"
    assert not isinstance(group_inverse(a), NotInvertible)


def test_verify_reports():
    cert = e_core(A, I2)
    assert verify(GInverseKind.E_CORE, A, cert.value, e=I2).ok
    rep = verify(GInverseKind.E_CORE, A, A, e=I2)
    assert not rep.ok and rep.failed == ("(3e)",)
    assert verify(GInverseKind.GROUP, Mat.identity(QQ, 2), Mat.identity(QQ, 2)).ok


def test_verify_requires_weights():
    with pytest.raises(ValueError):
        verify(GInverseKind.E_CORE, A, A)
    with pytest.raises(ValueError):
        verify(GInverseKind.WEIGHTED_MP, A, A, e=I2)


def test_every_kind_rejects_a_missing_weight_it_needs():
    f2 = GF(2)
    a = Mat(f2, [[1, 1], [0, 0]])
    w = Weight.identity(f2, 2)
    needs = {
        GInverseKind.GROUP: "",
        GInverseKind.ONE_THREE_E: "e",
        GInverseKind.ONE_FOUR_F: "f",
        GInverseKind.WEIGHTED_MP: "ef",
        GInverseKind.E_CORE: "e",
        GInverseKind.F_DUAL_CORE: "f",
    }
    for kind, needed in needs.items():
        for missing in "ef":
            weights = {"e": w, "f": w, missing: None}
            if missing in needed:
                with pytest.raises(ValueError, match=f"requires the weight {missing}"):
                    verify(kind, a, a, **weights)
                with pytest.raises(ValueError, match=f"requires the weight {missing}"):
                    brute_solutions(kind, a, **weights)
            else:
                verify(kind, a, a, **weights)
                brute_solutions(kind, a, **weights)


def test_unweighted_reduction_matches_classical_core_equations():
    for seed in range(8):
        a = random_group_invertible(2, QQ, seed=700 + seed)
        cert = e_core(a, I2)
        if isinstance(cert, NotInvertible):
            continue
        x = cert.value
        classical = (
            a * x * a == a
            and x * a * x == x
            and (a * x).star() == a * x
            and x * a * a == a
            and a * x * x == x
        )
        assert classical == verify(GInverseKind.E_CORE, a, x, e=I2).ok


def test_lemma_r_core_check_examples():
    assert lemma_r_core_check(Mat.identity(QQ, 2), I2, 2) == (True, True)
    assert lemma_r_core_check(N, I2, 2) == (False, False)
    a = random_group_invertible(3, QI, seed=42, rank=2)
    e = random_weight(3, QI, seed=43, definite=True)
    assert lemma_r_core_check(a, e, 2) == (True, True)


def test_lemma_r_core_check_booleans_agree():
    for seed in range(25):
        dim = 2 + seed % 2
        a = random_mat(dim, QI, seed=800 + seed)
        e = random_weight(dim, QI, seed=900 + seed, definite=bool(seed % 2))
        for n in (2, 3):
            first, second = lemma_r_core_check(a, e, n)
            assert first == second


def test_lemma_r_core_check_reads_the_memberships_the_constructors_hold(work):
    """After inv_13e, the power route and group_inverse on one value, the lemma's
    three memberships are held facts: it makes no solve and forms no product."""
    a = random_group_invertible(3, QI, seed=42, rank=2)
    e = random_weight(3, QI, seed=43, definite=True)
    nilpotent = Mat(QI, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    for m, expected in ((a, (True, True)), (nilpotent, (False, False))):
        inv_13e(m, e)
        e_core_via_power(m, e, 2)
        group_inverse(m)
        solves, products = work["solve"], work["mul"]
        assert lemma_r_core_check(m, e, 2) == expected
        assert (work["solve"], work["mul"]) == (solves, products)


def test_a_cold_lemma_r_core_check_forms_no_one_sided_value(work):
    """A cold lemma solves its three memberships and forms only what they need:
    the Gram pair a* e and (a* e) a, a^2, and (a*)^1 (a* e a); no {1,3e} value x* e."""
    a = random_group_invertible(3, QI, seed=42, rank=2)
    e = random_weight(3, QI, seed=43, definite=True)
    products = work["mul"]  # what drawing a and e formed
    assert lemma_r_core_check(a, e, 2) == (True, True)
    assert (work["solve"], work["mul"] - products) == (3, 4)


def test_star_duality_via_inverse_weight():
    # x is the dual core inverse for (a, f) exactly when star(x) is the core
    # inverse for (star(a), f^{-1}); transport goes through the inverse weight,
    # and the witnesses map as y = x*, t = s* and inv_14f = inv_13e*.
    cases = [(QI, seed) for seed in range(10)] + [(QQ, 21), (QQ, 23), (GF(5), 32), (GF(5), 35)]
    for field, seed in cases:
        a = random_group_invertible(3, field, seed=1000 + seed)
        f = random_weight(3, field, seed=1100 + seed, definite=True)
        f_inv = f.inverse()
        assert f_inv == Weight(f.inv) and f_inv.inv == f.value
        dual = f_dual_core(a, f)
        mirrored = e_core(a.star(), f_inv)
        assert not isinstance(dual, NotInvertible)
        assert not isinstance(mirrored, NotInvertible)
        assert dual.value.star() == mirrored.value
        assert verify(GInverseKind.E_CORE, a.star(), dual.value.star(), e=f_inv).ok
        assert verify(GInverseKind.F_DUAL_CORE, a, mirrored.value.star(), f=f).ok
        assert dual.witnesses == {
            "group_inverse": mirrored.witnesses["group_inverse"].star(),
            "inv_14f": mirrored.witnesses["inv_13e"].star(),
        }
        # the dual side reads a^# off the core side: (a*)^# = (a^#)*
        assert dual.witnesses["group_inverse"] == group_inverse(a).value
        assert inv_14f(a, f).witnesses == {"y": inv_13e(a.star(), f_inv).witnesses["x"].star()}
        powered = f_dual_core_via_power(a, f, 2)
        assert powered.witnesses == {
            "t": e_core_via_power(a.star(), f_inv, 2).witnesses["s"].star()
        }
    # negatives carried back keep their dual-side labels
    iso = Mat(QQ, [[1, 1], [1, 1]])  # a f^{-1} a* = 0 for f = diag(1, -1)
    f = Weight(Mat(QQ, [[1, 0], [0, -1]]))
    assert inv_14f(iso, f) == NotInvertible("14f", "af^-1a*R", "a not in a f^-1 a* R")
    assert f_dual_core(iso, f) == NotInvertible(
        "fdual", "14f", "{1,4f} prerequisite failed: a not in a f^-1 a* R"
    )
    assert f_dual_core_via_power(iso, f, 2) == NotInvertible(
        "fdual", "af^-1(a*)^nR", "a not in a f^-1 (a*)^2 R"
    )
    nil = Mat(GF(5), [[0, 1], [0, 0]])
    i5 = Weight.identity(GF(5), 2)
    assert f_dual_core(nil, i5) == NotInvertible(
        "fdual", "group", "group prerequisite failed: a not in a^2 R"
    )
    assert f_dual_core_via_power(nil, i5, 3) == NotInvertible(
        "fdual", "af^-1(a*)^nR", "a not in a f^-1 (a*)^3 R"
    )


def test_nonsquare_power_and_zero_edge():
    z = Mat.zeros(QQ, 3)
    assert certs_equal(e_core_via_power(z, Weight.identity(QQ, 3), 2), z)
    assert certs_equal(weighted_mp(z, Weight.identity(QQ, 3), Weight.identity(QQ, 3)), z)


def test_certificate_json_round_trip():
    cert = e_core(A, I2)
    obj = certificate_to_json(cert)
    assert obj["kind"] == "ecore" and obj["verified"] is True
    back = certificate_from_json(obj)
    assert back.kind == cert.kind and back.value == cert.value
    assert back.witnesses.keys() == cert.witnesses.keys()
    with pytest.raises(ValueError):
        certificate_from_json({"kind": "nope", "value": obj["value"]})
    with pytest.raises(ValueError):
        certificate_from_json({"value": obj["value"]})


@pytest.fixture
def work(monkeypatch):
    """Counts of the solves, verify calls, equations evaluated and matrix products
    the constructions make."""
    counts = {"solve": 0, "verify": 0, "equations": 0, "mul": 0}

    def counter(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for name, key in (("solve_left", "solve"), ("solve_right", "solve"), ("verify", "verify")):
        monkeypatch.setattr(coreinv.ginverse, name, counter(getattr(coreinv.ginverse, name), key))
    for label, predicate in coreinv.ginverse._PREDICATES.items():
        monkeypatch.setitem(coreinv.ginverse._PREDICATES, label, counter(predicate, "equations"))
    monkeypatch.setattr(Mat, "__mul__", counter(Mat.__mul__, "mul"))
    return counts


def test_cross_check_solves_each_prerequisite_once(work):
    # a = [[1, 1], [0, 0]] = a^2 over F3, w = 1; all six constructions exist.
    # Solves: a = a^2 x and a = y a^2 once each (the group certificate carries x
    # and y), {1,3e} and {1,4f} once each, and each power path its (a*)^n e a
    # membership (2 + 1 + 1 + 2); a in R a^2 and, on the dual side, a* in
    # R (a*)^2 are read off a = a^2 x.
    # Values: the group inverse a, the {1,3e}-inverse diag(1, 0), which is also
    # the core inverse and both power values, the {1,4f}-inverse [[2, 0], [2, 0]],
    # which is also the weighted Moore-Penrose inverse, and the dual core inverse
    # [[2, 2], [2, 2]]. verify runs once per public certificate (6; the {1,3e}
    # and {1,4f} prerequisites are not certified), and evaluates (1), (2), (5)
    # on a; (1), (2), (3e), (6), (7) on diag(1, 0); (1), (2), (3e), (4f) on
    # [[2, 0], [2, 0]]; (1), (2), (4f), (8), (9) on [[2, 2], [2, 2]].
    # Products, to build + to check: group 3 + 4 (a^2, a x = a^# a, (a^# a) x; a x,
    # x a, equal, (1), (2)); {1,3e} 3 (a* e, a* e a, x* e); core
    # 1 + 7 ((a^# a) a^(1,3e); a x and x a, which differ, and one per label: (1)
    # as (a x) a, (2) as (x a) x, (3e) as e (a x), (6) as (x a) a, (7) as
    # (a x) x); {1,4f} 3; dual 1 + 7 (its mirror; a x, x a and one per label);
    # Moore-Penrose 2 + 6; the power paths 3 + 0 and 3 + 0 ((a*)^2 e a is
    # a* (a* e a), on the Gram pair the {1,3e} solve formed, and on the dual side
    # likewise). 43 in all
    f3 = GF(3)
    w = Weight.identity(f3, 2)
    report = cross_check(Mat(f3, [[1, 1], [0, 0]]), w, w, n=2)
    assert report["ok"] and all(c["constructed"] is not None for c in report["checks"])
    assert work == {"solve": 6, "verify": 6, "equations": 17, "mul": 43}


def test_weighted_ep_solves_the_group_inverse_once(work):
    # a = diag(1, 0), e = f = 1: a = a^2 x, {1,3e} and {1,4f} are solved once each
    # (3 solves; the group inverse a x^2 and the one-sided inverses are
    # prerequisites, not certified). Every value is diag(1, 0): verify runs for
    # core and dual core (2) and evaluates each of (1), (2), (3e), (4f), (6), (7),
    # (8), (9) once. Products: 3 for a^# (a^2, a x = a^# a, (a^# a) x), 3 + 3 for
    # the one-sided inverses (a* e, a* e a, x* e and their mirrors), 1 + 1 for the
    # core values ((a^# a) a^(1,3e) and its mirror), 6 to check (a x and x a,
    # which are equal; (1), (2), (3e) and the dual core's (4f), which forms
    # f (x a) itself; (6) and (7) read the products of (1) and (2), and (8) and
    # (9) again those of (1) and (2)) and none for p = 1 - a^# a and its
    # check a^# a = a a^#, which reads the a x of the value
    rep = is_weighted_ep(Mat(QQ, [[1, 0], [0, 0]]), I2, I2)
    assert rep.weighted_ep
    assert work == {"solve": 3, "verify": 2, "equations": 8, "mul": 17}


def test_weighted_mp_certifies_only_its_own_value(work):
    # a = [[1, 1], [0, 0]] over F3, e = f = 1: {1,3e} and {1,4f} solved once each,
    # x = diag(1, 0) and y = [[2, 0], [2, 0]] used uncertified, and y a x = y
    # certified once on (1), (2), (3e), (4f). Products: 3 + 3 for the one-sided
    # inverses (a* e, a* e a, x* e and a f^-1, a f^-1 a*, f^-1 y*), 2 for y a x and
    # 6 to check (a x, x a and one per label but (5))
    f3 = GF(3)
    w = Weight.identity(f3, 2)
    cert = weighted_mp(Mat(f3, [[1, 1], [0, 0]]), w, w)
    assert cert.value == cert.witnesses["inv_14f"] == Mat(f3, [[2, 0], [2, 0]])
    assert work == {"solve": 2, "verify": 1, "equations": 4, "mul": 14}


def test_inv_14f_is_solved_on_the_mirror_and_certified_on_a(work):
    # the builder runs on (a*, f^-1): a f^-1, a f^-1 a* and f^-1 y* (3 products, one
    # solve); the value is then certified on (1) and (4f) of (a, f): (1) by its
    # one route (a x) a, and (4f) as f (x a) (4 products). The route of (1) does
    # not depend on which side (4f) formed first, which costs one product here
    f3 = GF(3)
    w = Weight.identity(f3, 2)
    cert = inv_14f(Mat(f3, [[1, 1], [0, 0]]), w)
    assert cert.value == Mat(f3, [[2, 0], [2, 0]])
    assert cert.witnesses == {"y": Mat(f3, [[2, 2], [0, 0]])}
    assert work == {"solve": 1, "verify": 1, "equations": 2, "mul": 7}


def test_gram_formula_forms_the_gram_matrix_once(monkeypatch):
    # the {1,3e} solve of e_core and the Gram formula read one Gram pair (a* e,
    # a* e a), and the formula's p = 1 - a x reads the a x that certified x
    formed = []
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda x, y: formed.append((x.form, y.form)) or mul(x, y))
    for field in (QQ, QI):
        a = random_group_invertible(4, field, seed=3, rank=2)
        e = random_weight(4, field, seed=4, definite=True)
        ae = a.star() * e.value
        formed.clear()
        value = gram_formula(a, e)
        assert formed.count((ae.form, a.form)) == 1
        assert len(set(formed)) == len(formed)  # no product formed twice
        assert value == e_core(a, e).value


def test_e_core_on_a_weighted_ep_input_shares_the_products_of_its_labels(monkeypatch):
    # a = w^-1 h with h Hermitian is weighted-EP for e = f = w: its core inverse x
    # commutes with a, so a x and x a have equal forms, and (6) x a^2 = a and
    # (7) a x^2 = x compare the a x a of (1) and the x a x of (2). (1) forms a x
    # and (a x) a, (2) x a and (x a) x, since no side is formed in advance
    products, formed = [], {}
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    for label, predicate in coreinv.ginverse._PREDICATES.items():

        def counted(*args, label=label, predicate=predicate):
            before = len(products)
            ok = predicate(*args)
            formed[label] = len(products) - before
            return ok

        monkeypatch.setitem(coreinv.ginverse._PREDICATES, label, counted)
    for field in (QQ, QI):
        w = random_weight(3, field, seed=5, definite=True)
        b = random_mat(3, field, seed=6)
        a = w.inv * b.star() * Mat(field, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]) * b
        assert a.rank() == 2 and is_weighted_ep(a, w, w).weighted_ep
        formed.clear()
        cold_start()  # the instance held for a has every outcome already
        assert not isinstance(e_core(a, w), NotInvertible)
        assert formed == {"(1)": 2, "(2)": 2, "(3e)": 1, "(6)": 0, "(7)": 0}


# The kinds in the order cross_check meets them: the group inverse, the core
# inverse after its {1,3e} prerequisite, the dual core inverse after its {1,4f}
# prerequisite, and the weighted Moore-Penrose inverse.
VISIT_ORDER = (
    GInverseKind.GROUP,
    GInverseKind.ONE_THREE_E,
    GInverseKind.E_CORE,
    GInverseKind.ONE_FOUR_F,
    GInverseKind.F_DUAL_CORE,
    GInverseKind.WEIGHTED_MP,
)


def fresh_outcomes(a, x, e, f):
    """Every label's outcome from fresh products of plain matrices, as written."""
    return {
        "(1)": a * x * a == a,
        "(2)": x * a * x == x,
        "(3e)": (e.value * (a * x)).is_hermitian(),
        "(4f)": (f.value * (x * a)).is_hermitian(),
        "(5)": a * x == x * a,
        "(6)": x * a * a == a,
        "(7)": a * x * x == x,
        "(8)": a * a * x == a,
        "(9)": x * x * a == x,
    }


def test_verify_on_shared_products_matches_fresh_products():
    """Over all of M_2(F_3) and every invertible symmetric weight, verify on one
    instance per a, which keeps each value's products and outcomes across kinds
    and weights, reports what fresh products report: for every constructed
    value, shared by kinds or commuting with a, and for seeded random candidates."""
    f3 = GF(3)
    rng = random.Random(2109)
    weights = [Weight(Mat(f3, w)) for w in iter_invertible_symmetric(3, 2)]
    aliased = 0
    for a_raw in EnumerationSpace(3, 2).matrices():
        a = Mat(f3, a_raw)
        inst = _instance(a)
        sample = [Mat(f3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)]) for _ in range(3)]
        for w in weights:
            built = (
                group_inverse(inst),
                inv_13e(inst, w),
                e_core(inst, w),
                inv_14f(inst, w),
                f_dual_core(inst, w),
                weighted_mp(inst, w, w),
            )
            values = {r.value: None for r in built if not isinstance(r, NotInvertible)}
            for x in [*values, *sample]:
                fresh = fresh_outcomes(a, x, w, w)
                aliased += fresh["(5)"]
                for kind in VISIT_ORDER:
                    expected = tuple((label, fresh[label]) for label in EQUATIONS[kind])
                    assert verify(kind, inst, x, e=w, f=w).results == expected, (a, w, x, kind)
    assert aliased > 0


def test_a_value_shared_by_kinds_is_evaluated_once_per_label(work):
    # an invertible a has one value, a^-1, of all six kinds: its nine labels are
    # evaluated once each, over the 6 certificates of one cross_check
    f3 = GF(3)
    w = Weight.identity(f3, 2)
    a = Mat(f3, [[1, 1], [0, 1]])
    report = cross_check(a, w, w, n=2)
    inverse = [["1", "2"], ["0", "1"]]
    assert report["ok"] and all(c["constructed"]["entries"] == inverse for c in report["checks"])
    assert (work["verify"], work["equations"]) == (6, 9)
    # the next call on the same object shares the instance the oracle holds for
    # it: each certificate is verified again, but no label is evaluated again
    cross_check(a, w, w, n=2)
    assert (work["verify"], work["equations"]) == (12, 9)
    # after a cold start an equal matrix evaluates them all again
    cold_start()
    cross_check(Mat(f3, [[1, 1], [0, 1]]), w, w, n=2)
    assert (work["verify"], work["equations"]) == (18, 18)


@pytest.fixture
def group_solves(monkeypatch):
    """The solves of a = a^k x: the only solve_right calls the constructions make."""
    solves = []
    solve = coreinv.ginverse.solve_right

    def counted(lhs, rhs):
        solves.append(lhs)
        return solve(lhs, rhs)

    monkeypatch.setattr(coreinv.ginverse, "solve_right", counted)
    return solves


def test_consecutive_cross_checks_on_one_matrix_share_its_instance(work, group_solves):
    # a = [[1, 1], [0, 0]] = a^2 over F3; against all 18 weights one Mat solves
    # a = a^2 x once, equal matrices after a cold start once each, with the
    # same reports
    f3, rows = GF(3), [[1, 1], [0, 0]]
    weights = [Weight(Mat(f3, w)) for w in iter_invertible_symmetric(3, 2)]
    a = Mat(f3, rows)
    held = [cross_check(a, w, w, n=2) for w in weights]
    assert len(group_solves) == 1
    products = work["mul"]

    def cold(w):
        cold_start()
        return cross_check(Mat(f3, rows), w, w, n=2)

    fresh = [cold(w) for w in weights]
    assert len(group_solves) == 1 + 18
    assert held == fresh and all(r["ok"] for r in held)
    assert work["mul"] - products > products


def test_fresh_equal_weights_keep_the_held_instance_bounded(work):
    # a weight is keyed by its value: after the first of 2,000 cross_checks on one
    # matrix object, each with a fresh Weight equal to 1, the held instance adds
    # no fact and no call forms one again. The (a*)^2 e a membership of each
    # power route is a fact, so a repeat call solves nothing; it still makes the
    # 8 products of the builder steps no fact holds: a s* and (a s*) e on each
    # power route, the core values (a^# a) a^(1,3e) and its mirror, and y a x
    f3 = GF(3)
    a = Mat(f3, [[1, 1], [0, 0]])

    def spent():
        w = Weight(Mat(f3, [[1, 0], [0, 1]]))
        before = dict(work)
        cross_check(a, w, w, n=2)
        return {key: work[key] - before[key] for key in ("solve", "mul")}

    spent()
    facts = len(held(a)._facts)
    for _ in range(1999):
        assert spent() == {"solve": 0, "mul": 8}
    assert len(held(a)._facts) == facts <= 20


def test_a_warm_cross_check_forms_only_its_value_builds(work):
    # every fact a second cross_check on one instance reads is held: it solves
    # nothing and evaluates no equation, though each of its 6 certificates is
    # verified again. On a = [[1, 1], [0, 0]], where every kind exists, it forms
    # only the 8 products of the value builds (see the test above) and returns
    # the first call's report
    f3 = GF(3)
    w = Weight.identity(f3, 2)
    a = _instance(Mat(f3, [[1, 1], [0, 0]]))
    first = cross_check(a, w, w, n=2)
    before = dict(work)
    assert cross_check(a, w, w, n=2) == first
    spent = {key: work[key] - before[key] for key in work}
    assert spent == {"solve": 0, "verify": 6, "equations": 0, "mul": 8}


def test_verify_holds_each_kinds_outcome_per_weight_value(work):
    # one value x, two weights with another (3e) outcome: each call returns the
    # report of its own weight, a repeat evaluates nothing, and the kind named by
    # its string gives the report of the member
    a, x = Mat(QQ, [[1, 1], [0, 0]]), Mat(QQ, [[1, 0], [0, 0]])
    w1, w2 = I2, Weight(Mat(QQ, [[1, 1], [1, 2]]))
    first = verify(GInverseKind.E_CORE, a, x, e=w1)
    assert first.ok and work["equations"] == 5
    second = verify(GInverseKind.E_CORE, a, x, e=w2)
    assert second.failed == ("(3e)",) and work["equations"] == 6  # (3e) under w2 alone
    assert verify(GInverseKind.E_CORE, a, x, e=w1) == first
    named = verify("ecore", a, x, e=w2)
    assert named == second and named.kind is GInverseKind.E_CORE
    assert work["equations"] == 6
    for w, report in ((w2, second), (w1, first)):
        cold_start()
        assert verify(GInverseKind.E_CORE, a, x, e=w) == report


def test_an_equal_fresh_copy_of_a_held_matrix_runs_no_solve(work):
    # a copy decoded from JSON is another object with a's value: the public calls
    # on it find the instance the calls on a left held, and return equal results
    a = random_group_invertible(4, QI, seed=3, rank=2)
    e = random_weight(4, QI, seed=4)
    calls = (
        group_inverse,
        lambda m: e_core(m, e),
        lambda m: f_dual_core_via_power(m, e, 3),
        lambda m: weighted_mp(m, e, e),
        lambda m: is_weighted_ep(m, e, e),
        lambda m: decompose_idempotent(m, e),
    )
    first = [call(a) for call in calls]
    solves = work["solve"]
    assert solves > 0
    copy = mat_from_json(json.loads(json.dumps(mat_to_json(a))))
    assert copy is not a and [call(copy) for call in calls] == first
    assert work["solve"] == solves


def held(a):
    """The instance this thread holds for the value of a."""
    instance = coreinv.ginverse._held.table[a]
    assert instance == a and instance is not a
    return instance


def test_an_equal_matrix_shares_the_held_instance_and_an_interrupted_one_stays_held(
    group_solves,
):
    f3, rows = GF(3), [[1, 1], [0, 0]]
    w = Weight.identity(f3, 2)
    a = Mat(f3, rows)
    first = cross_check(a, w, w, n=2)
    assert cross_check(a, w, w, n=2) == first and len(group_solves) == 1
    # an equal matrix is another object with the same value: it shares the
    # instance, and a stays held
    assert cross_check(Mat(f3, rows), w, w, n=2) == first and len(group_solves) == 1
    assert cross_check(a, w, w, n=2) == first and len(group_solves) == 1
    # a stays held while fewer than HELD_MATRICES other values come between
    # (distinct, and none equal to a: their last entry is 1)
    others = [Mat(f3, [[k % 3, k // 3 % 3], [k // 9, 1]]) for k in range(HELD_MATRICES)]
    for b in others[1:]:
        cross_check(b, w, w, n=2)
    solves = len(group_solves)
    assert cross_check(a, w, w, n=2) == first and len(group_solves) == solves
    # and starts fresh once HELD_MATRICES others have been handed out since
    for b in others:
        cross_check(b, w, w, n=2)
    solves = len(group_solves)
    assert cross_check(a, w, w, n=2) == first and len(group_solves) == solves + 1


def test_another_thread_does_not_share_the_held_instance(work):
    f3 = GF(3)
    w = Weight.identity(f3, 2)

    def spent(call):
        before = dict(work)
        result = call()
        return result, {key: work[key] - before[key] for key in work}

    for call in (
        lambda a: cross_check(a, w, w, n=2),
        lambda a: e_core(a, w),
        lambda a: decompose_idempotent(a, w),
    ):
        a = Mat(f3, [[1, 1], [0, 0]])
        cold_start()  # the call before held an equal matrix
        result, full = spent(lambda: call(a))
        _, again = spent(lambda: call(a))
        assert again["solve"] < full["solve"] and again["mul"] < full["mul"]
        other = []
        thread = threading.Thread(target=lambda: other.append(call(a)))
        _, spent_there = spent(lambda: (thread.start(), thread.join()))
        assert other == [result] and spent_there == full


def test_distinct_matrices_leave_at_most_the_held_bound():
    w = Weight.identity(QQ, 2)
    mats = [Mat(QQ, [[1, k], [0, 0]]) for k in range(2000)]
    for a in mats:
        e_core(a, w)
    # the thread holds the last HELD_MATRICES of them, least recently used first,
    # each under its own instance, not under the caller's matrix
    table = coreinv.ginverse._held.table
    assert HELD_MATRICES == 16
    assert list(table) == mats[-HELD_MATRICES:]
    assert all(isinstance(held, _Instance) and table[held] is held for held in table)


def test_distinct_weights_keep_the_held_facts_within_the_cap():
    # each weight value adds its one-sided result and its Gram pair: the held
    # instance is replaced once it has gone past HELD_FACTS, so it never stays
    # above the cap by more than the facts of one call
    a = Mat(QQ, [[1, 1], [0, 0]])
    facts = []
    for k in range(1, 2001):
        assert e_core(a, Weight(Mat(QQ, [[1, 0], [0, k]]))).value == Mat(QQ, [[1, 0], [0, 0]])
        facts.append(len(held(a)._facts))
    assert HELD_FACTS == 256
    assert max(facts) <= HELD_FACTS + 2
    replaced = [i for i in range(1, len(facts)) if facts[i] < facts[i - 1]]
    assert len(replaced) >= 2000 * 2 // HELD_FACTS - 1


def test_distinct_weights_keep_a_values_outcomes_within_the_cap():
    # each weight value adds one (3e) outcome to the products of x, which the
    # held instance keeps under x's form; the dict stops taking outcomes at the cap
    a, x = Mat(QQ, [[1, 1], [0, 0]]), Mat(QQ, [[1, 0], [0, 0]])
    for k in range(1, 2001):
        assert verify(GInverseKind.ONE_THREE_E, a, x, e=Weight(Mat(QQ, [[1, 0], [0, k]]))).ok
    assert len(held(a)._products(x)._known) <= HELD_FACTS


@pytest.mark.parametrize("field", [QQ, QI, GF(3)], ids=str)
def test_mirror_power_solve_equals_a_fresh_solve(field, work):
    """The mirror's memberships a* = y (a*)^k and a* = (a*)^k x are facts of its own
    side, each solved once on (a*)^k = (a^k)*; the witness is exactly the one a
    fresh solve pins."""
    inconsistent = 0
    for seed in range(4):
        for a in (
            random_group_invertible(3, field, seed=seed),
            random_non_group_invertible(3, field, seed=seed),
            random_mat(3, field, seed=seed),
        ):
            core = _instance(a)  # the mirror points back weakly: keep its core alive
            mirror = core.star()
            s = a.star()
            for k in (2, 3):
                for side, solve in (("left", solve_left), ("right", solve_right)):
                    fresh = solve(s.power(k), s)
                    solves = work["solve"]
                    got = mirror.member(side, ("power", k))
                    assert work["solve"] == solves + 1  # the mirror's solve, once
                    assert mirror.member(side, ("power", k)) == got
                    assert work["solve"] == solves + 1
                    assert (got is not None) == fresh.consistent
                    if fresh.consistent:
                        assert got == fresh.solution
                        assert got.form == fresh.solution.form
                    else:
                        inconsistent += 1
    assert inconsistent > 0


def test_a_perturbed_power_value_is_still_verified(work, monkeypatch):
    build = coreinv.ginverse._e_core_via_power

    def perturbed(a, e, n):
        value, witnesses = build(a, e, n)
        return value + Mat.identity(a.field, a.n), witnesses

    monkeypatch.setattr(coreinv.ginverse, "_e_core_via_power", perturbed)
    a = _instance(A)
    assert not isinstance(e_core(a, I2), NotInvertible)
    assert not isinstance(f_dual_core(a, I2), NotInvertible)
    for via_power, label in ((e_core_via_power, "ecore"), (f_dual_core_via_power, "fdual")):
        verified, evaluated = work["verify"], work["equations"]
        with pytest.raises(RuntimeError, match=f"constructed {label} inverse fails"):
            via_power(a, I2, 2)
        assert work["verify"] == verified + 1
        assert work["equations"] > evaluated  # a new value: its equations are evaluated


def test_an_equal_weight_under_another_weight_object_evaluates_no_label_again(work):
    a = _instance(A)
    same = Weight(Mat(QQ, [[1, 0], [0, 1]]))  # equal to I2, but another matrix
    direct = e_core(a, I2)
    verified, evaluated = work["verify"], work["equations"]
    powered = e_core_via_power(a, I2, 2)
    # the direct value's form, under the same I2: verified, but nothing evaluated
    assert (work["verify"], work["equations"]) == (verified + 1, evaluated)
    again = e_core_via_power(a, same, 2)
    # a weight is keyed by its value: under another object, nothing is evaluated
    assert (work["verify"], work["equations"]) == (verified + 2, evaluated)
    assert direct.value == powered.value == again.value
    assert (powered.n, again.n, powered.witnesses.keys()) == (2, 2, {"s"})


def test_a_weight_of_another_prime_field_finds_no_held_fact():
    """F_3 and F_5 forms are both tuples of ints, so an F_5 weight can have the form
    of a held F_3 one: every weighted constructor, both power routes and verify
    refuse it, cold and with the F_3 result held."""
    a = Mat(GF(3), [[1, 1], [0, 0]])
    w3, w5 = Weight.identity(GF(3), 2), Weight.identity(GF(5), 2)
    x = e_core(a, w3).value
    calls = {
        "inv_13e": lambda w: inv_13e(a, w),
        "inv_14f": lambda w: inv_14f(a, w),
        "weighted_mp": lambda w: weighted_mp(a, w, w),
        "e_core": lambda w: e_core(a, w),
        "f_dual_core": lambda w: f_dual_core(a, w),
        "e_core_via_power": lambda w: e_core_via_power(a, w, 2),
        "f_dual_core_via_power": lambda w: f_dual_core_via_power(a, w, 2),
        "lemma_r_core_check": lambda w: lemma_r_core_check(a, w, 2),
        **{
            f"verify {k.value}": lambda w, k=k: verify(k, a, x, e=w, f=w)
            for k in GInverseKind
            if k is not GInverseKind.GROUP  # reads no weight
        },
    }
    for name, call in calls.items():
        for hold in (False, True):
            cold_start()
            if hold:
                call(w3)
            with pytest.raises(BackendMismatchError):
                call(w5)
                pytest.fail(name)


def test_a_weight_of_another_dim_is_refused_cold_and_warm():
    """A weight's field and dim are checked by identity first: a weight of
    another dim is still refused with the same text, cold and with the facts of
    a's own weight held."""
    f3 = GF(3)
    a = Mat(f3, [[1, 1], [0, 0]])
    w2, w3 = Weight.identity(f3, 2), Weight.identity(f3, 3)
    x = e_core(a, w2).value
    calls = {
        "inv_13e": lambda w: inv_13e(a, w),
        "inv_14f": lambda w: inv_14f(a, w),
        "weighted_mp": lambda w: weighted_mp(a, w, w),
        "e_core": lambda w: e_core(a, w),
        "f_dual_core": lambda w: f_dual_core(a, w),
        "e_core_via_power": lambda w: e_core_via_power(a, w, 2),
        "f_dual_core_via_power": lambda w: f_dual_core_via_power(a, w, 2),
        "lemma_r_core_check": lambda w: lemma_r_core_check(a, w, 2),
        **{
            f"verify {k.value}": lambda w, k=k: verify(k, a, x, e=w, f=w)
            for k in GInverseKind
            if k is not GInverseKind.GROUP  # reads no weight
        },
    }
    for name, call in calls.items():
        texts = []
        for hold in (False, True):
            cold_start()
            if hold:
                call(w2)
            with pytest.raises(DimensionMismatchError) as refused:
                call(w3)
            texts.append(str(refused.value))
        assert texts == ["dimension mismatch: 2 vs 3"] * 2, name


def test_constructions_leave_no_cyclic_garbage():
    a = random_group_invertible(8, QI, seed=5, rank=5)
    w = random_weight(8, QI, seed=6, definite=True)
    f3 = GF(3)
    b, i3 = Mat(f3, [[1, 1], [0, 0]]), Weight.identity(f3, 2)
    calls = (
        lambda: cross_check(b, i3, i3, n=2),
        lambda: is_weighted_ep(a, w, w),
        lambda: f_dual_core_via_power(a, w, 3),
    )
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("field", [QQ, QI, GF(2), GF(3), GF(5)], ids=str)
def test_one_solve_decides_every_power_membership(field):
    """Over a field, a in a^2 R, R a^2, a^n R and R a^n (n = 2..MAX_POWER) hold or
    fail together, and a x^2, with x from a = a^2 x, is the group inverse y a x."""
    for dim in range(2, 9):
        for seed in (dim, 100 + dim):
            for a, invertible in (
                (random_group_invertible(dim, field, seed=seed), True),
                (random_non_group_invertible(dim, field, seed=seed), False),
            ):
                x = solve_right(a.power(2), a).solution
                y = solve_left(a.power(2), a).solution
                for n in range(2, MAX_POWER + 1):
                    an = a.power(n)
                    assert solve_right(an, a).consistent is invertible, (dim, seed, n)
                    assert solve_left(an, a).consistent is invertible, (dim, seed, n)
                if invertible:
                    assert a * x * x == y * a * x
                    assert verify(GInverseKind.GROUP, a, a * x * x).ok
                    assert _instance(a).group() == group_inverse(a).value == y * a * x
                else:
                    assert group_inverse(a) == NotInvertible("group", "a^2R", "a not in a^2 R")


@pytest.mark.parametrize("field", [QQ, QI, GF(3)], ids=str)
def test_a_mirror_kept_past_its_core_works_alone(field):
    w = random_weight(3, field, seed=7, definite=True)
    for seed in range(3):
        for a in (random_group_invertible(3, field, seed=seed), random_mat(3, field, seed=seed)):
            s = a.star()
            mirror = _Instance(a).star()  # nothing else holds the core: it is gone
            for k in (2, 3):
                for side, solve in (("left", solve_left), ("right", solve_right)):
                    assert mirror.member(side, ("power", k)) == solve(s.power(k), s).solution
            expected = group_inverse(s)
            invertible = not isinstance(expected, NotInvertible)
            assert mirror.group_invertible() is invertible
            assert mirror.group() == (expected.value if invertible else expected)
            assert group_inverse(mirror) == expected
            assert mirror.star() == a and mirror.star().star() == s
            for build in (e_core, f_dual_core, inv_13e, inv_14f):
                assert build(mirror, w) == build(s, w)
            assert weighted_mp(mirror, w, w) == weighted_mp(s, w, w)
            assert e_core_via_power(mirror, w, 2) == e_core_via_power(s, w, 2)
            assert f_dual_core_via_power(mirror, w, 3) == f_dual_core_via_power(s, w, 3)
    gc.collect()
    gc.disable()
    try:
        mirror = _Instance(A).star()
        f_dual_core(mirror, I2)
        del mirror
        assert gc.collect() == 0
    finally:
        gc.enable()


# Matrices converted from rows to their integer form by one call on fresh dim-8
# inputs of rank 6 (rank 8 for the full-rank calls), which already hold forms
# (they are products). Solves return forms and identities are built as forms, so
# no call converts any: one that converted the caller's a next to its instance,
# say, a solution built as elements or an identity built as rows, would go over,
# and one that built the elements of a product it does not return would build some.
CONVERSION_BUDGET = {
    "e_core": 0,
    "weighted_mp": 0,
    "is_weighted_ep": 0,
    "inverse": 0,
    "decompose_idempotent": 0,
    "gram_formula": 0,
    "is_weighted_ep, full rank": 0,
}


@pytest.mark.parametrize("field", [QQ, QI], ids=str)
def test_each_matrix_side_is_converted_once_per_call(field, monkeypatch):
    converted, built = [], []
    to_form, to_rows = field.to_form, field.to_rows

    def counted_to_form(rows):
        converted.append(id(rows))
        return to_form(rows)

    def counted_to_rows(form):
        built.append(id(form))
        return to_rows(form)

    monkeypatch.setattr(field, "to_form", counted_to_form)
    monkeypatch.setattr(field, "to_rows", counted_to_rows)
    calls = {
        "e_core": (lambda a, e, f: e_core(a, e), 6),
        "weighted_mp": (weighted_mp, 6),
        "is_weighted_ep": (is_weighted_ep, 6),
        "inverse": (lambda a, e, f: a.inverse(), 8),
        "decompose_idempotent": (lambda a, e, f: decompose_idempotent(a, e), 6),
        "gram_formula": (lambda a, e, f: gram_formula(a, e), 6),
        "is_weighted_ep, full rank": (is_weighted_ep, 8),
    }
    for name, (call, rank) in calls.items():
        a = random_group_invertible(8, field, seed=1, rank=rank)
        e = random_weight(8, field, seed=101)
        f = random_weight(8, field, seed=201)
        converted.clear()
        built.clear()
        call(a, e, f)
        assert len(set(converted)) == len(converted) <= CONVERSION_BUDGET[name], name
        assert built == [], name
    # a certificate goes to JSON text and back from its forms alone
    cert = e_core(a, e)
    converted.clear()
    certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    assert converted == [] and built == []
