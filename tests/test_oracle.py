"""Brute-force enumeration: solution sets, idempotent certificates, cross-checks."""

import random
from functools import reduce
from itertools import product

import pytest

import coreinv.ginverse
import coreinv.oracle
from coreinv import (
    GF,
    QQ,
    EnumerationSpace,
    Flavor,
    GInverseKind,
    InverseCertificate,
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
    random_weight,
    weighted_mp,
)
from coreinv.ginverse import MAX_POWER
from coreinv.matrix import MAX_DIM
from coreinv.oracle import iter_invertible_symmetric

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


@pytest.mark.parametrize("p", [3, 5])
def test_raw_matrices_are_taken_as_forms(p):
    # the oracle's rows of residues are the F_p form, so it builds no elements
    for raw in EnumerationSpace(p, 2).matrices():
        m, ref = coreinv.oracle._to_mat(raw, p), Mat(GF(p), raw)
        assert m == ref and m.form == ref.form and m.rows == ref.rows


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


def test_sweep_f2_exhaustive(monkeypatch):
    checked = []
    check = coreinv.oracle.cross_check

    def spy(a, *args, **kwargs):
        checked.append(a)
        return check(a, *args, **kwargs)

    monkeypatch.setattr(coreinv.oracle, "cross_check", spy)
    report = cross_check_sweep(2, 2, n=2)
    assert report["space"] == {"p": 2, "dim": 2, "count": 16, "exhaustive": True}
    assert report["checked"] == 16 * 4  # 4 invertible symmetric weights over F2
    assert report["mismatches"] == []
    # all the weights of one matrix share its instance
    assert len(checked) == 64 and len({id(a) for a in checked}) == 16


def test_a_sweep_holds_no_matrix_in_the_thread_table(monkeypatch):
    # the sweep hands each matrix an instance of its own, so the thread holds
    # only what it held before, and that stays held
    before = Mat(QQ, [[1, 1], [0, 0]])
    e_core(before, Weight.identity(QQ, 2))
    table = coreinv.ginverse._held.table
    held = []
    check = coreinv.oracle.cross_check

    def spy(*args, **kwargs):
        held.append(len(table))
        return check(*args, **kwargs)

    monkeypatch.setattr(coreinv.oracle, "cross_check", spy)
    assert cross_check_sweep(2, 2, n=2)["mismatches"] == []
    assert len(held) == 64 and max(held) == 1
    assert list(table) == [before]


@pytest.mark.parametrize("sample, seed", [(None, None), (8, 1)], ids=["exhaustive", "sampled"])
def test_a_sweep_leaves_the_instance_held_for_a_matrix_it_visits(monkeypatch, sample, seed):
    # [[1, 1], [0, 0]] lies in M_2(F_2): the sweep visits an equal matrix, and
    # the instance the caller held for it is neither replaced nor dropped
    before = Mat(F2, [[1, 1], [0, 0]])
    e_core(before, E2)
    table = coreinv.ginverse._held.table
    instance = table[before]
    held = []
    check = coreinv.oracle.cross_check

    def spy(*args, **kwargs):
        held.append(len(table))
        return check(*args, **kwargs)

    monkeypatch.setattr(coreinv.oracle, "cross_check", spy)
    report = cross_check_sweep(2, 2, n=2, sample=sample, seed=seed)
    assert report["mismatches"] == [] and report["checked"] == len(held)
    assert set(held) == {1}
    assert list(table) == [before] and table[before] is instance


def test_sweep_refuses_large_space_without_sample(monkeypatch):
    def no_weights(p, dim):
        raise AssertionError("weights listed before the space was refused")

    monkeypatch.setattr(coreinv.oracle, "iter_invertible_symmetric", no_weights)
    with pytest.raises(SpaceTooLargeError):
        cross_check_sweep(5, 3)


def test_sweep_refuses_a_dim_outside_the_bound(monkeypatch):
    # refused before the size of the space, p^(dim^2), is formed
    monkeypatch.setattr(EnumerationSpace, "count", property(lambda space: 1 / 0))
    for dim in (0, -1, MAX_DIM + 1, 3000, True, 2.0):
        with pytest.raises(ValueError, match=f"1 <= dim <= {MAX_DIM}"):
            EnumerationSpace(3, dim)
        for sample, seed in ((None, None), (1, 1)):
            with pytest.raises(ValueError, match=f"1 <= dim <= {MAX_DIM}"):
                cross_check_sweep(3, dim, sample=sample, seed=seed)


def test_sweep_refuses_a_p_outside_the_supported_primes(monkeypatch):
    # refused before the size of the space is formed, so no sweep checks nothing
    monkeypatch.setattr(EnumerationSpace, "count", property(lambda space: 1 / 0))
    for p in (0, 1, -3, 4, True, 2.0):
        with pytest.raises(ValueError, match="unsupported prime modulus"):
            EnumerationSpace(p, 2)
        for sample, seed in ((None, None), (1, 1)):
            with pytest.raises(ValueError, match="unsupported prime modulus"):
                cross_check_sweep(p, 2, sample=sample, seed=seed)


def test_sweep_sampled():
    report = cross_check_sweep(5, 3, sample=3, seed=11)
    assert report["checked"] == 3
    assert report["space"]["exhaustive"] is False
    assert report["mismatches"] == []
    with pytest.raises(ValueError):
        cross_check_sweep(5, 3, sample=3)


def test_sampled_mode_refuses_to_check_nothing():
    # an oracle call that checks zero candidates or instances is not a pass
    nil = Mat(F3, [[0, 1], [0, 0]])
    for sample in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            cross_check(nil, E3, E3, sample=sample, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            brute_solutions(GInverseKind.E_CORE, nil, e=E3, sample=sample, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            cross_check_sweep(2, 2, sample=sample, seed=1)
    with pytest.raises(ValueError, match="requires a seed"):
        cross_check(nil, E3, E3, sample=5)


@pytest.mark.parametrize("n", [0, -1, -3, MAX_POWER + 1, 10**5, True, 1.0, "2"])
def test_an_exponent_outside_the_power_bound_is_refused(n):
    # n = 0 would read a^0 = 1 and n < 0 would act as 1; each is refused before
    # any search, as the constructors and characterizations refuse it
    a = Mat(F3, [[1, 1], [0, 0]])
    with pytest.raises(ValueError, match=f"1 <= n <= {MAX_POWER}"):
        cross_check(a, E3, E3, n=n)
    with pytest.raises(ValueError, match=f"1 <= n <= {MAX_POWER}"):
        cross_check_sweep(3, 2, n=n)
    with pytest.raises(ValueError, match=f"1 <= n <= {MAX_POWER}"):
        brute_idempotent_certificates(a, E3, n, Flavor.IDEM_P)


def _bogus_e_core(monkeypatch, value):
    """Make cross_check's e-core constructor return `value`, unverified."""
    cert = InverseCertificate(GInverseKind.E_CORE, value)
    monkeypatch.setattr(coreinv.oracle, "e_core", lambda a, e: cert)


def _ecore_entry(report):
    return next(c for c in report["checks"] if c["kind"] == "ecore")


def test_cross_check_requires_the_constructed_value_to_solve(monkeypatch):
    # The brute force may find nothing to disagree with: a kind without a
    # solution, or a sample that misses it. The constructed value must then
    # still satisfy the kind's equations itself.
    nil = Mat(F3, [[0, 1], [0, 0]])  # no e-core inverse exists
    assert cross_check(nil, E3, E3)["ok"]
    _bogus_e_core(monkeypatch, Mat.zeros(F3, 2))
    report = cross_check(nil, E3, E3)
    assert _ecore_entry(report)["brute_count"] == 0
    assert not _ecore_entry(report)["ok"] and not report["ok"]
    monkeypatch.undo()

    F5 = GF(5)
    ident, e5 = Mat.identity(F5, 3), Weight.identity(F5, 3)
    report = cross_check(ident, e5, e5, sample=5, seed=1)
    assert _ecore_entry(report)["brute_count"] == 0  # the sample misses the identity
    assert report["ok"]  # the identity solves its own equations
    _bogus_e_core(monkeypatch, Mat.zeros(F5, 3))
    report = cross_check(ident, e5, e5, sample=5, seed=1)
    assert _ecore_entry(report)["brute_count"] == 0
    assert not _ecore_entry(report)["ok"] and not report["ok"]


# A per-candidate reference for the oracle's shared pass: each kind's defining
# equations evaluated on one candidate, with a mod-p product of its own.
_REF_EQUATIONS = {
    GInverseKind.GROUP: ("1", "2", "5"),
    GInverseKind.ONE_THREE_E: ("1", "3e"),
    GInverseKind.ONE_FOUR_F: ("1", "4f"),
    GInverseKind.WEIGHTED_MP: ("1", "2", "3e", "4f"),
    GInverseKind.E_CORE: ("1", "2", "3e", "6", "7"),
    GInverseKind.F_DUAL_CORE: ("1", "2", "4f", "8", "9"),
}


def _ref_satisfies(kind, a, x, e, f, p):
    n = len(a)

    def m(*factors):
        return reduce(
            lambda u, v: tuple(
                tuple(sum(u[i][k] * v[k][j] for k in range(n)) % p for j in range(n))
                for i in range(n)
            ),
            factors,
        )

    def symmetric(y):
        return all(y[i][j] == y[j][i] for i in range(n) for j in range(n))

    equation = {
        "1": lambda: m(a, x, a) == a,
        "2": lambda: m(x, a, x) == x,
        "3e": lambda: symmetric(m(e, a, x)),
        "4f": lambda: symmetric(m(f, x, a)),
        "5": lambda: m(a, x) == m(x, a),
        "6": lambda: m(x, a, a) == a,
        "7": lambda: m(a, x, x) == x,
        "8": lambda: m(a, a, x) == a,
        "9": lambda: m(x, x, a) == x,
    }
    return all(equation[label]() for label in _REF_EQUATIONS[kind])


def _raw(m):
    return tuple(tuple(v.value for v in row) for row in m.rows)


def _check_against_reference(a, e, f, candidates, sample=None, seed=None):
    """Assert brute_solutions equals the reference over `candidates` for all six
    kinds; returns the number of solutions per kind."""
    p = a.field.p
    a_raw, e_raw, f_raw = _raw(a), _raw(e.value), _raw(f.value)
    counts = {}
    for kind in GInverseKind:
        expected = {x for x in candidates if _ref_satisfies(kind, a_raw, x, e_raw, f_raw, p)}
        got = brute_solutions(kind, a, e=e, f=f, sample=sample, seed=seed)
        assert {_raw(x) for x in got} == expected, (kind, a, e, f)
        counts[kind] = len(expected)
    return counts


def _isotropic(w):
    """Some nonzero v has v^T w v = 0: the finite-field analogue of an indefinite weight."""
    raw, p, n = _raw(w.value), w.value.field.p, w.value.n
    return any(
        any(v) and sum(v[i] * raw[i][j] * v[j] for i in range(n) for j in range(n)) % p == 0
        for v in product(range(p), repeat=n)
    )


def _weight_pairs(p):
    """(e, f) pairs with e != f, definite and indefinite weights on both sides."""
    field = GF(p)
    if p == 2:
        ws = [Weight(Mat(field, [list(r) for r in w])) for w in iter_invertible_symmetric(2, 2)]
        return [(e, f) for e in ws for f in ws if e != f]
    definite = [random_weight(2, field, seed=s, definite=True) for s in (1, 3)]
    indefinite = [random_weight(2, field, seed=s) for s in (1, 2)]
    assert not any(_isotropic(w) for w in definite)
    assert all(_isotropic(w) for w in indefinite)
    return [
        (definite[0], indefinite[0]),
        (indefinite[1], definite[1]),
        (indefinite[0], indefinite[1]),
        (definite[1], definite[0]),
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_shared_pass_matches_reference_exhaustive(p):
    pairs = _weight_pairs(p)
    assert all(e != f for e, f in pairs)
    space = list(EnumerationSpace(p, 2).matrices())
    totals = dict.fromkeys(GInverseKind, 0)
    for a_raw in space:
        a = Mat(GF(p), [list(r) for r in a_raw])
        for e, f in pairs:
            for kind, count in _check_against_reference(a, e, f, space).items():
                totals[kind] += count
    assert all(totals.values()), totals


def test_shared_pass_matches_reference_sampled():
    F5 = GF(5)
    rng = random.Random(2024)
    matrices = [
        Mat.zeros(F5, 3),
        Mat(F5, [[1, 2, 0], [2, 4, 0], [0, 0, 0]]),
        Mat(F5, [[1, 0, 2], [0, 1, 3], [0, 0, 0]]),
        Mat(F5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)]),
    ]
    e = random_weight(3, F5, seed=5, definite=True)
    f = random_weight(3, F5, seed=6)
    totals = dict.fromkeys(GInverseKind, 0)
    for i, a in enumerate(matrices):
        seed = 100 + i
        draw = random.Random(seed)
        candidates = [
            tuple(tuple(draw.randrange(5) for _ in range(3)) for _ in range(3))
            for _ in range(300)
        ]
        for kind, count in _check_against_reference(a, e, f, candidates, 300, seed).items():
            totals[kind] += count
    assert totals[GInverseKind.ONE_THREE_E] and totals[GInverseKind.ONE_FOUR_F], totals


def test_shared_pass_cold_and_warm_cache():
    from coreinv.oracle import _all_inner_inverses

    e, f = _weight_pairs(3)[0]
    space = list(EnumerationSpace(3, 2).matrices())

    def sets(order):
        return {
            (a_raw, kind): brute_solutions(kind, Mat(F3, [list(r) for r in a_raw]), e=e, f=f)
            for a_raw in order
            for kind in GInverseKind
        }

    _all_inner_inverses.cache_clear()
    cold = sets(reversed(space))
    assert _all_inner_inverses.cache_info().misses == len(space)
    warm = sets(space)
    assert _all_inner_inverses.cache_info().misses == len(space)
    assert cold == warm
    for a_raw in space[::10]:
        a = Mat(F3, [list(r) for r in a_raw])
        _check_against_reference(a, e, f, space)
