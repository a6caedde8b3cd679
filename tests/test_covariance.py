"""Covariance laws: exact identities that check the constructions at dims the
golden corpus (dim 4) and the brute-force oracle (dim 3) do not reach.

For an invertible s let a' = s a s^-1 and w' = s^-* w s^-1 for each weight.
Each of (1), (2) and (5)-(9) carries over by the similarity, and w' a' x' =
s^-* (w a x) s^-1 keeps (3e) Hermitian, as f' x' a' keeps (4f). So the unique
inverses map by x' = s x s^-1, s x s^-1 is a {1,3e}- or {1,4f}-inverse of a'
when x is one of a, and a negative stays a negative with the same failed
label. Second, a Q(i) input whose imaginary parts are all 0 gives the Q
answer, witnesses included: the RREF of real rows is the same over Q(i) as over
Q, so the Q(i) kernels are checked against the Q kernels.
"""

import pytest

from coreinv import (
    GF,
    QI,
    QQ,
    GInverseKind,
    Mat,
    NotInvertible,
    Weight,
    e_core,
    e_core_via_power,
    f_dual_core,
    group_inverse,
    inv_13e,
    inv_14f,
    random_group_invertible,
    random_mat,
    random_non_group_invertible,
    random_weight,
    verify,
    weighted_mp,
)

FIELDS = {"Q": QQ, "Qi": QI, "F3": GF(3), "F5": GF(5)}


def similarity(dim, field, seed):
    """A seeded invertible s and its inverse."""
    for k in range(100):
        s = random_mat(dim, field, seed=1000 * seed + k)
        si = s.inverse()
        if si is not None:
            return s, si
    raise AssertionError("no invertible s drawn")


def cases(dim, field, seed):
    """(a, e, f) triples: a group-invertible a, one that is not, and J ⊕ 0 with
    J the all-ones 2 x 2 block under e = f = diag(1, -1, 1, ...), for which
    a* e a = 0, so no {1,3e}- or {1,4f}-inverse exists."""
    e, f = random_weight(dim, field, seed=seed + 1), random_weight(dim, field, seed=seed + 2)
    yield random_group_invertible(dim, field, seed=seed), e, f
    yield random_non_group_invertible(dim, field, seed=seed), e, f
    j = Mat(field, [[int(i < 2 and k < 2) for k in range(dim)] for i in range(dim)])
    w = Weight(Mat(field, [[(-1) ** i if i == k else 0 for k in range(dim)] for i in range(dim)]))
    yield j, w, w


def constructions(a, e, f):
    return {
        "group": group_inverse(a),
        "ecore": e_core(a, e),
        "fdual": f_dual_core(a, f),
        "wmp": weighted_mp(a, e, f),
        "13e": inv_13e(a, e),
        "14f": inv_14f(a, f),
    }


# Q(i) costs about 20 times what Q does at dim 12, so it skips some dims and
# stops at 12: its dim 16 alone takes about 8 s, which belongs in a slow tier
DIMS = {
    "Q": range(2, 17),
    "Qi": (2, 3, 4, 5, 6, 8, 12),
    "F3": range(2, 17),
    "F5": range(2, 17),
}


@pytest.mark.parametrize("name", list(FIELDS))
def test_inverses_map_by_similarity(name):
    field, outcomes = FIELDS[name], set()
    for dim in DIMS[name]:
        s, si = similarity(dim, field, seed=dim)
        for a, e, f in cases(dim, field, seed=dim):
            moved = [Weight(si.star() * w.value * si) for w in (e, f)]
            after = constructions(s * a * si, *moved)
            for kind, before in constructions(a, e, f).items():
                if isinstance(before, NotInvertible):
                    assert isinstance(after[kind], NotInvertible), (dim, kind)
                    assert after[kind].failed == before.failed, (dim, kind)
                    outcomes.add((kind, before.failed))
                    continue
                x = s * before.value * si
                if kind in ("13e", "14f"):  # not unique: s x s^-1 must pass verify
                    assert verify(GInverseKind(kind), s * a * si, x, *moved), (dim, kind)
                else:
                    assert after[kind].value == x, (dim, kind)
                outcomes.add((kind, "ok"))
    assert outcomes >= {
        ("group", "ok"), ("group", "a^2R"), ("ecore", "ok"), ("ecore", "group"),
        ("ecore", "13e"), ("fdual", "ok"), ("fdual", "group"), ("fdual", "14f"),
        ("wmp", "ok"), ("wmp", "13e"), ("13e", "ok"), ("13e", "Ra*ea"),
        ("14f", "ok"), ("14f", "af^-1a*R"),
    }


def embedded(m: Mat) -> Mat:
    """The rational matrix m as a Gaussian rational one."""
    return Mat(QI, m.rows)


def test_real_qi_input_gives_the_q_certificate():
    for dim in (2, 3, 4, 6, 8):
        for a, e, f in cases(dim, QQ, seed=dim):
            ea, ee, ef = embedded(a), Weight(embedded(e.value)), Weight(embedded(f.value))
            over_q = {**constructions(a, e, f), "ecore2": e_core_via_power(a, e, 2)}
            over_qi = {**constructions(ea, ee, ef), "ecore2": e_core_via_power(ea, ee, 2)}
            for kind, q in over_q.items():
                qi = over_qi[kind]
                if isinstance(q, NotInvertible):
                    assert qi == q, (dim, kind)
                    continue
                assert (qi.kind, qi.n, embedded(q.value)) == (q.kind, q.n, qi.value), (dim, kind)
                assert {k: embedded(w) for k, w in q.witnesses.items()} == qi.witnesses, (dim, kind)
