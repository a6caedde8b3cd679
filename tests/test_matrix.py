"""Matrix ring: involution laws, exact solves, generators, JSON codecs."""

import random
import re
from fractions import Fraction
from math import gcd, log2

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import coreinv.ginverse
import coreinv.scalar
from coreinv import (
    GF,
    QI,
    QQ,
    BackendMismatchError,
    DimensionMismatchError,
    GaussianRational,
    GInverseKind,
    Mat,
    PrimeFieldElement,
    Weight,
    certificate_to_json,
    e_core,
    f_dual_core,
    left_annihilator_basis,
    mat_from_json,
    mat_to_json,
    random_group_invertible,
    random_mat,
    random_non_group_invertible,
    random_weight,
    solve_left,
    solve_right,
    verify,
    weight_from_json,
    weighted_mp,
)
from coreinv.ginverse import _Instance
from coreinv.matrix import MAX_DIM, SolveWitness
from coreinv.scalar import MAX_ENTRY_DIGITS, _canonical
from conftest import cold_start

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
    # the leftover row of the reduction is i: its real part alone would read consistent
    onesi = Mat(QI, [[1, 1], [1, 1]])
    assert not solve_right(onesi, Mat(QI, [[1, 0], [GaussianRational(1, 1), 0]])).consistent
    # the pivot row (2, 1 | 4, 0) is primitive only through its free column: the
    # solution 4/2 must still be reduced to its canonical form
    for field, zero in ((QQ, ()), (QI, (((0, 0), (0, 0)),))):
        w = solve_right(Mat(field, [[2, 1], [0, 0]]), Mat(field, [[4, 0], [0, 0]]))
        assert w.solution.form == (((2, 0), (0, 0)), *zero, 1)


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


def test_power_takes_only_a_nonnegative_int():
    a = Mat(QQ, [[1, 1], [0, 2]])
    assert a ** 0 == Mat.identity(QQ, 2) and a.power(1) == a
    assert a ** 3 == a * a * a
    # a bool is not an exponent, on a matrix or on a call's instance of it
    for m in (a, _Instance(a)):
        for k in (True, False, -1, 1.0, "2", None):
            for power in (m.power, m.__pow__):
                with pytest.raises(ValueError, match="requires an integer k >= 0"):
                    power(k)


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


@pytest.mark.parametrize("field", [QQ, QI, GF(2), GF(3), GF(5)], ids=str)
def test_rank_decides_invertibility_as_the_inverse_does(field):
    for dim in range(2, 9):
        for seed in range(2):
            rank = seed * dim // 2 + (dim + 1) // 2  # about half, then full
            a = random_group_invertible(dim, field, seed=seed, rank=rank)
            assert a.rank() == (a * a).rank() == rank
            nil = random_non_group_invertible(dim, field, seed=seed)
            assert (nil * nil).rank() < nil.rank()
            for m in (a, nil, random_mat(dim, field, seed=seed), Mat.identity(field, dim)):
                assert m.rank() == dim - len(left_annihilator_basis(m))
                assert m.is_invertible() == (m.inverse() is not None) == (m.rank() == dim)


@pytest.mark.parametrize("field", [QQ, QI, GF(3)], ids=str)
def test_rank_is_the_pivot_count_of_rref(field):
    """Forward elimination alone finds as many pivots as the full RREF has."""
    for dim in range(1, 9):
        mats = [random_mat(dim, field, seed=dim), Mat.zeros(field, dim)]
        mats += [random_group_invertible(dim, field, seed=dim + r, rank=r) for r in (dim // 2, dim)]
        if dim > 1:
            mats.append(random_non_group_invertible(dim, field, seed=dim))
        for m in mats:
            _, pivots = ref_rref(m.rows, dim, field)
            assert m.rank() == len(pivots)
        assert [m.rank() for m in mats[1:4]] == [0, dim // 2, dim]


def test_weight_is_validated_at_construction():
    with pytest.raises(ValueError, match="^weight must be Hermitian$"):
        Weight(Mat(QQ, [[1, 1], [0, 1]]))
    for field in (QQ, QI, GF(3)):
        with pytest.raises(ValueError, match="^weight must be invertible$"):
            Weight(Mat(field, [[1, 1], [1, 1]]))
        with pytest.raises(ValueError, match="^weight must be invertible$"):
            Weight(Mat.zeros(field, 3))


@pytest.mark.parametrize("field", [QQ, QI, GF(3)], ids=str)
def test_a_weight_forms_its_inverse_once_on_first_read(field, monkeypatch):
    inversions = []
    real_inverse = Mat.inverse
    monkeypatch.setattr(Mat, "inverse", lambda m: inversions.append(m) or real_inverse(m))
    for seed in range(3):
        w = random_weight(4, field, seed=seed)
        assert inversions == []  # the constructor checks the rank alone
        assert w.inv * w.value == w.value * w.inv == Mat.identity(field, 4)
        assert w.inv is w.inv and w.inverse().value is w.inv
        assert w.inverse().inverse().value is w.value
        assert w.inverse().inv is w.value
        assert inversions == [w.value]
        inversions.clear()


@pytest.mark.parametrize("field", [QQ, QI, GF(3)], ids=str)
def test_identity_weight_runs_no_reduction(field, monkeypatch):
    reductions = []
    for name in ("solve", "rank"):
        real = getattr(field, name)
        monkeypatch.setattr(field, name, lambda *args, real=real: reductions.append(1) or real(*args))
    w = Weight.identity(field, 3)
    assert w.inv is w.value == Mat.identity(field, 3)
    assert w.inverse().value is w.value and w.inverse().inv is w.value
    assert reductions == []
    Weight(Mat.identity(field, 3))
    assert reductions == [1]  # a weight built from a matrix has its rank checked


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
    # the dimension is refused before any entry is read
    with pytest.raises(ValueError, match="exceeds the maximum"):
        mat_from_json({"backend": "Q", "dim": MAX_DIM + 1, "entries": None})
    square = [["1"] * MAX_DIM for _ in range(MAX_DIM)]
    assert mat_from_json({"backend": "Q", "dim": MAX_DIM, "entries": square}).n == MAX_DIM


# Entries for the decoder: canonical literals, non-reduced ones, literals only
# Fraction or int() reads, malformed and non-ASCII ones, non-string JSON values
# and entries at the digit bound.
BOUND = "9" * MAX_ENTRY_DIGITS
LITERALS = [
    "0", "5", "-12", "3/4", "-7/12", "2/4", "0/7", "-0", "007", "-6/9", "12/1",
    "+3", " 5 ", "1e3", "1.5", "1_000", "5/-3", "1/0", "-0/0", "", "-", "1/", "/2", "a",
    "١٢", "²",
    True, False, 1.5, 0.0, None, 7, -12, 0,
    BOUND, "-" + BOUND, "1/" + BOUND, BOUND + "/" + BOUND[1:], BOUND + "9", "1/9" + BOUND,
    int(BOUND), -int(BOUND),
]
DECODE_FIELDS = {"Q": QQ, "Qi": QI, "F3": GF(3)}


def outcome(build):
    """The matrix built, or the type and message of the exception raised."""
    try:
        m = build()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return m, m.rows


@pytest.mark.parametrize("name", list(DECODE_FIELDS))
def test_decode_matches_element_reference(name):
    field = DECODE_FIELDS[name]
    entries = list(LITERALS)
    if field is QI:
        entries += [[v, "-1/2"] for v in LITERALS] + [["2/3", v] for v in LITERALS]
        entries += [["1"], ["1", "2", "3"], ("1", "2")]
    else:
        entries += [["1", "2"]]
    # each entry alone, then one 2 x 2 matrix per window of four entries, so an
    # entry is also decoded next to others over one common denominator
    cases = [[[v]] for v in entries] + [
        [entries[i:i + 2], entries[i + 2:i + 4]] for i in range(len(entries) - 3)
    ]
    backend = {"Q": "Q", "Qi": "Qi", "F3": "Fp"}[name]
    for rows in cases:
        obj = {"backend": backend, "p": 3, "dim": len(rows), "entries": rows}
        got = outcome(lambda: mat_from_json(obj))
        ref = outcome(lambda: Mat(field, [[field.parse(v) for v in row] for row in rows]))
        assert got == ref, rows
        if isinstance(got[0], Mat):
            assert_canonical(field, got[0].form, len(rows))


def test_rational_literals_read_as_fraction_reads_them():
    # `parse` reads plain literals with int(); every string must still mean what
    # Fraction makes of it, and be refused where Fraction refuses it
    for v in LITERALS:
        if not isinstance(v, str) or len(v) > MAX_ENTRY_DIGITS:
            continue
        try:
            expected = Fraction(v)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="zero denominator"):
                QQ.parse(v)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                QQ.parse(v)
        else:
            q = QQ.parse(v)
            assert (q.numerator, q.denominator) == (expected.numerator, expected.denominator)


def test_a_string_entry_is_read_as_parse_reads_it():
    # `coerce`, and so Mat(...) and GaussianRational(...), reads a string through
    # the field's one literal reader: the digit bound and its errors hold there too
    def read(reader, v):
        try:
            return reader(v)
        except ValueError as exc:
            return ValueError, str(exc)

    for v in LITERALS:
        if isinstance(v, str) and len(v) <= MAX_ENTRY_DIGITS:
            assert read(QQ.coerce, v) == read(QQ.parse, v), v
    for build in (
        lambda: Mat(QQ, [["1e5000"]]),
        lambda: QQ.coerce("1e5000"),
        lambda: QI.coerce(["1", "1e5000"]),
        lambda: GaussianRational("1e5000"),
        lambda: GF(3).coerce("1" * 5000),
    ):
        with pytest.raises(ValueError, match=f"more than {MAX_ENTRY_DIGITS} digits"):
            build()
    with pytest.raises(ValueError, match="zero denominator"):
        Mat(QQ, [["1/0"]])


@pytest.mark.parametrize("name", list(DECODE_FIELDS))
def test_encode_form_matches_element_encode(name):
    field = DECODE_FIELDS[name]
    rng = random.Random(11)
    for _ in range(200):
        n, bits = rng.randint(1, 4), rng.choice((3, 40, 300))
        parts = [
            [[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)]
            for _ in range(2 if field is QI else 1)
        ]
        if rng.random() < 0.2:
            parts[0] = [[0] * n for _ in range(n)]
        if field.tag == "Fp":
            form = tuple(tuple(v % field.p for v in row) for row in parts[0])
        else:
            form = _canonical(rng.randint(1, 2**bits), *parts)
        expected = [[field.encode(v) for v in row] for row in field.to_rows(form)]
        assert field.encode_form(form) == expected
        assert field.decode(expected) == form


def test_public_constructors_still_validate():
    # the kernels build elements through internal fast paths; the public ones still check
    with pytest.raises(TypeError):
        GaussianRational(1.5)
    with pytest.raises(TypeError):
        GaussianRational(1, Fraction(1, 2) + 0.5)
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 7)
    with pytest.raises(TypeError):
        PrimeFieldElement(1.0, 5)
    with pytest.raises(TypeError):
        Mat(QQ, [[0.5]])
    with pytest.raises(TypeError):
        Mat(QI, [[1, 0.5], [0, 1]])


# Differential check of the field kernels behind Mat.__mul__ and the solves
# against a product and a Gauss-Jordan reduction written with element operators.


def ref_mul(x, y):
    n = len(x)
    return [
        [sum((x[i][k] * y[k][j] for k in range(1, n)), x[i][0] * y[0][j]) for j in range(n)]
        for i in range(n)
    ]


def ref_rref(rows, lead, field):
    """RREF by element operators with the same pivot rule; returns (rows, pivots)."""
    aug = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(lead):
        i = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if i is None:
            continue
        aug[r], aug[i] = aug[i], aug[r]
        inv = field.one() / aug[r][c]
        aug[r] = [inv * v for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == len(aug):
            break
    return aug, pivots


def ref_solve_right(a, b, field):
    """(consistent, solution rows) of a x = b, free variables zeroed."""
    n = len(a)
    aug, pivots = ref_rref([list(ra) + list(rb) for ra, rb in zip(a, b)], n, field)
    if any(any(row[n:]) for row in aug[len(pivots):]):
        return False, None
    x = [[field.zero()] * n for _ in range(n)]
    for r, c in pivots:
        x[c] = aug[r][n:]
    return True, x


def ref_left_annihilator_basis(m, field):
    n = len(m)
    aug, pivots = ref_rref([list(col) for col in zip(*m)], n, field)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(n):
        if fc not in pivot_cols:
            vec = [field.zero()] * n
            vec[fc] = field.one()
            for r, c in pivots:
                vec[c] = -aug[r][fc]
            basis.append(tuple(vec))
    return tuple(basis)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


BIG = st.builds(lambda s, v: s * v, st.sampled_from([1, -1]), st.integers(10**199, 10**200))
BIG_RATIONALS = st.builds(
    Fraction, st.integers(-3, 3) | BIG, st.integers(1, 3) | st.integers(10**199, 10**200)
)
# Per backend: the field, its small entries, and its entries up to 200 digits long.
ENTRIES = {
    "Q": (QQ, rationals, rationals | BIG_RATIONALS),
    "Qi": (
        QI,
        gaussians,
        st.builds(GaussianRational, rationals | BIG_RATIONALS, rationals | BIG_RATIONALS),
    ),
    **{
        f"F{p}": (GF(p), st.integers(0, p - 1).map(GF(p).coerce), st.integers().map(GF(p).coerce))
        for p in (2, 3, 5)
    },
}
# The element reference's Gauss-Jordan on 200-digit entries costs seconds per case
# from dim 4 on, so big entries are drawn up to dim 3 only.
BIG_UP_TO_DIM = 3


@st.composite
def kernel_cases(draw, field, small, large):
    """Three dim x dim row lists (a, b, c) over the field, dim 1..6; a is often
    rank-deficient. Entries are drawn from `large` up to BIG_UP_TO_DIM, from `small`
    above it."""
    dim = draw(st.integers(1, 6))
    elems = large if dim <= BIG_UP_TO_DIM else small
    square = st.lists(st.lists(elems, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    a, b, c = draw(square), draw(square), draw(square)
    if draw(st.booleans()):
        # u diag(mask) v has rank at most the number of ones in the mask
        mask = draw(st.lists(st.sampled_from([0, 0, 1]), min_size=dim, max_size=dim))
        diag = [[field.coerce(mask[i] if i == j else 0) for j in range(dim)] for i in range(dim)]
        a = ref_mul(ref_mul(a, diag), b)
    return a, b, c


# A fixed seed, not derandomize: derandomized examples derive from the source text
# of the property, so an edit of its body could change its examples.
KERNEL_SEED = 0


@pytest.mark.parametrize("name", list(ENTRIES))
def test_kernels_match_element_reference(name):
    field, small, large = ENTRIES[name]

    @settings(max_examples=40, database=None, deadline=None)
    @seed(KERNEL_SEED)
    @given(kernel_cases(field, small, large))
    def check(case):
        a, b, c = case
        ma, mb, mc = (Mat(field, r) for r in (a, b, c))
        assert ma * mb == Mat(field, ref_mul(a, b))
        assert mb * ma == Mat(field, ref_mul(b, a))
        assert ma.star() == Mat(field, [[field.conj(v) for v in col] for col in zip(*a)])
        ab = ref_mul(a, b)
        solutions = []
        for rhs in (c, ab):
            ok, x = ref_solve_right(a, rhs, field)
            w = solve_right(ma, Mat(field, rhs))
            assert w.consistent == ok
            assert w.solution == (Mat(field, x) if ok else None)
            solutions.append(w.solution)
            ok, x = ref_solve_right(transpose(a), transpose(rhs), field)
            w = solve_left(ma, Mat(field, rhs))
            assert w.consistent == ok
            assert w.solution == (Mat(field, transpose(x)) if ok else None)
            solutions.append(w.solution)
        assert solve_right(ma, Mat(field, ab)).consistent
        ok, x = ref_solve_right(a, Mat.identity(field, len(a)).rows, field)
        inverse = ma.inverse()
        assert inverse == (Mat(field, x) if ok else None)
        # a solution's form must be canonical for == and hash: the form its rows give
        for sol in solutions + [inverse]:
            if sol is not None:
                assert Mat(field, sol.rows).form == sol.form
                assert_canonical(field, sol.form, len(a))
        assert left_annihilator_basis(ma) == ref_left_annihilator_basis(a, field)

    # Forms kept on a matrix and reused give the reference products
    @settings(max_examples=40, database=None, deadline=None)
    @seed(KERNEL_SEED)
    @given(kernel_cases(field, small, large))
    def reuse(case):
        a, b, c = case
        ma, mb, mc = (Mat(field, r) for r in (a, b, c))
        aa, ab, ba = ref_mul(a, a), ref_mul(a, b), ref_mul(b, a)
        star_a = [[field.conj(v) for v in col] for col in zip(*a)]
        assert ma * ma == Mat(field, aa)
        mab = ma * mb
        assert mab == Mat(field, ab) and mb * ma == Mat(field, ba)
        assert mab * mc == Mat(field, ref_mul(ab, c))
        assert mc * mab == Mat(field, ref_mul(c, ab))
        # an instance starts from the form its matrix holds; its mirror forms its own
        inst = _Instance(ma)
        assert inst * mb == Mat(field, ab) and mb * inst == Mat(field, ba)
        assert inst.power(2) == Mat(field, aa)
        mirror = inst.star()
        assert mirror * mb == Mat(field, ref_mul(star_a, b))
        assert mb * mirror == Mat(field, ref_mul(b, star_a))
        assert mirror * inst == Mat(field, ref_mul(star_a, a))
        assert inst * mirror == Mat(field, ref_mul(a, star_a))

    check()
    reuse()


def assert_canonical(field, form, n):
    """The canonical rule of each backend's integer form."""
    if field.tag == "Fp":
        parts = (form,)
        assert all(0 <= v < field.p for row in form for v in row)
    else:
        *parts, d = form
        assert type(d) is int and d > 0
        assert gcd(d, *(v for m in parts for row in m for v in row)) == 1
    assert len(parts) == {"Q": 1, "Qi": 2, "Fp": 1}[field.tag]
    for m in parts:
        assert type(m) is tuple and len(m) == n
        assert all(type(row) is tuple and len(row) == n for row in m)
        assert all(type(v) is int for row in m for v in row)


@st.composite
def form_cases(draw, field, elems):
    """Two dim x dim row lists over the field, dim 1..4, each zero a tenth of the time."""
    dim = draw(st.integers(1, 4))
    zero = [[field.zero()] * dim for _ in range(dim)]
    square = st.lists(st.lists(elems, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    return tuple(zero if draw(st.integers(0, 9)) == 0 else draw(square) for _ in range(2))


def held_as(field, rows, how):
    """A matrix with the given rows, built from its elements or from its form."""
    m = Mat(field, rows)
    return Mat._of(field, m.n, m.form) if how == "form" else m


@pytest.mark.parametrize("name", list(ENTRIES))
def test_forms_are_canonical_and_match_element_reference(name):
    field, _, elems = ENTRIES[name]

    @settings(max_examples=60, database=None, deadline=None)
    @seed(0)
    @given(form_cases(field, elems))
    def check(case):
        x, y = case
        n = len(x)
        mx, my = Mat(field, x), Mat(field, y)
        for rows, m in ((x, mx), (y, my)):
            assert_canonical(field, m.form, n)
            assert Mat._of(field, n, m.form).rows == m.rows == tuple(map(tuple, rows))
        star_x = [[field.conj(v) for v in col] for col in zip(*x)]
        expected = {
            "x*y": (mx * my, ref_mul(x, y)),
            "x+y": (mx + my, [[a + b for a, b in zip(r, s)] for r, s in zip(x, y)]),
            "x-y": (mx - my, [[a - b for a, b in zip(r, s)] for r, s in zip(x, y)]),
            "-x": (-mx, [[-a for a in r] for r in x]),
            "x*": (mx.star(), star_x),
        }
        for label, (got, ref) in expected.items():
            assert got.rows == tuple(map(tuple, ref)), label
            assert_canonical(field, got.form, n)
            assert got.form == field.to_form(ref), label
        for other in (x, y):
            same = mx.rows == Mat(field, other).rows
            for how_x in ("rows", "form"):
                for how_o in ("rows", "form"):
                    a, b = held_as(field, x, how_x), held_as(field, other, how_o)
                    assert (a == b) == same and (b == a) == same
                    if same:
                        assert hash(a) == hash(b)

    check()


def ref_answer(rows, lead, field):
    """(pivot columns, the form of the pinned solution) of rows of elements with
    `lead` coefficient columns, by the element reference, the form None when the
    system is inconsistent: the form `field.solve` must return."""
    expected, pivots = ref_rref(rows, lead, field)
    cols = [c for _, c in pivots]
    if any(any(r) for r in expected[len(pivots):]):
        return cols, None
    x = [[field.zero()] * (len(rows[0]) - lead) for _ in range(lead)]
    for r, c in pivots:
        x[c] = expected[r][lead:]
    return cols, field.to_form(x)


def solved(rows, lead, field):
    """field.solve on the integer rows of `rows`, which it must leave unchanged; a
    form it returns is made of ints."""
    int_rows = field.augment(field.to_form(rows))
    before = [list(r) for r in int_rows]
    result = field.solve(int_rows, lead)
    assert int_rows == before
    if result is not None:
        *parts, d = (result, 1) if field.tag == "Fp" else result
        assert type(d) is int and d > 0
        assert all(type(v) is int for part in parts for row in part for v in row)
    return result


def test_qi_rref_zero_rows_keep_the_pivot_scale():
    # Column 1 is zero and skipped. Row 1 is zero at the first pivot column, so it is
    # only scaled there, then gives the second pivot: a reduction that leaves such a
    # row unscaled divides 2 - i by the first pivot, 2, at the next step.
    i = GaussianRational(0, 1)
    cases = [
        ([[2, 0, 1, 1], [0, 0, 3, 1 + i], [1, 0, 1, 2]], 4),
        ([[2, 0, 1, 1, i], [0, 0, 3, 1 + i, 0], [1, 0, 1, 2, 1], [3, 0, 5, 4 + i, 2]], 4),
        ([[2, 0, 1, 1, i], [0, 0, 3, 1 + i, 0], [2, 0, 4, 2 + i, i]], 4),
        # the leftover rows are i and 1 beyond the lead: real parts alone miss the first
        ([[1, 1, 0], [1, 1, i]], 2),
        ([[1, 1, 0], [1, 1, 1]], 2),
        # the first pivot is i: a nonzero test that reads real parts skips its column
        ([[i, 1, 1], [0, 1, 2]], 2),
    ]
    verdicts = []
    for rows, lead in cases:
        rows = [[QI.coerce(v) for v in r] for r in rows]
        if len(rows[0]) == lead:  # no right-hand side: solve for the coefficients
            rows = [r + r[:lead] for r in rows]
        _, form = ref_answer(rows, lead, QI)
        verdicts.append(form is None)
        assert solved(rows, lead, QI) == form
    assert verdicts == [False, True, False, True, True, False]


@st.composite
def systems(draw, field):
    """(rows, lead) over the field: 1..5 rows of `lead` 1..5 coefficient columns
    and 0..3 right-hand columns. The rows are often rank-deficient (combinations
    of fewer rows), sometimes zero, and a coefficient column is sometimes zero.
    Over Q(i) the rows are sometimes real."""
    nrows, lead, extra = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    width = lead + extra
    parts = st.integers(-3, 3) | st.just(0)
    if field is QI:
        elems = st.builds(GaussianRational, parts, parts | st.just(0))
        if draw(st.booleans()):
            elems = parts.map(GaussianRational)
    elif field is QQ:
        elems = st.builds(Fraction, parts, st.integers(1, 3))
    else:
        elems = parts.map(field.coerce)
    line = st.lists(elems, min_size=width, max_size=width)
    rows = draw(st.lists(line, min_size=nrows, max_size=nrows))
    shape = draw(st.sampled_from(["full", "deficient", "deficient", "zero-column", "zero"]))
    if shape == "deficient":
        basis = rows[: draw(st.integers(0, nrows - 1))]
        coefs = st.lists(elems, min_size=len(basis), max_size=len(basis))
        rows = [
            [sum((c * b[j] for c, b in zip(cs, basis)), field.zero()) for j in range(width)]
            for cs in (draw(coefs) for _ in range(nrows))
        ]
        if draw(st.booleans()):  # a right-hand side outside the column space
            k = draw(st.integers(0, nrows - 1))
            rows[k] = rows[k][:lead] + [v + 1 for v in rows[k][lead:]]
    elif shape == "zero-column":
        col = draw(st.integers(0, lead - 1))
        rows = [r[:col] + [field.zero()] + r[col + 1:] for r in rows]
    elif shape == "zero":
        rows = [[field.zero()] * width for _ in rows]
    return [[field.coerce(v) for v in r] for r in rows], lead


@pytest.mark.parametrize("field", [QQ, QI, GF(2), GF(3), GF(5)], ids=str)
def test_solve_matches_element_reference(field):
    """field.solve against the Gauss-Jordan reduction with element operators: the
    form of the same pinned solution, or None for an inconsistent system, and
    `rows` untouched; field.rank is the reference's pivot count. A system without
    a right-hand side is solved for its own coefficient columns, as
    `left_annihilator_basis` does. Every kind of system below is met, the pivot
    kinds over Q(i) only."""
    seen = set()

    @settings(max_examples=150, database=None, deadline=None)
    @seed(KERNEL_SEED)
    @given(systems(field))
    def check(case):
        rows, lead = case
        if len(rows[0]) == lead:
            rows = [r + r[:lead] for r in rows]
            seen.add("no right-hand side")
        cols, form = ref_answer(rows, lead, field)
        assert solved(rows, lead, field) == form
        assert field.rank(field.augment(field.to_form(rows)), lead) == len(cols)
        if form is None:
            seen.add("inconsistent")
            return
        rank = len(cols)
        seen.add("rank 0" if rank == 0 else "deficient" if rank < min(len(rows), lead) else "full")
        if cols and cols != list(range(len(cols))):
            seen.add("skipped column")
        if field is QI and rank:
            # the last pivot D, which divides the whole answer
            *_, di = QI._forward(QI.augment(QI.to_form(rows)), lead)
            seen.add("non-real pivot" if di else "real pivot")

    check()
    pivot_kinds = {"real pivot", "non-real pivot"} if field is QI else set()
    assert seen == {
        "inconsistent", "rank 0", "deficient", "full", "skipped column",
        "no right-hand side", *pivot_kinds,
    }


def test_qi_solve_back_substitutes_only_the_answer_columns(monkeypatch):
    """On a rank-deficient system whose coefficient column 1 is zero and skipped,
    every division of the back phase (each `_exact_quotient` call outside the
    forward phase) divides exactly the right-hand columns: the free coefficient
    column is never solved for."""
    i = GaussianRational(0, 1)
    rows = [
        [2 + i, 0, 1, 3, 1, 2 * i, 0],
        [1, 0, 2 - i, 1 + i, i, 1, 1],
        [i, 0, 5, 2, 3, 0, 2 - i],
    ]
    rows.append([u + v for u, v in zip(rows[0], rows[1])])
    rows = [[QI.coerce(v) for v in r] for r in rows]
    cols, form = ref_answer(rows, 4, QI)
    assert cols == [0, 2, 3]  # rank 3 of 4, column 1 skipped
    real_forward, real_quotient = QI._forward, coreinv.scalar._exact_quotient
    in_forward, back = [], []

    def forward(*args):
        in_forward.append(True)
        try:
            return real_forward(*args)
        finally:
            in_forward.pop()

    def quotient(re, im, dr, di):
        if not in_forward:
            back.append(len(re))
        return real_quotient(re, im, dr, di)

    monkeypatch.setattr(coreinv.scalar, "_exact_quotient", quotient)
    monkeypatch.setattr(type(QI), "_forward", staticmethod(forward))
    assert solved(rows, 4, QI) == form
    assert back == [3, 3]  # the two pivot rows above the last, 3 answer columns each


def test_qi_rref_rows_stay_within_a_hadamard_bound(monkeypatch):
    """The systems that e_core solves for a dim-12 Q(i) instance, a^2 x = a for the
    group inverse and x (a* e a) = a for the {1,3e}-inverse: every integer row the
    reduction divides stays within Hadamard's bound on the minors of the cleared
    input. Those are the forward rows from the second pivot on (the first pivot's
    are 2 x 2 minors and need no division) and the back-substitution values.
    Dividing out only the rational content of each row let the rows of the first
    system reach 261,095 bits."""
    a = random_group_invertible(12, QI, seed=1000)
    e = random_weight(12, QI, seed=2000)
    gram = (a.star() * e.value * a).transpose()

    def recording(hook, out):
        def run(*args):
            row = hook(*args)
            out.append(row)
            return row

        return run

    def bits(rows):
        return max(abs(v).bit_length() for row in rows for v in row)

    for lhs, rhs in ((a * a, a), (gram, a.transpose())):
        inputs, formed = QI.augment(lhs.form, rhs.form), []
        monkeypatch.setattr(
            coreinv.scalar, "_exact_quotient", recording(coreinv.scalar._exact_quotient, formed)
        )
        assert QI.solve(inputs, 12) is not None
        monkeypatch.undo()
        rank = lhs.rank()
        # 10 + 9 + ... + 0 forward rows below the second to last pivots, and 11
        # back-substitution rows above the last
        assert rank == 12 and len(formed) == 55 + 11
        # every row is a minor of order k <= rank of the cleared rows (b-bit parts),
        # so by Hadamard it has at most k * (b + 1/2 + log2(k) / 2) + 1 bits
        assert bits(formed) <= rank * (bits(inputs) + log2(2 * a.n))
    for kind, cert in (
        (GInverseKind.E_CORE, e_core(a, e)),
        (GInverseKind.F_DUAL_CORE, f_dual_core(a, e)),
        (GInverseKind.WEIGHTED_MP, weighted_mp(a, e, e)),
    ):
        assert verify(kind, a, cert.value, e=e, f=e).ok


def ref_solve(a: Mat, b: Mat, left: bool) -> SolveWitness:
    """solve_right (a x = b) or solve_left (x a = b) through the element reference."""
    field = a.field
    if not left:
        ok, x = ref_solve_right(a.rows, b.rows, field)
        return SolveWitness(Mat(field, x) if ok else None)
    ok, x = ref_solve_right(transpose(a.rows), transpose(b.rows), field)
    return SolveWitness(Mat(field, transpose(x)) if ok else None)


def test_qi_constructions_match_element_reference_solves(monkeypatch):
    """e_core, f_dual_core and weighted_mp on a dim-12 Q(i) instance give the same
    certificates when every solve runs the element reference instead."""
    a = random_group_invertible(12, QI, seed=1000)
    e = random_weight(12, QI, seed=2000)
    f = random_weight(12, QI, seed=2001)

    def cold(call):  # a held instance would not solve again
        cold_start()
        return certificate_to_json(call())

    calls = (
        lambda: e_core(a, e),
        lambda: f_dual_core(a, f),
        lambda: weighted_mp(a, e, f),
    )
    got = [cold(call) for call in calls]
    sides = []

    def solver(left):
        def solve(a, b):
            sides.append(left)
            return ref_solve(a, b, left)

        return solve

    monkeypatch.setattr(coreinv.ginverse, "solve_right", solver(False))
    monkeypatch.setattr(coreinv.ginverse, "solve_left", solver(True))
    assert [cold(call) for call in calls] == got
    assert set(sides) == {False, True}
