"""Scalar backends: exact arithmetic, conjugation laws, canonical forms."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coreinv import (
    GF,
    QI,
    QQ,
    BackendMismatchError,
    GaussianRational,
    Mat,
    PrimeFieldElement,
)
from coreinv.scalar import (
    GaussianRationalField,
    PrimeField,
    RationalField,
    _exact_quotient,
    _fraction,
)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
gaussians = st.builds(GaussianRational, rationals, rationals)


def fp_elements(p):
    return st.builds(PrimeFieldElement, st.integers(0, p - 1), st.just(p))


def test_rational_addition():
    assert QQ.parse("1/2") + QQ.parse("1/3") == QQ.parse("5/6")


def test_prime_field_multiplication():
    F5 = GF(5)
    assert F5.coerce(2) * F5.coerce(3) == F5.coerce(1)


def test_gaussian_conjugate_product():
    z = GaussianRational(1, 1)
    assert z * QI.conj(z) == GaussianRational(2, 0)


def test_scalar_inv_examples():
    assert 1 / Fraction(2, 3) == Fraction(3, 2)
    assert 1 / GF(5).coerce(2) == GF(5).coerce(3)
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_scalar_conj_examples():
    assert QQ.conj(Fraction(3, 4)) == Fraction(3, 4)
    assert QI.conj(GaussianRational(1, 2)) == GaussianRational(1, -2)
    assert GF(5).conj(GF(5).coerce(4)) == GF(5).coerce(4)


def test_fields_are_equal_by_type_and_modulus():
    fields = [QQ, QI, GF(2), GF(3), GF(5)]
    fresh = [RationalField(), GaussianRationalField(), PrimeField(2), PrimeField(3), PrimeField(5)]
    for i, f in enumerate(fields):
        assert f == fresh[i] and hash(f) == hash(fresh[i])
        assert [f == g for g in fields] == [j == i for j in range(len(fields))]
    for f in fields:
        assert not f.zero() and f.zero() == f.coerce("0")
        assert f.one() * f.one() == f.one() == f.coerce("1")


def test_a_prime_field_element_equals_the_int_of_its_residue():
    one, two = GF(3).one(), GF(3).coerce(2)
    assert one == 1 and 1 == one and one != 4 and two != -1 and one != GF(5).one()
    assert {one, 1} == {1} and hash(two) == hash(2)
    assert {one: "residue"}[1] == "residue"
    assert (one == True) is False and (GF(2).zero() == False) is False  # a bool is no scalar


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        1 / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        1 / GaussianRational(0, 0)
    with pytest.raises(ZeroDivisionError):
        1 / GF(3).coerce(0)


def test_mixed_backend_rejected():
    with pytest.raises(BackendMismatchError):
        GF(2).coerce(1) + GF(3).coerce(1)
    with pytest.raises(BackendMismatchError):
        GF(2).coerce(1) * GF(3).coerce(1)
    with pytest.raises(BackendMismatchError):
        GF(3).coerce(GF(2).coerce(1))
    with pytest.raises(BackendMismatchError):
        QQ.coerce(GaussianRational(1))
    with pytest.raises(BackendMismatchError):
        Mat(QQ, [[1]]) + Mat(GF(2), [[1]])
    with pytest.raises(BackendMismatchError):
        Mat(QI, [[1]]) * Mat(GF(3), [[1]])


def test_floats_rejected():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    with pytest.raises(TypeError):
        GaussianRational(0.5, 0)
    with pytest.raises(TypeError):
        GF(5).coerce(1.0)


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _both_sides(ops, k, x):
    """k op x and x op k for each named operator; a ZeroDivisionError is a result."""
    out = {}
    for name, op in ops.items():
        for key, (left, right) in ((f"k{name}x", (k, x)), (f"x{name}k", (x, k))):
            try:
                out[key] = op(left, right)
            except ZeroDivisionError:
                out[key] = ZeroDivisionError
    return out


def _plain(r):
    """A result as (type, parts): ZeroDivisionError stays as it is."""
    if isinstance(r, GaussianRational):
        return GaussianRational, r.re, r.im
    if isinstance(r, PrimeFieldElement):
        return PrimeFieldElement, r.value, r.p
    return r


def _gauss_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    if not norm:
        raise ZeroDivisionError
    return GaussianRational, (a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm


# on Gaussian rationals written as (re, im) pairs of Fractions
GAUSS_REF = {
    "+": lambda a, b: (GaussianRational, a[0] + b[0], a[1] + b[1]),
    "-": lambda a, b: (GaussianRational, a[0] - b[0], a[1] - b[1]),
    "*": lambda a, b: (GaussianRational, a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
    "/": _gauss_div,
}


def _fp_ref(p):
    """The four operators on plain ints modulo p."""

    def div(a, b):
        if b % p == 0:
            raise ZeroDivisionError
        return PrimeFieldElement, a * pow(b, p - 2, p) % p, p

    return {
        "+": lambda a, b: (PrimeFieldElement, (a + b) % p, p),
        "-": lambda a, b: (PrimeFieldElement, (a - b) % p, p),
        "*": lambda a, b: (PrimeFieldElement, a * b % p, p),
        "/": div,
    }


@settings(max_examples=200, derandomize=True)
@given(st.integers(-20, 20), rationals, rationals, st.sampled_from([2, 3, 5]), st.integers(0, 4))
@example(0, Fraction(0), Fraction(0), 2, 0)
def test_int_operand_on_either_side_matches_reference(k, re, im, p, v):
    # every operator and its reflected form, against Fraction and int-mod-p arithmetic
    z, x = GaussianRational(re, im), PrimeFieldElement(v, p)
    got = _both_sides(OPS, k, z)
    assert {key: _plain(r) for key, r in got.items()} == _both_sides(
        GAUSS_REF, (Fraction(k), Fraction(0)), (re, im)
    )
    got = _both_sides(OPS, k, x)
    assert {key: _plain(r) for key, r in got.items()} == _both_sides(_fp_ref(p), k, v % p)
    # another modulus is a backend mismatch; a str or a float is no operand at all
    other = PrimeFieldElement(k, 5 if p == 2 else 2)
    for op in OPS.values():
        for left, right in ((x, other), (other, x)):
            with pytest.raises(BackendMismatchError):
                op(left, right)
        for elem in (z, x):
            for bad in (str(k), k + 0.5):
                for left, right in ((elem, bad), (bad, elem)):
                    with pytest.raises(TypeError):
                        op(left, right)


@pytest.mark.parametrize("field", [QQ, QI, GF(2), GF(3), GF(5)], ids=repr)
def test_bool_is_not_a_scalar(field):
    # Q and Q(i) used to read True as 1 while F_p and every JSON decoder refused it
    for b in (True, False):
        with pytest.raises(TypeError):
            field.coerce(b)
        with pytest.raises(TypeError):
            Mat(field, [[b]])
        if field is QQ:
            continue  # Fraction's own operators take a bool as they take an int
        for op in OPS.values():
            for left, right in ((field.one(), b), (b, field.one())):
                with pytest.raises(TypeError):
                    op(left, right)
    if field is QI:
        for args in ((True,), (0, False)):
            with pytest.raises(TypeError):
                GaussianRational(*args)
        with pytest.raises(TypeError):
            QI.coerce([True, 0])
    elif field is not QQ:
        with pytest.raises(TypeError):
            PrimeFieldElement(True, field.p)


def test_unsupported_modulus():
    with pytest.raises(ValueError):
        GF(7)


@given(gaussians)
def test_conjugation_is_involutive(z):
    assert QI.conj(QI.conj(z)) == z


@given(gaussians, gaussians)
def test_conjugation_additive_multiplicative(z, w):
    assert QI.conj(z + w) == QI.conj(z) + QI.conj(w)
    assert QI.conj(z * w) == QI.conj(z) * QI.conj(w)


@given(gaussians)
def test_inverse_is_involutive_gaussian(z):
    if z:
        assert 1 / (1 / z) == z


@given(fp_elements(5))
def test_inverse_is_involutive_f5(x):
    if x:
        assert 1 / (1 / x) == x
        assert x * (1 / x) == GF(5).one()


@given(rationals)
def test_neg_roundtrip(x):
    assert -(-x) == x
    assert x + (-x) == QQ.zero()


def test_canonical_forms_are_structural():
    # same value, different inputs: representations must be identical
    assert Fraction(2, 4).numerator == 1 and Fraction(2, 4).denominator == 2
    assert Fraction(1, -2).denominator == 2
    a = GaussianRational(Fraction(2, 4), Fraction(-3, -9))
    b = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert a == b and hash(a) == hash(b)
    assert PrimeFieldElement(7, 5) == PrimeFieldElement(2, 5)


def test_gaussian_promotes_ints_and_fractions():
    z = GaussianRational(1, 2)
    assert 1 + z == GaussianRational(2, 2)
    assert Fraction(1, 2) * z == GaussianRational(Fraction(1, 2), 1)
    assert hash(GaussianRational(3, 0)) == hash(Fraction(3))


def test_parse_encode_round_trips():
    for field, samples in (
        (QQ, ["-3/4", "5", "0"]),
        (GF(5), ["0", "4"]),
    ):
        for s in samples:
            assert field.encode(field.parse(s)) == s
    z = QI.parse(["-1/2", "3"])
    assert z == GaussianRational(Fraction(-1, 2), 3)
    assert QI.encode(z) == ["-1/2", "3"]


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        QQ.parse([1, 2])
    with pytest.raises(ValueError):
        QI.parse(["1", "2", "3"])
    with pytest.raises(ValueError):
        GF(3).parse(["1"])


def test_str_forms():
    assert str(GaussianRational(1, 2)) == "1+2i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(PrimeFieldElement(4, 5)) == "4"


BIG = 10**299  # 300 digits
SHARED = st.integers(1, 10**6)


@settings(max_examples=300, derandomize=True)
@given(
    st.integers(-(10**6), 10**6) | st.integers(-10 * BIG, 10 * BIG) | st.just(0),
    st.integers(1, 10**6) | st.integers(1, 10 * BIG),
    SHARED,
)
@example(0, 1, 1)
@example(0, 7, 1)
@example(-5, 1, 1)
@example(-12, 18, 1)
@example(-(3 * BIG + 3), 6, 1)
@example(BIG, BIG, 1)
def test_internal_fraction_is_the_canonical_fraction(n, d, g):
    # n * g / d * g shares the factor g, which the one gcd has to remove
    for num, den in ((n, d), (n * g, d * g)):
        q, ref = _fraction(num, den), Fraction(num, den)
        assert type(q) is Fraction
        assert (q.numerator, q.denominator) == (ref.numerator, ref.denominator)
        assert q == ref and hash(q) == hash(ref) and str(q) == str(ref)


@pytest.mark.parametrize("dr, di", [(2, 0), (-2, 0), (2, 2), (-2, -2)])
def test_exact_quotient_refuses_a_remainder_in_any_entry(dr, di):
    quotients = [GaussianRational(k, 1 - k) for k in (3, -2, 0)]
    multiples = [GaussianRational(dr, di) * q for q in quotients]
    re, im = [int(z.re) for z in multiples], [int(z.im) for z in multiples]
    assert _exact_quotient(re, im, dr, di) == [int(q.re) for q in quotients] + [
        int(q.im) for q in quotients
    ]
    # The bad entry comes last and only its imaginary part leaves a remainder:
    # (2 + 3i) / 2 over the reals, (1 + 3i) / (2 + 2i) = 1 + i/2 over Q(i).
    bad = (1, 3) if di else (2, 3)
    for sign in (1, -1):
        with pytest.raises(RuntimeError, match="does not divide"):
            _exact_quotient(re + [sign * bad[0]], im + [sign * bad[1]], dr, di)
