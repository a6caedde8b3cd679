"""Exact scalar backends with involution: rationals, Gaussian rationals, prime fields.

Each backend is a field equipped with a conjugation map: the identity on the
rationals and on prime fields, complex conjugation on Gaussian rationals.
Elements canonicalize on construction, so equal values have identical
representations and every equality test downstream is structural.
Floats are rejected everywhere; there is no approximate mode.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm
from operator import add, mul

SUPPORTED_PRIMES = (2, 3, 5)
# The largest space M_n(F_p) the oracle enumerates whole (oracle.EnumerationSpace).
EXHAUSTIVE_BOUND = 10**6
# The facts an instance holds (ginverse._instance), and the entries of each F_p kernel memo.
HELD_FACTS = 256

# Digits allowed in a decoded entry's numerator and denominator: CPython's
# default int/str conversion limit.
MAX_ENTRY_DIGITS = 4300


class BackendMismatchError(TypeError):
    """Operands belong to different scalar backends."""


def _check_entry_size(text: str):
    """Reject an entry literal whose numerator or denominator, before reduction,
    could exceed MAX_ENTRY_DIGITS digits; it is checked before any number is built."""
    if len(text) <= MAX_ENTRY_DIGITS and "e" not in text and "E" not in text:
        return  # without an exponent no part has more digits than the text has characters
    mantissa, _, exp = text.lower().partition("e")
    exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    parts = mantissa.split("/")
    digits = max(len(p.strip().lstrip("+-").replace("_", "").replace(".", "")) for p in parts)
    if len(exp) > len(str(MAX_ENTRY_DIGITS)) or digits + int(exp or 0) > MAX_ENTRY_DIGITS:
        raise ValueError(f"entry has more than {MAX_ENTRY_DIGITS} digits")


# A rational entry as `encode` writes it: ASCII digits, a leading minus sign and an
# optional denominator. Such a literal is read with int(); every other string
# goes through Fraction, which accepts more ("+3", " 5 ", "1e3", "1.5", ...).
_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?").fullmatch


def _rational(obj) -> tuple[int, int]:
    """A JSON-level rational entry as (numerator, denominator), the denominator
    positive but not necessarily coprime to the numerator."""
    if isinstance(obj, str):
        _check_entry_size(obj)
        if _PLAIN_RATIONAL(obj):
            num, _, den = obj.partition("/")
            d = int(den) if den else 1
            if not d:
                raise ValueError(f"zero denominator in rational entry {obj!r}")
            return int(num), d
        try:
            q = Fraction(obj)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational entry {obj!r}") from None
        return q._numerator, q._denominator
    if _is_int(obj):
        return obj, 1
    raise ValueError(f"invalid rational encoding: {obj!r}")


def _rational_text(n: int, d: int) -> str:
    """The canonical entry of n/d for d > 0, as str of the reduced Fraction."""
    g = gcd(n, d)
    return str(n // d) if g == d else f"{n // g}/{d // g}"


def _reject_float(value):
    if isinstance(value, float):
        raise TypeError(
            "floats are not exact scalars; use int, Fraction or 'n/d' strings"
        )
    return value


def _gaussian(re: Fraction, im: Fraction) -> "GaussianRational":
    """Internal constructor from two canonical Fractions; skips the public checks."""
    z = object.__new__(GaussianRational)
    z.re = re
    z.im = im
    return z


def _is_int(value) -> bool:
    """An int that is not a bool: a bool is not a scalar in any backend."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Element:
    """The arithmetic operators of an element type, each defined once from the
    type's hooks: `_coerce(other)` gives the other operand as an element, None
    for an operand it does not take, and `_add`, `_mul`, `__neg__` and `inverse`
    act on elements of the same backend."""

    __slots__ = ()

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._add(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._mul(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._mul(o.inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._mul(self.inverse())


class GaussianRational(_Element):
    """A Gaussian rational re + im*i; conjugation negates the imaginary part."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = QQ.coerce(re)
        self.im = QQ.coerce(im)

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gaussian(self.re / norm, -self.im / norm)

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, Fraction) or _is_int(other):
            return GaussianRational(other)
        return None

    def _add(self, o):
        return _gaussian(self.re + o.re, self.im + o.im)

    def _mul(self, o):
        return _gaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # agree with Fraction/int hashing on the real axis
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if self.im == 1:
            im = "i"
        elif self.im == -1:
            im = "-i"
        else:
            im = f"{self.im}i"
        if not self.re:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"


class PrimeFieldElement(_Element):
    """A residue modulo a small prime; conjugation is the identity map."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported prime modulus {p}; supported: {SUPPORTED_PRIMES}")
        if not _is_int(value):
            raise TypeError(f"prime-field value must be an int, got {type(value).__name__}")
        self.value = value % p
        self.p = p

    def inverse(self) -> "PrimeFieldElement":
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F{self.p}")
        return PrimeFieldElement(pow(self.value, self.p - 2, self.p), self.p)

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise BackendMismatchError(f"mixed moduli: F{self.p} vs F{other.p}")
            return other
        if _is_int(other):
            return PrimeFieldElement(other, self.p)
        return None

    def _add(self, o):
        return PrimeFieldElement(self.value + o.value, self.p)

    def _mul(self, o):
        return PrimeFieldElement(self.value * o.value, self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __eq__(self, other):
        # an int equals the element exactly when it is its residue, so that the
        # element hashes as that int, as Fraction and GaussianRational do
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if _is_int(other):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"PrimeFieldElement({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


_ZERO = Fraction(0)
_GAUSSIAN_ZERO = _gaussian(_ZERO, _ZERO)


def _fraction(n: int, d: int) -> Fraction:
    """The canonical Fraction n/d for d > 0: reduced by one gcd, with its two slots
    set directly instead of through Fraction.__new__."""
    g = gcd(n, d)
    q = object.__new__(Fraction)
    if g == 1:
        q._numerator, q._denominator = n, d
    else:
        q._numerator, q._denominator = n // g, d // g
    return q


def _canonical(d: int, *mats) -> tuple:
    """The form (*mats, d) of integer matrices over one denominator d > 0, each a
    tuple of row tuples, divided by the gcd of d and all their entries."""
    g = d
    for m in mats:
        for row in m:
            if g == 1:
                break
            g = gcd(g, *row)
    if g == 1:
        return (*(tuple(map(tuple, m)) for m in mats), d)
    return (*(tuple(tuple([v // g for v in row]) for row in m) for m in mats), d // g)


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _divided(xs: list[int], d: int) -> list[int]:
    """Each x // d, where d must divide every x: a remainder is a broken
    invariant of the row reduction, not bad input."""
    qs = [x // d for x in xs]
    # every floor remainder has the sign of d, so they sum to 0 only if each is 0
    if sum(xs) != d * sum(qs):
        raise RuntimeError("internal error: an exact divisor does not divide every entry")
    return qs


def _exact_quotient(re: list[int], im: list[int], dr: int, di: int) -> list[int]:
    """The Gaussian integers re[j] + im[j] i divided by d = dr + di i, as re parts
    followed by im parts. The caller guarantees that d divides every entry.

    For q = x / d, re(q) = re(x conj(d)) / |d|^2 and then im(q) = (im(x) - re(q) di)
    / dr: three products per entry, not the four of x conj(d). Both divisions
    exact means x = q d, so a remainder in either is refused."""
    if not dr:
        # x / (di i) = (im(x) - re(x) i) / di
        re, im, dr, di = im, [-v for v in re], di, 0
    if not di:
        return _divided(re + im, dr)
    qr = _divided([xr * dr + xi * di for xr, xi in zip(re, im)], dr * dr + di * di)
    return qr + _divided([xi - a * di for xi, a in zip(im, qr)], dr)


class ScalarField:
    """A scalar backend: element constructors, conjugation, codecs, sampling, and
    the integer kernels that matrices run on.

    A matrix is held in its field's integer form, one per backend, and the form
    is canonical, so equal matrices have equal forms:
      - Q: (N, d), N the integer rows and d > 0 with gcd(d, all of N) == 1;
      - Q(i): (RE, IM, d), the real and imaginary parts over one such d;
      - F_p: the rows of residues in [0, p).
    The kernels and codecs below take or return forms. `to_form` and `to_rows`
    convert rows of elements to a form and back: `Mat(field, rows)` calls the
    first and every read of `Mat.rows` the second. `solve` and `rank` are
    defined here alone, from the two elimination phases each field supplies,
    `_forward` and `_back`.
    """

    tag: str
    p = None  # the modulus of a prime field
    memo_dim = 0  # the largest n whose products and solves are memoized (PrimeField)

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, value):
        """Convert value into this backend, rejecting other backends and floats; a
        string is read as `parse` reads it."""
        raise NotImplementedError

    def conj(self, x):
        """The involution: the identity, except on Q(i)."""
        return self.coerce(x)

    def parse(self, obj):
        """Decode a JSON-level entry into a scalar."""
        raise NotImplementedError

    def encode(self, x):
        """Encode a scalar as its canonical JSON-level entry."""
        raise NotImplementedError

    def decode(self, entries) -> tuple:
        """The form of rows of JSON-level entries, each read as `parse` reads it."""
        raise NotImplementedError

    def encode_form(self, form) -> list:
        """The rows of canonical JSON-level entries of a form, as `encode` writes them."""
        raise NotImplementedError

    def random(self, rng):
        raise NotImplementedError

    # Kernels on forms. A form may also stand for a non-square list of rows; only
    # `mul` needs its factors square.

    def to_form(self, rows) -> tuple:
        """The form of rows of canonical elements of this field."""
        raise NotImplementedError

    def to_rows(self, form) -> tuple:
        """The rows of canonical elements that the form stands for."""
        raise NotImplementedError

    def mul(self, x, y) -> tuple:
        """The product of two square matrices: integer dot products, reduced once."""
        raise NotImplementedError

    def add(self, x, y) -> tuple:
        raise NotImplementedError

    def neg(self, x) -> tuple:
        raise NotImplementedError

    def transpose(self, x) -> tuple:
        raise NotImplementedError

    def star(self, x) -> tuple:
        """The conjugate transpose: the plain transpose where conjugation is the identity."""
        return self.transpose(x)

    def is_zero(self, x) -> bool:
        raise NotImplementedError

    def augment(self, *forms) -> list[list[int]]:
        """The rows of matrices with equally many rows, side by side, as the integer
        rows `solve` and `rank` take."""
        raise NotImplementedError

    def solve(self, rows, lead: int) -> tuple | None:
        """The pinned solution X of a system given as integer rows (`augment`), the
        coefficients in the first `lead` columns and the right-hand sides in the
        rest: the form of the `lead`-by-(width - `lead`) matrix whose row c, for
        each pivot column c of the RREF, holds that pivot row's right-hand entries,
        and whose other rows, the free variables, are zero. None when the system
        is inconsistent. `rows` is not modified.

        Pivot rule: scan columns left to right, take the first row with a nonzero
        entry at or below the current row. Each field supplies two phases:
        `_forward(rows, lead)` eliminates below each pivot and returns a tuple
        whose first item is the list of pivot columns, and `_back(*forward, lead)`
        gives None if a row past the rank is nonzero beyond column `lead`, else
        the answer.
        """
        return self._back(*self._forward(rows, lead), lead)

    def rank(self, rows, lead: int) -> int:
        """The rank of integer rows (`augment`) on their first `lead` columns: the
        number of pivots of the forward phase of `solve` alone."""
        return len(self._forward(rows, lead)[0])

    def _forward(self, rows, lead: int) -> tuple[list[int], list[list[int]]]:
        """(pivot columns, integer rows in echelon form on the first `lead` columns).

        A row of ints stands for a nonzero multiple of a row of elements; only its
        direction matters until it is divided by its pivot. Over Q `augment`
        divides each row by the gcd of its entries, so the rows it gives are the
        same whatever denominators the matrices were cleared over. Each pivot
        replaces every row below it by pivot * row - entry * pivot_row up to a
        nonzero factor the field chooses (`_eliminate`), so every row stays a
        nonzero multiple of a row of the reduction over the field and the pivots
        are the RREF's. Q divides each new row by the gcd of its entries, its
        whole content, which keeps its rows smaller than the minors Bareiss
        keeps; F_p reduces modulo p.
        """
        rows = list(rows)
        eliminate = self._eliminate
        nrows = len(rows)
        pivots: list[int] = []
        r = 0
        for c in range(lead):
            for i in range(r, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            prow = rows[r]
            for i in range(r + 1, nrows):
                rows[i] = eliminate(rows[i], prow, c)
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return pivots, rows

    def _back(self, pivots, rows, lead: int) -> tuple | None:
        """The answer from the forward phase's rows, or None when a row past the
        rank is nonzero: such a row is zero in the first `lead` columns, so any
        nonzero integer in it decides the verdict. Each pivot row, from the last
        up, clears its column in the rows above it (`_eliminate`), which leaves
        each pivot row a nonzero multiple of its row of the RREF; then
        `_solution(pivots, pivot_rows, lead, m)` divides the last m entries of
        each pivot row by its pivot."""
        r = len(pivots)
        if any(map(any, rows[r:])):
            return None
        eliminate = self._eliminate
        for k in range(r - 1, 0, -1):
            prow, c = rows[k], pivots[k]
            for i in range(k):
                rows[i] = eliminate(rows[i], prow, c)
        return self._solution(pivots, rows[:r], lead, len(rows[0]) - lead)

    def _eliminate(self, row: list[int], prow: list[int], c: int) -> list[int]:
        """prow[c] * row - row[c] * prow up to a nonzero factor; zero at column c."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and other.p == self.p

    def __hash__(self):
        return hash((type(self), self.p))

    def __repr__(self):
        return self.tag


class _ClearedField(ScalarField):
    """A backend of fractions, whose form is (*parts, d): integer matrices (one for
    Q; real and imaginary parts for Q(i)) over one common denominator d."""

    def add(self, x, y):
        *xs, xd = x
        *ys, yd = y
        d = lcm(xd, yd)
        sx, sy = d // xd, d // yd
        return _canonical(d, *(
            [[a * sx + b * sy for a, b in zip(ra, rb)] for ra, rb in zip(xm, ym)]
            for xm, ym in zip(xs, ys)
        ))

    def neg(self, x):
        return (*(tuple([tuple([-v for v in row]) for row in m]) for m in x[:-1]), x[-1])

    def transpose(self, x):
        return (*(tuple(zip(*m)) for m in x[:-1]), x[-1])

    def is_zero(self, x):
        return not any(any(row) for m in x[:-1] for row in m)

    def augment(self, *forms):
        # every part over the lcm of the denominators, then each row made primitive
        d = lcm(*(f[-1] for f in forms))
        mats = []
        for p in range(len(forms[0]) - 1):
            for f in forms:
                k = d // f[-1]
                mats.append(f[p] if k == 1 else [[v * k for v in row] for row in f[p]])
        return [_primitive([v for m in mats for v in m[i]]) for i in range(len(mats[0]))]


class RationalField(_ClearedField):
    """Arbitrary-precision rationals, canonical by construction."""

    tag = "Q"

    def coerce(self, value):
        _reject_float(value)
        if isinstance(value, Fraction):
            return value
        if _is_int(value):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise BackendMismatchError(f"cannot interpret {value!r} as a rational")

    def parse(self, obj):
        return _fraction(*_rational(obj))

    def encode(self, x):
        return str(x)

    def decode(self, entries):
        lits = [[_rational(v) for v in row] for row in entries]
        d = lcm(*[den for row in lits for _, den in row])
        return _canonical(d, [[num * (d // den) for num, den in row] for row in lits])

    def encode_form(self, form):
        n, d = form
        return [[_rational_text(v, d) for v in row] for row in n]

    def random(self, rng):
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def to_form(self, rows):
        # The entries are reduced, so their numerators over the lcm of all the
        # denominators have no common factor with it: the form is canonical as
        # built. The slots are read directly, as `_fraction` sets them.
        d = lcm(*[q._denominator for row in rows for q in row])
        return tuple([tuple([q._numerator * (d // q._denominator) for q in row]) for row in rows]), d

    def to_rows(self, form):
        n, d = form
        return tuple([tuple([_fraction(v, d) if v else _ZERO for v in row]) for row in n])

    def mul(self, x, y):
        (xn, xd), (yn, yd) = x, y
        cols = list(zip(*yn))
        return _canonical(xd * yd, [[sum(map(mul, row, col)) for col in cols] for row in xn])

    def _eliminate(self, row, prow, c):
        p, f = prow[c], row[c]
        if not f:
            return row
        return _primitive([p * a - f * b for a, b in zip(row, prow)])

    def _solution(self, pivots, rows, lead, m):
        # each pivot row over the lcm of the pivots
        d = lcm(*[row[c] for row, c in zip(rows, pivots)])
        x = [(0,) * m] * lead
        for c, row in zip(pivots, rows):
            k = d // row[c]
            x[c] = [v * k for v in row[lead:]]
        return _canonical(d, x)


class GaussianRationalField(_ClearedField):
    """Gaussian rationals a + b*i with complex conjugation as involution."""

    tag = "Qi"

    def coerce(self, value):
        _reject_float(value)
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (Fraction, str)) or _is_int(value):
            return GaussianRational(value)
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return GaussianRational(*value)
        raise BackendMismatchError(f"cannot interpret {value!r} as a Gaussian rational")

    def conj(self, x):
        return self.coerce(x).conjugate()

    @staticmethod
    def _literal(obj) -> tuple[tuple[int, int], tuple[int, int]]:
        """A JSON-level entry as the (numerator, denominator) of its two parts."""
        if isinstance(obj, (list, tuple)):
            if len(obj) != 2:
                raise ValueError(f"Gaussian rational entry must be [re, im]: {obj!r}")
            return _rational(obj[0]), _rational(obj[1])
        if isinstance(obj, str) or _is_int(obj):
            return _rational(obj), (0, 1)
        raise ValueError(f"invalid Gaussian rational encoding: {obj!r}")

    def parse(self, obj):
        re, im = self._literal(obj)
        return _gaussian(_fraction(*re), _fraction(*im))

    def encode(self, x):
        return [str(x.re), str(x.im)]

    def decode(self, entries):
        lits = [[self._literal(v) for v in row] for row in entries]
        d = lcm(*[den for row in lits for z in row for _, den in z])
        return _canonical(
            d,
            [[num * (d // den) for (num, den), _ in row] for row in lits],
            [[num * (d // den) for _, (num, den) in row] for row in lits],
        )

    def encode_form(self, form):
        re, im, d = form
        return [
            [[_rational_text(a, d), _rational_text(b, d)] for a, b in zip(ra, ia)]
            for ra, ia in zip(re, im)
        ]

    def random(self, rng):
        return GaussianRational(QQ.random(rng), QQ.random(rng))

    def to_form(self, rows):
        # canonical as built, as over Q
        d = lcm(*[q._denominator for row in rows for z in row for q in (z.re, z.im)])
        return (
            tuple([tuple([z.re._numerator * (d // z.re._denominator) for z in row]) for row in rows]),
            tuple([tuple([z.im._numerator * (d // z.im._denominator) for z in row]) for row in rows]),
            d,
        )

    def to_rows(self, form):
        re, im, d = form
        return tuple([
            tuple([
                _gaussian(_fraction(a, d), _fraction(b, d)) if a or b else _GAUSSIAN_ZERO
                for a, b in zip(ra, ia)
            ])
            for ra, ia in zip(re, im)
        ])

    def mul(self, x, y):
        # (xr + xi)(yr + yi) gives the imaginary part with three dot products, not four
        (xr, xi, xd), (yr, yi, yd) = x, y
        cols = [(cr, ci, list(map(add, cr, ci))) for cr, ci in zip(zip(*yr), zip(*yi))]
        re, im = [], []
        for ar, ai in zip(xr, xi):
            asum = list(map(add, ar, ai))
            rrow, irow = [], []
            for cr, ci, csum in cols:
                rr, ii = sum(map(mul, ar, cr)), sum(map(mul, ai, ci))
                rrow.append(rr - ii)
                irow.append(sum(map(mul, asum, csum)) - rr - ii)
            re.append(rrow)
            im.append(irow)
        return _canonical(xd * yd, re, im)

    def star(self, x):
        re, im, d = x
        return tuple(zip(*re)), tuple([tuple([-v for v in col]) for col in zip(*im)]), d

    @staticmethod
    def _forward(rows, lead):
        """The forward phase for Q(i) on the first `lead` columns, by fraction-free
        elimination in Z[i] (Bareiss 1968): (pivot columns, re parts, im parts,
        last pivot's re, its im). An integer row is the re parts followed by the
        im parts. At the k-th pivot p_k, in column c, every row below becomes
        (p_k * row - row[c] * pivot_row) / p_{k-1}, with p_{-1} = 1, on the
        columns right of c only, also where row[c] is already zero. Each entry is
        then a minor of the cleared input, so the division is exact.
        """
        w = len(rows[0]) // 2
        re = [row[:w] for row in rows]
        im = [row[w:] for row in rows]
        nrows = len(rows)
        pivots: list[int] = []
        dr, di = 1, 0
        r = 0
        for c in range(lead):
            for i in range(r, nrows):
                if re[i][c] or im[i][c]:
                    break
            else:
                continue
            re[r], re[i], im[r], im[i] = re[i], re[r], im[i], im[r]
            pr, pi = re[r][c], im[r][c]
            br, bi = re[r][c + 1:], im[r][c + 1:]
            for i in range(r + 1, nrows):
                xr, xi = re[i], im[i]
                fr, fi = xr[c], xi[c]
                ar, ai = xr[c + 1:], xi[c + 1:]
                nr = [pr * a - pi * b - fr * g + fi * h for a, b, g, h in zip(ar, ai, br, bi)]
                ni = [pr * b + pi * a - fr * h - fi * g for a, b, g, h in zip(ar, ai, br, bi)]
                if pivots:
                    q = _exact_quotient(nr, ni, dr, di)
                    nr, ni = q[:len(nr)], q[len(nr):]
                # the entries up to column c are stale from here on; no later step
                # reads them
                xr[c + 1:], xi[c + 1:] = nr, ni
            pivots.append(c)
            dr, di = pr, pi
            r += 1
            if r == nrows:
                break
        return pivots, re, im, dr, di

    def _back(self, pivots, re, im, dr, di, lead):
        """The back phase for Q(i): back substitution of the right-hand columns
        alone (Nakos, Turner and Williams 1997). Let U[k] be the k-th pivot row as
        `_forward` leaves it, c_k its pivot column and D the last pivot, the
        determinant of the cleared input at the pivot rows and columns. For every
        right-hand column j and k from the last pivot row up, y_k = (D * U[k][j] -
        sum_{t>k} U[k][c_t] * y_t) / U[k][c_k], which is U[k][j] for the last row.
        By Cramer's rule each y_k is a minor of order rank of the cleared input,
        so this division is exact; a remainder is a broken invariant, which
        `_exact_quotient` raises. Each y_k is D times the RREF's entry, so the
        answer is divided by the one D at the end: y / D = y conj(D) / |D|^2,
        which is just y / D when D is real.
        """
        r = len(pivots)
        if any(any(re[i][lead:]) or any(im[i][lead:]) for i in range(r, len(re))):
            return None
        m = len(re[0]) - lead
        # per right-hand column, y_t for t = r-1, r-2, ...: re parts, im parts, their sums
        ys = [([], [], []) for _ in range(m)]
        out_re, out_im = [(0,) * m] * lead, [(0,) * m] * lead
        for k in reversed(range(r)):
            c, xr, xi = pivots[k], re[k][lead:], im[k][lead:]
            if k < r - 1:
                later = pivots[:k:-1]  # c_t for t = r-1, ..., k+1
                ur, ui = [re[k][ct] for ct in later], [im[k][ct] for ct in later]
                us = list(map(add, ur, ui))
                # sum_t U[k][c_t] y_t with its imaginary part from three dot products
                rr = [sum(map(mul, ur, y[0])) for y in ys]
                ii = [sum(map(mul, ui, y[1])) for y in ys]
                ss = [sum(map(mul, us, y[2])) for y in ys]
                nr = [dr * a - di * b - u + v for a, b, u, v in zip(xr, xi, rr, ii)]
                ni = [dr * b + di * a - g + u + v for a, b, u, v, g in zip(xr, xi, rr, ii, ss)]
                q = _exact_quotient(nr, ni, re[k][c], im[k][c])
                xr, xi = q[:m], q[m:]
            for (yr, yi, ysum), a, b in zip(ys, xr, xi):
                yr.append(a)
                yi.append(b)
                ysum.append(a + b)
            out_re[c], out_im[c] = xr, xi
        if di:  # y / D = y conj(D) / |D|^2
            for c in pivots:
                xr, xi = out_re[c], out_im[c]
                out_re[c] = [a * dr + b * di for a, b in zip(xr, xi)]
                out_im[c] = [b * dr - a * di for a, b in zip(xr, xi)]
            return _canonical(dr * dr + di * di, out_re, out_im)
        if dr < 0:  # y / D = -(y / |D|)
            return self.neg(_canonical(-dr, out_re, out_im))
        return _canonical(dr, out_re, out_im)


class PrimeField(ScalarField):
    """The prime field F_p for p in {2, 3, 5}; conjugation is the identity."""

    tag = "Fp"

    def __init__(self, p: int):
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported prime modulus {p}; supported: {SUPPORTED_PRIMES}")
        self.p = p
        self._elements = tuple(PrimeFieldElement(k, p) for k in range(p))
        # `_fp_mul` and `matrix._fp_solve` memoize at the dims the oracle enumerates whole,
        # p^(n^2) <= EXHAUSTIVE_BOUND, where a sweep repeats them; past these little repeats.
        self.memo_dim = next(n for n in count(1) if p ** ((n + 1) ** 2) > EXHAUSTIVE_BOUND)

    def coerce(self, value):
        _reject_float(value)
        if isinstance(value, str):
            return self.parse(value)
        x = self._elements[0]._coerce(value)
        if x is None:
            raise BackendMismatchError(f"cannot interpret {value!r} as an element of F{self.p}")
        return x

    def _residue(self, obj) -> int:
        """A JSON-level entry as its residue in [0, p)."""
        if isinstance(obj, str):
            _check_entry_size(obj)
            return int(obj) % self.p
        if _is_int(obj):
            return obj % self.p
        raise ValueError(f"invalid F{self.p} encoding: {obj!r}")

    def parse(self, obj):
        return self._elements[self._residue(obj)]

    def encode(self, x):
        return str(x.value)

    def decode(self, entries):
        return tuple([tuple([self._residue(v) for v in row]) for row in entries])

    def encode_form(self, form):
        return [[str(v) for v in row] for row in form]

    def random(self, rng):
        return self._elements[rng.randrange(self.p)]

    def to_form(self, rows):
        return tuple([tuple([v.value for v in row]) for row in rows])

    def to_rows(self, form):
        elements = self._elements
        return tuple([tuple([elements[v] for v in row]) for row in form])

    def mul(self, x, y):
        return (_fp_mul if len(x) <= self.memo_dim else _fp_mul.__wrapped__)(self.p, x, y)

    def add(self, x, y):
        p = self.p
        return tuple([tuple([(a + b) % p for a, b in zip(ra, rb)]) for ra, rb in zip(x, y)])

    def neg(self, x):
        p = self.p
        return tuple([tuple([-v % p for v in row]) for row in x])

    def transpose(self, x):
        return tuple(zip(*x))

    def is_zero(self, x):
        return not any(map(any, x))

    def augment(self, *forms):
        return [[v for f in forms for v in f[i]] for i in range(len(forms[0]))]

    def _eliminate(self, row, prow, c):
        pivot, f, p = prow[c], row[c], self.p
        if not f:
            return row
        return [(pivot * a - f * b) % p for a, b in zip(row, prow)]

    def _solution(self, pivots, rows, lead, m):
        p = self.p
        x = [(0,) * m] * lead
        for c, row in zip(pivots, rows):
            inv = pow(row[c], p - 2, p)
            x[c] = tuple([v * inv % p for v in row[lead:]])
        return tuple(x)

    def __repr__(self):
        return f"F{self.p}"


@lru_cache(maxsize=HELD_FACTS)
def _fp_mul(p: int, x: tuple, y: tuple) -> tuple:
    """The product of two square F_p forms; a hit returns the shared immutable form."""
    cols = list(zip(*y))
    return tuple([tuple([sum(map(mul, row, col)) % p for col in cols]) for row in x])


QQ = RationalField()
QI = GaussianRationalField()

_PRIME_FIELDS: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The shared PrimeField instance for modulus p."""
    try:
        return _PRIME_FIELDS[p]
    except KeyError:
        _PRIME_FIELDS[p] = field = PrimeField(p)
        return field

