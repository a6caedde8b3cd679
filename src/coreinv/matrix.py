"""Dense square matrices over an exact scalar backend.

The ring involution is conjugate-transpose: plain transpose on prime fields
(identity conjugation) and Hermitian transpose on Gaussian rationals. A matrix
is held in its field's canonical integer form, and products, sums, transposes
and row reductions run in the field's own integer kernels (`ScalarField.mul`,
`ScalarField.solve`, ...). Linear solves return the solution of the reduced row
echelon form with a fixed pivoting rule (columns left to right, first nonzero
row) and all free variables zero, so every witness is deterministic and
certificates replay byte-for-byte.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from functools import lru_cache

from .scalar import (
    GF,
    HELD_FACTS,
    QI,
    QQ,
    BackendMismatchError,
    ScalarField,
    _is_int,
)

# Largest dimension accepted on decode. Exact elimination is polynomial in the
# dimension but not cheap, so untrusted JSON may not ask for any size.
MAX_DIM = 32


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


@lru_cache(maxsize=128)
def _scalar_form(field: ScalarField, n: int, k: int) -> tuple:
    """The form of k times the n-by-n identity. Forms are immutable, so each is
    decoded once per field, size and k: decoding a dim-8 identity costs three
    times what converting its element rows did."""
    return field.decode([[k if i == j else 0 for j in range(n)] for i in range(n)])


class Mat:
    """An n-by-n matrix over a single scalar backend. Immutable, exact equality.

    A matrix is its field's canonical integer form (`ScalarField.to_form`), so
    equal matrices have equal forms. Its `rows` of canonical elements are built
    from the form on each read.
    """

    __slots__ = ("field", "n", "form")

    def __init__(self, field: ScalarField, rows):
        data = [list(r) for r in rows]
        n = len(data)
        if n == 0 or any(len(r) != n for r in data):
            raise DimensionMismatchError("matrix must be square and non-empty")
        self.field = field
        self.n = n
        self.form = field.to_form([[field.coerce(v) for v in r] for r in data])

    @classmethod
    def _of(cls, field, n, form):
        # internal constructor from a canonical form of an n-by-n matrix
        m = object.__new__(cls)
        m.field, m.n, m.form = field, n, form
        return m

    @property
    def rows(self) -> tuple:
        """The entries as row tuples of canonical elements, built on each read."""
        return self.field.to_rows(self.form)

    @classmethod
    def identity(cls, field: ScalarField, n: int) -> "Mat":
        return cls._of(field, n, _scalar_form(field, n, 1))

    @classmethod
    def zeros(cls, field: ScalarField, n: int) -> "Mat":
        return cls._of(field, n, _scalar_form(field, n, 0))

    def _compat(self, other: "Mat"):
        # fields are shared instances, so identity settles nearly every check
        if self.field is not other.field and self.field != other.field:
            raise BackendMismatchError(f"mixed matrix backends: {self.field} vs {other.field}")
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._compat(other)
        return Mat._of(self.field, self.n, self.field.add(self.form, other.form))

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._compat(other)
        field = self.field
        return Mat._of(field, self.n, field.add(self.form, field.neg(other.form)))

    def __neg__(self):
        return Mat._of(self.field, self.n, self.field.neg(self.form))

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if other.field is not self.field or other.n != self.n:  # the common case calls nothing
            self._compat(other)
        return Mat._of(self.field, self.n, self.field.mul(self.form, other.form))

    def transpose(self) -> "Mat":
        return Mat._of(self.field, self.n, self.field.transpose(self.form))

    def star(self) -> "Mat":
        """Conjugate-transpose, the ring involution."""
        return Mat._of(self.field, self.n, self.field.star(self.form))

    def power(self, k: int) -> "Mat":
        if not _is_int(k) or k < 0:
            raise ValueError(f"matrix power requires an integer k >= 0, got {k!r}")
        if k == 0:
            return Mat.identity(self.field, self.n)
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    __pow__ = power

    def inverse(self) -> "Mat | None":
        """The two-sided inverse, or None when singular (a result, not an error)."""
        x = _solve(self.field, self.n, self.form, Mat.identity(self.field, self.n).form)
        return None if x is None else Mat._of(self.field, self.n, x)

    def rank(self) -> int:
        """The rank, from one forward elimination of the matrix alone."""
        return self.field.rank(self.field.augment(self.form), self.n)

    def is_invertible(self) -> bool:
        """Whether the matrix has full rank; forms no inverse (see `inverse`)."""
        return self.rank() == self.n

    def is_idempotent(self) -> bool:
        return self * self == self

    def is_hermitian(self) -> bool:
        return self.star() == self

    def is_zero(self) -> bool:
        return self.field.is_zero(self.form)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.field is not other.field and self.field != other.field) or self.n != other.n:
            return False
        return self.form == other.form

    def __hash__(self):
        return hash((self.field, self.form))

    def __repr__(self):
        body = [[str(v) for v in r] for r in self.rows]
        return f"Mat({self.field!r}, {body})"


@dataclass(frozen=True)
class SolveWitness:
    """Outcome of a linear matrix solve; solution is None when inconsistent."""

    solution: Mat | None

    @property
    def consistent(self) -> bool:
        return self.solution is not None


def _solve(field: ScalarField, n: int, lhs, rhs) -> tuple | None:
    """The form of the pinned x with lhs x = rhs, given as the forms of n-by-n matrices
    (`ScalarField.solve`, memoized up to `field.memo_dim`); None if inconsistent."""
    if n <= field.memo_dim:
        return _fp_solve(field.p, lhs, rhs)
    return field.solve(field.augment(lhs, rhs), n)


@lru_cache(maxsize=HELD_FACTS)
def _fp_solve(p: int, lhs: tuple, rhs: tuple) -> tuple | None:
    field = GF(p)
    return field.solve(field.augment(lhs, rhs), len(lhs))


def solve_right(a: Mat, b: Mat) -> SolveWitness:
    """Solve a @ x = b exactly. Free variables of the witness are zeroed."""
    a._compat(b)
    x = _solve(a.field, a.n, a.form, b.form)
    return SolveWitness(None if x is None else Mat._of(a.field, a.n, x))


def solve_left(a: Mat, b: Mat) -> SolveWitness:
    """Solve x @ a = b exactly, as a^T x^T = b^T on the columns of a and b."""
    a._compat(b)
    field = a.field
    xt = _solve(field, a.n, field.transpose(a.form), field.transpose(b.form))
    return SolveWitness(None if xt is None else Mat._of(field, a.n, field.transpose(xt)))


def left_annihilator_basis(m: Mat) -> tuple[tuple, ...]:
    """A canonical basis of row vectors v with v @ m = 0: e_fc - X[:, fc] for each
    free column fc of the RREF of m^T, where X is the pinned solution of
    m^T X = m^T. X holds the RREF's entries at its pivot rows, so a pivot column c
    has X[c][c] = 1 and a free column fc a zero row, X[fc][fc] = 0."""
    field, n = m.field, m.n
    mt = field.transpose(m.form)
    x = field.to_rows(_solve(field, n, mt, mt))
    one = field.one()
    return tuple(
        tuple([one if c == fc else -x[c][fc] for c in range(n)]) for fc in range(n) if not x[fc][fc]
    )


class Weight:
    """An invertible Hermitian matrix that twists the symmetry conditions.

    Invertibility is checked by rank; the inverse is formed on its first read,
    so a weight whose inverse no call reads costs no `[W | I]` reduction."""

    __slots__ = ("value", "_inv", "_mirror")

    def __init__(self, value: Mat):
        if not value.is_hermitian():
            raise ValueError("weight must be Hermitian")
        if not value.is_invertible():
            raise ValueError("weight must be invertible")
        self.value, self._inv, self._mirror = value, None, None

    @classmethod
    def identity(cls, field: ScalarField, n: int) -> "Weight":
        """The identity weight: Hermitian and its own inverse, so not validated."""
        w = object.__new__(cls)
        w.value = w._inv = Mat.identity(field, n)
        w._mirror = None
        return w

    @property
    def inv(self) -> Mat:
        """w^{-1}, formed once per weight."""
        if self._inv is None:
            self._inv = self.value.inverse()
        return self._inv

    def inverse(self) -> "Weight":
        """The weight w^{-1}, made once per weight; Hermitian and invertible because w is,
        so not validated again. It does not hold w back, so no reference cycle forms."""
        if self._mirror is None:
            w = self._mirror = object.__new__(Weight)
            w.value, w._inv, w._mirror = self.inv, self.value, None
        return self._mirror

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Weight({self.value!r})"


def _rand_mat(rng, dim: int, field: ScalarField) -> Mat:
    return Mat(field, [[field.random(rng) for _ in range(dim)] for _ in range(dim)])


def _rand_invertible(rng, dim: int, field: ScalarField) -> Mat:
    while True:
        m = _rand_mat(rng, dim, field)
        if m.is_invertible():
            return m


def _block_embed(field: ScalarField, dim: int, blocks: list[Mat]) -> Mat:
    """Block-diagonal embedding of the given blocks, zero-padded to dim."""
    zero = field.zero()
    out = [[zero] * dim for _ in range(dim)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.rows, offset):
            out[i][offset : offset + b.n] = row
        offset += b.n
    return Mat(field, out)


def random_mat(dim: int, field: ScalarField, seed: int) -> Mat:
    """A seeded random matrix with small entries."""
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    return _rand_mat(_random.Random(seed), dim, field)


def random_weight(dim: int, field: ScalarField, seed: int, definite: bool = False) -> Weight:
    """A seeded random weight g* d g with g invertible and d diagonal over {1, -1}.

    definite=True forces d = 1, giving a positive-definite weight; otherwise the
    signs are random, which over Gaussian rationals deliberately produces
    indefinite weights whose negative paths matter.
    """
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    rng = _random.Random(seed)
    g = _rand_invertible(rng, dim, field)
    signs = [1 if definite else rng.choice((1, -1)) for _ in range(dim)]
    d = Mat(field, [[signs[i] if i == j else 0 for j in range(dim)] for i in range(dim)])
    return Weight(g.star() * d * g)


def random_group_invertible(dim: int, field: ScalarField, seed: int, rank: int | None = None) -> Mat:
    """A seeded random group-invertible matrix u (c ⊕ 0) u^{-1} with c invertible."""
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    rng = _random.Random(seed)
    if rank is None:
        rank = rng.randint(0, dim)
    if not 0 <= rank <= dim:
        raise ValueError(f"rank must lie in [0, {dim}], got {rank}")
    blocks = [] if rank == 0 else [_rand_invertible(rng, rank, field)]
    core = _block_embed(field, dim, blocks)
    u = _rand_invertible(rng, dim, field)
    return u * core * u.inverse()


def random_non_group_invertible(dim: int, field: ScalarField, seed: int) -> Mat:
    """A seeded random matrix that is certainly not group invertible.

    Built as u (c ⊕ N) u^{-1} with N a nonzero nilpotent shift block, so the
    rank drops from the first to the second power.
    """
    if dim < 2:
        raise DimensionMismatchError("dim must be >= 2 for a nonzero nilpotent part")
    rng = _random.Random(seed)
    k = rng.randint(2, dim)
    shift = Mat(field, [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k)])
    blocks = [] if dim == k else [_rand_invertible(rng, dim - k, field)]
    core = _block_embed(field, dim, blocks + [shift])
    u = _rand_invertible(rng, dim, field)
    return u * core * u.inverse()


def _field_from_json(obj: dict) -> ScalarField:
    backend = obj.get("backend")
    if backend == "Q":
        return QQ
    if backend == "Qi":
        return QI
    if backend == "Fp":
        p = obj.get("p")
        if not _is_int(p):
            raise ValueError("Fp matrix object requires an integer 'p'")
        return GF(p)
    raise ValueError(f"unknown backend tag: {backend!r}")


def mat_from_json(obj) -> Mat:
    """Decode {"backend", "p"?, "dim", "entries"} into a Mat."""
    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON object")
    field = _field_from_json(obj)
    dim = obj.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ValueError(f"invalid dim: {dim!r}")
    if dim > MAX_DIM:
        raise ValueError(f"dim {dim} exceeds the maximum {MAX_DIM}")
    entries = obj.get("entries")
    if (
        not isinstance(entries, list)
        or len(entries) != dim
        or any(not isinstance(row, list) or len(row) != dim for row in entries)
    ):
        raise ValueError("entries must be a dim x dim array")
    return Mat._of(field, dim, field.decode(entries))


def mat_to_json(m: Mat) -> dict:
    obj = {
        "backend": m.field.tag,
        "dim": m.n,
        "entries": m.field.encode_form(m.form),
    }
    if m.field.tag == "Fp":
        obj["p"] = m.field.p
    return obj


def weight_from_json(obj) -> Weight:
    """Decode and validate a weight; rejects non-Hermitian or singular input."""
    return Weight(mat_from_json(obj))


def weight_to_json(w: Weight) -> dict:
    return mat_to_json(w.value)
