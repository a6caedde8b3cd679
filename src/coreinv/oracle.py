"""Brute-force ground truth over small prime-field matrix rings.

Candidates are enumerated as raw integer tuples in lexicographic row-major
order and checked with this module's own mod-p arithmetic, so the oracle
shares no code path with the solver-based constructions it cross-checks.
Equation evaluation short-circuits on the first failure per candidate.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .ginverse import (
    GInverseKind,
    NotInvertible,
    _weights_used,
    e_core,
    e_core_via_power,
    f_dual_core,
    f_dual_core_via_power,
    group_inverse,
    weighted_mp,
)
from .matrix import Mat, Weight, mat_to_json, random_weight, weight_to_json
from .scalar import GF

EXHAUSTIVE_BOUND = 10**6


class SpaceTooLargeError(ValueError):
    """The candidate space exceeds the exhaustive bound and no sample was requested."""


@dataclass(frozen=True)
class EnumerationSpace:
    """All of M_dim(F_p), visited once each in lexicographic row-major order."""

    p: int
    dim: int

    @property
    def count(self) -> int:
        return self.p ** (self.dim * self.dim)

    @property
    def exhaustive(self) -> bool:
        return self.count <= EXHAUSTIVE_BOUND

    def matrices(self):
        """An iterator over every matrix; a space beyond EXHAUSTIVE_BOUND is refused."""
        if not self.exhaustive:
            raise SpaceTooLargeError(
                f"space M_{self.dim}(F_{self.p}) has {self.count} matrices"
                f" (> {EXHAUSTIVE_BOUND}); only a sample of it can be checked"
            )
        n = self.dim
        flats = product(range(self.p), repeat=n * n)
        return (tuple(flat[i * n : (i + 1) * n] for i in range(n)) for flat in flats)


def _mmul(x, y, p):
    n = len(x)
    cols = tuple(zip(*y))
    return tuple(
        tuple(sum(row[k] * col[k] for k in range(n)) % p for col in cols) for row in x
    )


def _madd(x, y, p):
    return tuple(tuple((a + b) % p for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _msub(x, y, p):
    return tuple(tuple((a - b) % p for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _mpow(x, k, p):
    n = len(x)
    acc = _eye(n)
    for _ in range(k):
        acc = _mmul(acc, x, p)
    return acc


def _t(x):
    return tuple(zip(*x))


def _eye(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _zeros(n):
    return tuple((0,) * n for _ in range(n))


def _hermitian(x):
    # identity conjugation on prime fields: the involution is plain transpose
    return x == _t(x)


def _invertible(x, p):
    m = [list(r) for r in x]
    n = len(m)
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if m[i][c] % p), None)
        if pr is None:
            return False
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(vi - f * vr) % p for vi, vr in zip(m[i], m[r])]
        r += 1
    return True


def _raw(m: Mat):
    if m.field.tag != "Fp":
        raise ValueError("oracle operations require a prime-field matrix")
    return tuple(tuple(v.value for v in row) for row in m.rows), m.field.p


def _to_mat(raw, p) -> Mat:
    return Mat(GF(p), [list(r) for r in raw])


def _satisfies(kind: GInverseKind, a, x, e, f, p) -> bool:
    ax = _mmul(a, x, p)
    if kind is GInverseKind.GROUP:
        xa = _mmul(x, a, p)
        return _mmul(ax, a, p) == a and _mmul(xa, x, p) == x and ax == xa
    if kind is GInverseKind.ONE_THREE_E:
        return _mmul(ax, a, p) == a and _hermitian(_mmul(e, ax, p))
    if kind is GInverseKind.ONE_FOUR_F:
        xa = _mmul(x, a, p)
        return _mmul(ax, a, p) == a and _hermitian(_mmul(f, xa, p))
    if kind is GInverseKind.WEIGHTED_MP:
        xa = _mmul(x, a, p)
        return (
            _mmul(ax, a, p) == a
            and _mmul(xa, x, p) == x
            and _hermitian(_mmul(e, ax, p))
            and _hermitian(_mmul(f, xa, p))
        )
    if kind is GInverseKind.E_CORE:
        xa = _mmul(x, a, p)
        return (
            _mmul(ax, a, p) == a
            and _mmul(xa, x, p) == x
            and _hermitian(_mmul(e, ax, p))
            and _mmul(xa, a, p) == a
            and _mmul(ax, x, p) == x
        )
    if kind is GInverseKind.F_DUAL_CORE:
        xa = _mmul(x, a, p)
        return (
            _mmul(ax, a, p) == a
            and _mmul(xa, x, p) == x
            and _hermitian(_mmul(f, xa, p))
            and _mmul(a, ax, p) == a
            and _mmul(x, xa, p) == x
        )
    raise ValueError(f"unknown kind {kind!r}")


def _weight_raws(kind: GInverseKind, a_raw, p, e: Weight | None, f: Weight | None):
    """Raw forms of the weights the kind's equations use; None for the others."""
    raws = []
    for w, name in zip(_weights_used(kind, e, f), "ef"):
        raw = None
        if w is not None:
            raw, wp = _raw(w.value)
            if wp != p or len(raw) != len(a_raw):
                raise ValueError(f"weight {name} does not match the matrix backend")
        raws.append(raw)
    return tuple(raws)


def _candidates(space: EnumerationSpace, sample: int | None, seed: int | None):
    if sample is None:
        return space.matrices()
    if seed is None:
        raise ValueError("sampled enumeration requires a seed")
    rng = _random.Random(seed)
    n = space.dim

    def sampled():
        for _ in range(sample):
            yield tuple(
                tuple(rng.randrange(space.p) for _ in range(n)) for _ in range(n)
            )

    return sampled()


def brute_solutions(
    kind: GInverseKind,
    a: Mat,
    e: Weight | None = None,
    f: Weight | None = None,
    sample: int | None = None,
    seed: int | None = None,
) -> set[Mat]:
    """Every x in M_n(F_p) satisfying the kind's full defining-equation set.

    Exhaustive when the space is within bound; with `sample`, a uniform random
    subset of candidates is checked instead (membership spot-check only).
    """
    kind = GInverseKind(kind)
    a_raw, p = _raw(a)
    e_raw, f_raw = _weight_raws(kind, a_raw, p, e, f)
    space = EnumerationSpace(p, a.n)
    found = set()
    for x in _candidates(space, sample, seed):
        if _satisfies(kind, a_raw, x, e_raw, f_raw, p):
            found.add(_to_mat(x, p))
    return found


@lru_cache(maxsize=None)
def _idempotents(p: int, n: int):
    return tuple(x for x in EnumerationSpace(p, n).matrices() if _mmul(x, x, p) == x)


def brute_idempotent_certificates(
    a: Mat, e: Weight, n: int, flavor
) -> set[Mat]:
    """All idempotents satisfying the given clause for a, by exhaustive search.

    flavor "p": (e q)* = e q, q a = 0 and a^n + q invertible;
    flavor "q": same annihilation conditions with unit a^n (1 - q) + q.
    """
    from .characterize import Flavor

    flavor = Flavor(flavor)
    if flavor not in (Flavor.IDEM_P, Flavor.IDEM_Q):
        raise ValueError("idempotent enumeration applies to idempotent flavors only")
    a_raw, p = _raw(a)
    e_raw, _ = _weight_raws(GInverseKind.E_CORE, a_raw, p, e, None)
    dim = a.n
    an = _mpow(a_raw, n, p)
    eye = _eye(dim)
    zero = _zeros(dim)
    found = set()
    for q in _idempotents(p, dim):
        if not _hermitian(_mmul(e_raw, q, p)):
            continue
        if _mmul(q, a_raw, p) != zero:
            continue
        if flavor is Flavor.IDEM_P:
            unit = _madd(an, q, p)
        else:
            unit = _madd(_mmul(an, _msub(eye, q, p), p), q, p)
        if _invertible(unit, p):
            found.add(_to_mat(q, p))
    return found


def _compare(kind, constructed, brute: set[Mat], a_raw, e_raw, f_raw, p, sampled: bool):
    entry = {
        "kind": kind.value,
        "constructed": None
        if isinstance(constructed, NotInvertible)
        else mat_to_json(constructed.value),
        "brute_count": len(brute),
    }
    if isinstance(constructed, NotInvertible):
        ok = len(brute) == 0
    else:
        value_raw, _ = _raw(constructed.value)
        ok = _satisfies(kind, a_raw, value_raw, e_raw, f_raw, p)
        if sampled:
            ok = ok and brute <= {constructed.value}
        else:
            ok = ok and brute == {constructed.value}
    entry["ok"] = ok
    return entry


def cross_check(
    a: Mat,
    e: Weight,
    f: Weight,
    n: int = 1,
    sample: int | None = None,
    seed: int | None = None,
) -> dict:
    """Differential check of the closed-form constructions against brute search.

    For each of the four uniquely-determined kinds, the constructed value (or
    negative result) must agree with the brute-force solution set; with n >= 2
    the power-representation paths must match the direct ones as well.
    """
    a_raw, p = _raw(a)
    e_raw, f_raw = _weight_raws(GInverseKind.WEIGHTED_MP, a_raw, p, e, f)
    sampled = sample is not None
    constructed = {
        GInverseKind.GROUP: group_inverse(a),
        GInverseKind.E_CORE: e_core(a, e),
        GInverseKind.F_DUAL_CORE: f_dual_core(a, f),
        GInverseKind.WEIGHTED_MP: weighted_mp(a, e, f),
    }
    checks = []
    for kind, result in constructed.items():
        brute = brute_solutions(kind, a, e=e, f=f, sample=sample, seed=seed)
        checks.append(_compare(kind, result, brute, a_raw, e_raw, f_raw, p, sampled))
    if n >= 2:
        powered = e_core_via_power(a, e, n)
        checks.append(_power_entry("ecore_power", constructed[GInverseKind.E_CORE], powered))
        powered = f_dual_core_via_power(a, f, n)
        checks.append(_power_entry("fdual_power", constructed[GInverseKind.F_DUAL_CORE], powered))
    ok = all(c["ok"] for c in checks)
    return {
        "ok": ok,
        "a": mat_to_json(a),
        "e": weight_to_json(e),
        "f": weight_to_json(f),
        "n": n,
        "checks": checks,
    }


def _power_entry(name, direct, powered):
    direct_neg = isinstance(direct, NotInvertible)
    powered_neg = isinstance(powered, NotInvertible)
    if direct_neg or powered_neg:
        ok = direct_neg and powered_neg
    else:
        ok = direct.value == powered.value
    return {
        "kind": name,
        "constructed": None if powered_neg else mat_to_json(powered.value),
        "brute_count": None,
        "ok": ok,
    }


def iter_invertible_symmetric(p: int, dim: int):
    """All invertible symmetric matrices over F_p, in a fixed enumeration order."""
    idx = [(i, j) for i in range(dim) for j in range(i, dim)]
    for assignment in product(range(p), repeat=len(idx)):
        raw = [[0] * dim for _ in range(dim)]
        for (i, j), v in zip(idx, assignment):
            raw[i][j] = v
            raw[j][i] = v
        raw = tuple(tuple(r) for r in raw)
        if _invertible(raw, p):
            yield raw


def cross_check_sweep(
    p: int,
    dim: int,
    n: int = 1,
    sample: int | None = None,
    seed: int | None = None,
) -> dict:
    """Run cross_check over a whole space, with e = f = w per symmetric weight w.

    Exhaustive mode visits every matrix and every invertible symmetric weight;
    sampled mode draws `sample` seeded random (matrix, weight) instances and
    samples the candidate space per instance as well.
    """
    space = EnumerationSpace(p, dim)
    field = GF(p)
    checked = 0
    mismatches = []

    def record(report):
        nonlocal checked
        checked += 1
        if not report["ok"]:
            mismatches.append(report)

    if sample is None:
        matrices = space.matrices()
        weights = [Weight(_to_mat(w, p)) for w in iter_invertible_symmetric(p, dim)]
        for a_raw in matrices:
            a = _to_mat(a_raw, p)
            for w in weights:
                record(cross_check(a, w, w, n=n))
    else:
        if seed is None:
            raise ValueError("sampled sweeps require a seed")
        rng = _random.Random(seed)
        for _ in range(sample):
            a = Mat(field, [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)])
            w = random_weight(dim, field, seed=rng.randrange(2**63))
            inner_sample = sample if not space.exhaustive else None
            inner_seed = rng.randrange(2**63) if inner_sample is not None else None
            record(cross_check(a, w, w, n=n, sample=inner_sample, seed=inner_seed))
    return {
        "space": {
            "p": p,
            "dim": dim,
            "count": space.count,
            "exhaustive": sample is None,
        },
        "checked": checked,
        "mismatches": mismatches,
    }
