"""Brute-force ground truth over small prime-field matrix rings.

Candidates are enumerated as raw integer tuples in lexicographic row-major
order and checked with this module's own mod-p arithmetic, so the oracle
shares no code path with the solver-based constructions it cross-checks.
Every kind requires equation (1), a·x·a = a, so one pass over the candidates
keeps only the inner inverses of `a`, with the weight-free equations each
satisfies; a weight pair then only filters them by (3e) and (4f), which
yields the solution sets of all six kinds at once.
"""

from __future__ import annotations

import operator
import random as _random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .ginverse import (
    GInverseKind,
    NotInvertible,
    _check_n,
    _instance,
    _Instance,
    e_core,
    e_core_via_power,
    f_dual_core,
    f_dual_core_via_power,
    group_inverse,
    weighted_mp,
)
from .matrix import MAX_DIM, Mat, Weight, mat_to_json, random_weight, weight_to_json
from .scalar import EXHAUSTIVE_BOUND, GF, SUPPORTED_PRIMES, _is_int


class SpaceTooLargeError(ValueError):
    """The candidate space exceeds the exhaustive bound and no sample was requested."""


@dataclass(frozen=True)
class EnumerationSpace:
    """All of M_dim(F_p), visited once each in lexicographic row-major order."""

    p: int
    dim: int

    def __post_init__(self):
        # refused before `count`, p^(dim^2), is ever formed
        if not _is_int(self.dim) or not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must satisfy 1 <= dim <= {MAX_DIM}, got {self.dim!r}")
        if not _is_int(self.p) or self.p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported prime modulus {self.p!r}; supported: {SUPPORTED_PRIMES}")

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
    cols = tuple(zip(*y))
    return tuple([tuple([sum(map(operator.mul, row, col)) % p for col in cols]) for row in x])


def _madd(x, y, p):
    return tuple(tuple((a + b) % p for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _msub(x, y, p):
    return tuple(tuple((a - b) % p for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _mpow(x, k, p):
    acc = x
    for _ in range(k - 1):
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
    return m.form, m.field.p  # an F_p form is the rows of residues


def _to_mat(raw, p) -> Mat:
    # rows of residues in [0, p) as tuples are the F_p form itself
    return Mat._of(GF(p), len(raw), raw)


# The equations each kind adds to (1). The oracle keeps its own copy of the
# kind definitions rather than reading ginverse.EQUATIONS.
_KIND_LABELS = {
    GInverseKind.GROUP: frozenset({"(2)", "(5)"}),
    GInverseKind.ONE_THREE_E: frozenset({"(3e)"}),
    GInverseKind.ONE_FOUR_F: frozenset({"(4f)"}),
    GInverseKind.WEIGHTED_MP: frozenset({"(2)", "(3e)", "(4f)"}),
    GInverseKind.E_CORE: frozenset({"(2)", "(3e)", "(6)", "(7)"}),
    GInverseKind.F_DUAL_CORE: frozenset({"(2)", "(4f)", "(8)", "(9)"}),
}


# A set of kinds is an int, the sum of its kinds' bits; _WEIGHTED[2·(3e) + (4f)] is
# the set of weighted labels that hold under that outcome of (3e) and (4f).
_BIT = {kind: 1 << i for i, kind in enumerate(_KIND_LABELS)}
_WEIGHTED = (frozenset(), frozenset({"(4f)"}), frozenset({"(3e)"}), frozenset({"(3e)", "(4f)"}))


def _inner_inverses(a, p, candidates):
    """The candidates x with a·x·a = a as (axs, xas, entries): the distinct a·x and
    x·a among them, and per x the entry (x, i, j, kinds) with a·x = axs[i], x·a =
    xas[j] and kinds[2·(3e) + (4f)] the set of kinds x solves under that outcome,
    from the weight-free equations it satisfies. Tuples of ints throughout, which
    the garbage collector stops tracking."""
    axs, xas, entries = {}, {}, []
    for x in candidates:
        ax = _mmul(a, x, p)
        if _mmul(ax, a, p) != a:
            continue
        xa = _mmul(x, a, p)
        holds = (
            ("(2)", _mmul(xa, x, p) == x),
            ("(5)", ax == xa),
            ("(6)", _mmul(xa, a, p) == a),
            ("(7)", _mmul(ax, x, p) == x),
            ("(8)", _mmul(a, ax, p) == a),
            ("(9)", _mmul(x, xa, p) == x),
        )
        free = {label for label, ok in holds if ok}
        kinds = tuple(
            sum(_BIT[kind] for kind, labels in _KIND_LABELS.items() if labels <= free | weighted)
            for weighted in _WEIGHTED
        )
        entries.append((x, axs.setdefault(ax, len(axs)), xas.setdefault(xa, len(xas)), kinds))
    return tuple(axs), tuple(xas), tuple(entries)


# Sweeps visit the space a-major, so each a is searched once for all its
# weights; 128 entries hold all of M_2(F_3).
@lru_cache(maxsize=128)
def _all_inner_inverses(a, p):
    return _inner_inverses(a, p, EnumerationSpace(p, len(a)).matrices())


def _solutions(a, p, e, f, inner, kinds):
    """Each of the kinds' solutions among the inner inverses `inner` of a (see
    _inner_inverses), as sets of raw matrices; a weight no kind uses may be None."""
    axs, xas, entries = inner
    # a·x and x·a take few distinct values among the inner inverses of one a,
    # so (3e) and (4f) are decided once per distinct product
    sym_e = [e is not None and _hermitian(_mmul(e, m, p)) for m in axs]
    sym_f = [f is not None and _hermitian(_mmul(f, m, p)) for m in xas]
    found = {kind: set() for kind in kinds}
    asked = sum(map(_BIT.get, found))
    for x, i, j, masks in entries:
        solves = masks[2 * sym_e[i] + sym_f[j]] & asked
        if solves:
            for kind, xs in found.items():
                if solves & _BIT[kind]:
                    xs.add(x)
    return found


def _weight_raws(kind: GInverseKind, a_raw, p, e: Weight | None, f: Weight | None):
    """Raw forms of the weights the kind's equations use: e serves (3e) and f
    serves (4f); None for the others. A weight they use that is missing raises
    ValueError."""
    raws = []
    for label, w, name in (("(3e)", e, "e"), ("(4f)", f, "f")):
        raw = None
        if label in _KIND_LABELS[kind]:
            if w is None:
                raise ValueError(f"kind {kind.value} requires the weight {name}")
            raw, wp = _raw(w.value)
            if wp != p or len(raw) != len(a_raw):
                raise ValueError(f"weight {name} does not match the matrix backend")
        raws.append(raw)
    return tuple(raws)


def _check_sample(sample: int, seed: int | None):
    """A sampled run needs a seed and at least one draw: checking nothing is not a pass."""
    if seed is None:
        raise ValueError("sampled mode requires a seed")
    if sample < 1:
        raise ValueError("sample must be at least 1")


def _brute(a, p, e, f, kinds, sample: int | None, seed: int | None):
    """The brute solution set of each of the kinds (see _solutions) from one pass
    over the candidates: all of M_n(F_p), or `sample` seeded draws from it."""
    if sample is None:
        return _solutions(a, p, e, f, _all_inner_inverses(a, p), kinds)
    _check_sample(sample, seed)
    rng = _random.Random(seed)
    n = len(a)
    draws = (
        tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        for _ in range(sample)
    )
    return _solutions(a, p, e, f, _inner_inverses(a, p, draws), kinds)


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
    return {_to_mat(x, p) for x in _brute(a_raw, p, e_raw, f_raw, (kind,), sample, seed)[kind]}


@lru_cache(maxsize=None)
def _idempotents(p: int, n: int):
    return tuple(x for x in EnumerationSpace(p, n).matrices() if _mmul(x, x, p) == x)


def brute_idempotent_certificates(a: Mat, e: Weight, n: int, flavor: str) -> set[Mat]:
    """All idempotents satisfying the given clause for a, by exhaustive search.

    flavor "p": (e q)* = e q, q a = 0 and a^n + q invertible;
    flavor "q": same annihilation conditions with unit a^n (1 - q) + q.
    A characterize.Flavor member is a str and may be passed as well.
    """
    if flavor not in ("p", "q"):
        raise ValueError("idempotent enumeration applies to idempotent flavors only")
    _check_n(n)
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
        if flavor == "p":
            unit = _madd(an, q, p)
        else:
            unit = _madd(_mmul(an, _msub(eye, q, p), p), q, p)
        if _invertible(unit, p):
            found.add(_to_mat(q, p))
    return found


def _compare(kind, constructed, brute: set, own: set):
    """The report entry of one kind; `brute` holds the brute solutions and `own`
    those of the constructed values that satisfy the kind's equations, raw. A
    value passes when it solves the equations and no other solution turns up;
    where `own` is an exhaustive `brute`, that is brute == {value}."""
    if isinstance(constructed, NotInvertible):
        ok = not brute
    else:
        value, _ = _raw(constructed.value)
        ok = value in own and brute <= {value}
    return _entry(kind.value, constructed, len(brute), ok)


def _entry(name: str, result, brute_count: int | None, ok: bool) -> dict:
    negative = isinstance(result, NotInvertible)
    constructed = None if negative else mat_to_json(result.value)
    return {"kind": name, "constructed": constructed, "brute_count": brute_count, "ok": ok}


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
    (n is an int in 1..MAX_POWER) the power-representation paths must match
    the direct ones as well. They all share one instance of a, so each
    prerequisite is solved once, the power memberships are read off the group
    one, and each equation is evaluated once per value, a power value equal
    to the direct one included. Calls on an equal matrix share that instance too,
    the thread's while it holds it (see ginverse._instance) or the one a sweep
    passes, so the weight-free facts of a are worked out once for all of their
    weights, and the facts of a weight once per weight value.
    """
    _check_n(n)
    a = _instance(a)
    a_raw, p = _raw(a)
    e_raw, f_raw = _weight_raws(GInverseKind.WEIGHTED_MP, a_raw, p, e, f)
    constructed = {
        GInverseKind.GROUP: group_inverse(a),
        GInverseKind.E_CORE: e_core(a, e),
        GInverseKind.F_DUAL_CORE: f_dual_core(a, f),
        GInverseKind.WEIGHTED_MP: weighted_mp(a, e, f),
    }
    brute = _brute(a_raw, p, e_raw, f_raw, constructed, sample, seed)
    own = brute  # an exhaustive pass holds every solution
    if sample is not None:
        values = {_raw(r.value)[0] for r in constructed.values() if not isinstance(r, NotInvertible)}
        own = _solutions(a_raw, p, e_raw, f_raw, _inner_inverses(a_raw, p, values), constructed)
    checks = [_compare(kind, r, brute[kind], own[kind]) for kind, r in constructed.items()]
    if n >= 2:
        powered = e_core_via_power(a, e, n)
        checks.append(_power_entry("ecore_power", constructed[GInverseKind.E_CORE], powered))
        powered = f_dual_core_via_power(a, f, n)
        checks.append(_power_entry("fdual_power", constructed[GInverseKind.F_DUAL_CORE], powered))
    return {
        "ok": all(c["ok"] for c in checks),
        "a": mat_to_json(a),
        "e": weight_to_json(e),
        "f": weight_to_json(f),
        "n": n,
        "checks": checks,
    }


def _power_entry(name, direct, powered):
    negative = isinstance(direct, NotInvertible), isinstance(powered, NotInvertible)
    ok = all(negative) if any(negative) else direct.value == powered.value
    return _entry(name, powered, None, ok)


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


def _sampled_reports(space: EnumerationSpace, n: int, sample: int, seed: int):
    """cross_check on `sample` seeded random (matrix, weight) instances; beyond the
    exhaustive bound each instance samples its candidates as well."""
    rng = _random.Random(seed)
    p, dim, field = space.p, space.dim, GF(space.p)
    inner_sample = None if space.exhaustive else sample
    for _ in range(sample):
        a = _Instance(Mat(field, [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]))
        w = random_weight(dim, field, seed=rng.randrange(2**63))
        inner_seed = None if inner_sample is None else rng.randrange(2**63)
        yield cross_check(a, w, w, n=n, sample=inner_sample, seed=inner_seed)


def _exhaustive_reports(matrices, weights: list[Weight], p: int, n: int):
    """cross_check on every matrix with e = f = w for each weight, matrix-major: the
    calls on one matrix share its instance, dropped once its weights are done."""
    for a_raw in matrices:
        a = _Instance(_to_mat(a_raw, p))
        for w in weights:
            yield cross_check(a, w, w, n=n)


def cross_check_sweep(
    p: int,
    dim: int,
    n: int = 1,
    sample: int | None = None,
    seed: int | None = None,
) -> dict:
    """Run cross_check over a whole space, with e = f = w per symmetric weight w.

    Exhaustive mode visits every matrix and every invertible symmetric weight;
    sampled mode draws `sample` >= 1 seeded random (matrix, weight) instances
    and requires a seed. Either hands each matrix an instance of its own, as a
    nested call does, so the sweep leaves the thread's held instances as they were.
    """
    _check_n(n)
    space = EnumerationSpace(p, dim)
    if sample is None:
        matrices = space.matrices()  # an oversized space is refused before any weight is listed
        weights = [Weight(_to_mat(w, p)) for w in iter_invertible_symmetric(p, dim)]
        reports = _exhaustive_reports(matrices, weights, p, n)
    else:
        _check_sample(sample, seed)
        reports = _sampled_reports(space, n, sample, seed)
    checked, mismatches = 0, []
    for report in reports:
        checked += 1
        if not report["ok"]:
            mismatches.append(report)
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
