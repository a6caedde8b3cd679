"""Idempotent/unit characterizations of weighted core and dual core inverses.

A weighted core inverse exists exactly when a certain annihilating idempotent
turns a^n into a unit. This module goes both ways: `decompose_*` extracts the
idempotent/unit certificate from a computed inverse, and `replay` (with its
`*_from_*` shorthands) turns a certificate back into the inverse through one
closed formula per flavor, validating every certificate precondition first and
failing loudly on violations. Dual-side results are the core-side ones for
(a*, f^{-1}) carried back through the involution. It also
carries the Gram-matrix formulas (exact analogues valid in any Dedekind-finite
ring, hence in every matrix ring here), weighted-EP detection, and an audit of
the uniqueness claims for the idempotent certificates.
"""

from __future__ import annotations

import random as _random
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

from .ginverse import (
    GInverseKind,
    InverseCertificate,
    NotInvertible,
    _Instance,
    _certified,
    _check_n,
    _instance,
    _transport,
    e_core,
    f_dual_core,
)
from .matrix import Mat, Weight, _rand_mat, mat_from_json, mat_to_json, solve_right
from .oracle import brute_idempotent_certificates

# Draws random_annihilator_witness makes before it gives up.
_WITNESS_TRIES = 32


class Flavor(str, Enum):
    IDEM_P = "p"
    ELEM_S = "s"
    IDEM_Q = "q"
    ELEM_T = "t"


class Side(str, Enum):
    CORE = "core"
    DUAL = "dual"


class InvalidCertificateError(ValueError):
    """A decomposition certificate violates one of its stated preconditions."""


@dataclass(frozen=True)
class Decomposition:
    """An element/unit pair realizing one clause of the characterizations."""

    flavor: Flavor
    side: Side
    element: Mat
    unit: Mat
    n: int

    def __post_init__(self):
        # a certificate built with the strings "p", "core", ... replays as one built
        # with the members
        object.__setattr__(self, "flavor", Flavor(self.flavor))
        object.__setattr__(self, "side", Side(self.side))


@dataclass(frozen=True)
class EPReport:
    """Outcome of the weighted-EP test, with both inverses as evidence."""

    weighted_ep: bool
    e_core: InverseCertificate | NotInvertible
    f_dual_core: InverseCertificate | NotInvertible
    p: Mat | None

    def __bool__(self):
        return self.weighted_ep


def unit_for(a: Mat, element: Mat, n: int, flavor: Flavor, side: Side) -> Mat:
    """The unit candidate the flavor's clause pairs with the element."""
    ident = Mat.identity(a.field, a.n)
    an = a.power(n)
    if flavor in (Flavor.IDEM_P, Flavor.ELEM_S):
        return an + element
    if side is Side.CORE:
        return an * (ident - element) + element
    return (ident - element) * an + element


def _require(ok: bool, message: str):
    if not ok:
        raise InvalidCertificateError(message)


# The last precondition, which the caller checks on the unit `_validate_element`
# returns: `_replay` by forming its inverse, `_decompose` by its rank alone.
_NOT_A_UNIT = "unit is not invertible"


def _weighted(a: _Instance, key, make, w: Weight):
    """a's fact for key and the weight w, keyed by the weight's backend as well: F_3
    and F_5 forms are both tuples of ints, and a weight of another backend is refused."""
    return a._fact((key, w.value.field), make, w)


def _validate_element(
    a: _Instance, w: Weight, element: Mat, n: int, flavor: Flavor, side: Side, unit: Mat | None
) -> Mat:
    """Check the clause's preconditions but the last (_NOT_A_UNIT); returns the unit.
    n, dims and backends are checked by the caller; each element test is a fact of a."""
    name, form = flavor.value, element.form
    expected = unit_for(a, element, n, flavor, side)
    unit_ok = unit is None or unit == expected
    if flavor in (Flavor.IDEM_P, Flavor.IDEM_Q):
        idempotent = a._fact(("idempotent", form), lambda: element.is_idempotent())
        _require(idempotent, f"{name} must be idempotent")
    else:  # the element flavors check their unit first
        _require(unit_ok, "unit does not match its defining formula")
    hermitian = _weighted(a, ("hermitian", form), lambda: (w.value * element).is_hermitian(), w)
    _require(hermitian, f"weighted element must be Hermitian: (w {name})* != w {name}")
    if side is Side.CORE:
        zero, message = lambda: (element * a).is_zero(), f"{name} a != 0"
    else:
        zero, message = lambda: (a * element).is_zero(), f"a {name} != 0"
    _require(a._fact(("annihilates", side, form), zero), message)
    _require(unit_ok, "unit does not match its defining formula")
    return expected


def _core(a: _Instance, w: Weight, side: Side) -> InverseCertificate | NotInvertible:
    """The certified e-core of (a, w), or the f-dual core on the dual side, once per weight."""
    core = e_core if side is Side.CORE else f_dual_core
    return _weighted(a, ("core", side), lambda: core(a, w), w)


def _idempotent(a: _Instance, w: Weight, side: Side) -> Mat | NotInvertible:
    """1 - a a^{e-core} (a a^{e-core} is the product verify formed to certify it), its
    mirror 1 - a_{f-dual} a on the dual side, or the negative of the inverse."""
    if side is Side.DUAL:
        return _transport(_idempotent, a, w, Side.CORE)
    cert = _core(a, w, Side.CORE)
    if isinstance(cert, NotInvertible):
        return cert
    return Mat.identity(a.field, a.n) - a._products(cert.value).get("ax")


@contextmanager
def _built():
    """A failed certificate check on an element built here is an internal error."""
    try:
        yield
    except InvalidCertificateError as exc:
        raise RuntimeError(f"internal error: a built decomposition fails: {exc}") from exc


def _decompose(a: Mat, w: Weight, n: int, flavor: Flavor, side: Side):
    """The side's canonical idempotent and the flavor's unit, checked as on replay;
    built once per weight on the instance."""
    _check_n(n)
    a = _instance(a)

    def build():
        element = _idempotent(a, w, side)
        if isinstance(element, NotInvertible):
            return element
        with _built():
            unit = _validate_element(a, w, element, n, flavor, side, None)
            _require(unit.is_invertible(), _NOT_A_UNIT)
        return Decomposition(flavor, side, element, unit, n)

    return _weighted(a, ("decompose", flavor, side, n), build, w)


def decompose_idempotent(a: Mat, e: Weight, n: int = 1) -> Decomposition | NotInvertible:
    """The canonical idempotent p = 1 - a a^{e-core} with its unit a^n + p."""
    return _decompose(a, e, n, Flavor.IDEM_P, Side.CORE)


def decompose_q(a: Mat, e: Weight, n: int = 1) -> Decomposition | NotInvertible:
    """The same idempotent paired with the unit a^n (1 - q) + q."""
    return _decompose(a, e, n, Flavor.IDEM_Q, Side.CORE)


def dual_decompose(
    a: Mat, f: Weight, n: int = 1, flavor: Flavor = Flavor.IDEM_P
) -> Decomposition | NotInvertible:
    """Dual-side idempotent p = 1 - a_{f-dual} a with the flavor's unit.

    The mirror of the core-side decomposition of (a*, f^{-1}).
    """
    flavor = Flavor(flavor)
    if flavor not in (Flavor.IDEM_P, Flavor.IDEM_Q):
        raise ValueError("dual_decompose produces idempotent flavors only")
    return _decompose(a, f, n, flavor, Side.DUAL)


# The core-side closed formulas, one per flavor, in terms of a, c = 1 - element
# and the unit's inverse u: the first for n = 1, the second for n >= 2 with
# m = a^{n-1}. The dual side evaluates them on (a*, element*, u*) and stars back.
_FORMULAS = {
    Flavor.IDEM_P: (lambda a, c, u: u * c, lambda m, c, u: m * u),
    Flavor.ELEM_S: (lambda a, c, u: u * a * u, lambda m, c, u: m * u),
    Flavor.IDEM_Q: (lambda a, c, u: c * u, lambda m, c, u: m * c * u),
    Flavor.ELEM_T: (lambda a, c, u: u * a * c * u, lambda m, c, u: m * c * u),
}


def _replay(a, w, flavor, side, element, n, unit) -> Mat:
    """The certificate's inverse, once per certificate and weight on the instance; a
    replay that raises holds nothing."""
    a = _instance(a)
    _check_n(n)
    a._compat(element)
    if unit is not None:
        a._compat(unit)

    def rebuild():
        unit_inv = _validate_element(a, w, element, n, flavor, side, unit).inverse()
        _require(unit_inv is not None, _NOT_A_UNIT)
        star = (lambda m: m) if side is Side.CORE else Mat.star
        b, c, u = star(a), Mat.identity(a.field, a.n) - star(element), star(unit_inv)
        first, rest = _FORMULAS[flavor]
        value = star(first(b, c, u) if n == 1 else rest(b.power(n - 1), c, u))
        kind = GInverseKind.E_CORE if side is Side.CORE else GInverseKind.F_DUAL_CORE
        return _certified(kind, a, (value, {}), e=w, f=w).value

    key = ("replay", flavor, side, n, element.form, None if unit is None else unit.form)
    return _weighted(a, key, rebuild, w)


def replay(a: Mat, w: Weight, d: Decomposition) -> Mat:
    """Rebuild the weighted core (w = e) or dual core (w = f) inverse from a certificate.

    Every precondition is checked first, the unit before the element for the
    flavors s and t, and a violation raises InvalidCertificateError. The result
    is verified on the equations of the certificate's own side for (a, w).
    """
    return _replay(a, w, d.flavor, d.side, d.element, d.n, d.unit)


def _replay_as(flavor: Flavor, side: Side, a: Mat, w: Weight, d: Decomposition) -> Mat:
    if d.flavor is not flavor or d.side is not side:
        raise InvalidCertificateError(
            f"expected a {side.value}-side idempotent-{flavor.value} certificate"
        )
    return replay(a, w, d)


def core_from_pu(a: Mat, e: Weight, d: Decomposition) -> Mat:
    """Rebuild the weighted core inverse from an idempotent/unit certificate."""
    return _replay_as(Flavor.IDEM_P, Side.CORE, a, e, d)


def core_from_s(a: Mat, e: Weight, s: Mat, n: int = 1) -> Mat:
    """Rebuild the weighted core inverse from an element witness (not necessarily idempotent)."""
    return _replay(a, e, Flavor.ELEM_S, Side.CORE, s, n, None)


def core_from_qw(a: Mat, e: Weight, d: Decomposition) -> Mat:
    return _replay_as(Flavor.IDEM_Q, Side.CORE, a, e, d)


def core_from_t(a: Mat, e: Weight, t: Mat, n: int = 1) -> Mat:
    return _replay(a, e, Flavor.ELEM_T, Side.CORE, t, n, None)


def dual_from_pu(a: Mat, f: Weight, d: Decomposition) -> Mat:
    return _replay_as(Flavor.IDEM_P, Side.DUAL, a, f, d)


def dual_from_s(a: Mat, f: Weight, s: Mat, n: int = 1) -> Mat:
    return _replay(a, f, Flavor.ELEM_S, Side.DUAL, s, n, None)


def dual_from_qw(a: Mat, f: Weight, d: Decomposition) -> Mat:
    return _replay_as(Flavor.IDEM_Q, Side.DUAL, a, f, d)


def dual_from_t(a: Mat, f: Weight, t: Mat, n: int = 1) -> Mat:
    return _replay(a, f, Flavor.ELEM_T, Side.DUAL, t, n, None)


def _gram_value(a: _Instance, e: Weight, p: Mat) -> Mat | None:
    """(a* e a + e p)^{-1} a* e, or None when the Gram matrix is singular."""
    ae, gram = a.gram(e)
    gram_inv = (gram + e.value * p).inverse()
    return None if gram_inv is None else gram_inv * ae


def gram_formula(a: Mat, e: Weight) -> Mat | NotInvertible:
    """The weighted core inverse as (a* e a + e p)^{-1} a* e.

    Valid because matrix rings are Dedekind-finite; the Gram matrix is
    guaranteed invertible whenever the core inverse exists.
    """
    a = _instance(a)
    cert = _core(a, e, Side.CORE)
    if isinstance(cert, NotInvertible):
        return cert
    value = _weighted(a, "gram_formula", lambda: _gram_value(a, e, _idempotent(a, e, Side.CORE)), e)
    if value is None:
        raise RuntimeError("internal error: Gram matrix must be invertible here")
    if value != cert.value:
        raise RuntimeError("internal error: Gram formula disagrees with direct construction")
    return value


def dual_gram_formula(a: Mat, f: Weight) -> Mat | NotInvertible:
    """The weighted dual core inverse f^{-1} a* (a f^{-1} a* + q f^{-1})^{-1}, mirrored."""
    return _transport(gram_formula, _instance(a), f)


def gram_converse_check(a: Mat, e: Weight, p: Mat) -> bool:
    """Whether a* e a + e p is invertible for a valid annihilating idempotent p.

    A positive answer certifies core invertibility (Dedekind-finiteness of the
    matrix ring), and the recovered inverse is checked against the direct one.
    """
    a = _instance(a)
    a._compat(p)
    _validate_element(a, e, p, 1, Flavor.IDEM_P, Side.CORE, None)
    recovered = _gram_value(a, e, p)
    if recovered is None:
        return False
    cert = _core(a, e, Side.CORE)
    if isinstance(cert, NotInvertible) or cert.value != recovered:
        raise RuntimeError(
            "internal error: invertible Gram matrix must certify the core inverse"
        )
    return True


def is_weighted_ep(a: Mat, e: Weight, f: Weight) -> EPReport:
    """Weighted-EP test: both weighted core inverses exist and coincide."""
    a = _instance(a)  # both share a^#
    ec = _core(a, e, Side.CORE)
    fc = _core(a, f, Side.DUAL)
    ok = (
        not isinstance(ec, NotInvertible)
        and not isinstance(fc, NotInvertible)
        and ec.value == fc.value
    )
    p = None
    if ok:
        # a^# a is held, and a a^# is the a·x that certified the common value a^#
        projector = a.projector()
        if a._products(ec.witnesses["group_inverse"]).get("ax") != projector:
            raise RuntimeError("internal error: group inverse must commute with a")
        p = Mat.identity(a.field, a.n) - projector
    return EPReport(ok, ec, fc, p)


def ep_decompose(a: Mat, e: Weight, f: Weight, n: int = 1) -> Decomposition | NotInvertible:
    """The idempotent certificate p = 1 - a^# a of a weighted-EP element.

    The returned core-side certificate's element additionally satisfies the
    dual-side conditions: (f p)* = f p and a p = 0.
    """
    _check_n(n)
    a = _instance(a)
    if not is_weighted_ep(a, e, f):
        return NotInvertible("ep", "ep", "a is not weighted-EP for these weights")
    # 1 - a a^{e-core} = 1 - a^# a, the dual side's idempotent for f as well
    d = _decompose(a, e, n, Flavor.IDEM_P, Side.CORE)
    with _built():
        _validate_element(a, f, d.element, n, Flavor.IDEM_P, Side.DUAL, None)
    return d


def ep_from_s(a: Mat, e: Weight, f: Weight, s: Mat, n: int = 1) -> Mat:
    """Certify weighted-EP from a two-sided element witness; returns the common inverse.

    Requires (e s)* = e s, (f s)* = f s, a s = s a = 0 and a^n + s invertible;
    the core and dual replays check these (InvalidCertificateError) and then
    coincide because a commutes with the unit, which is checked exactly.
    """
    a = _instance(a)
    core_value = core_from_s(a, e, s, n)
    dual_value = dual_from_s(a, f, s, n)
    if core_value != dual_value:
        raise RuntimeError("internal error: two-sided witness must give one inverse")
    return core_value


def uniqueness_audit(a: Mat, e: Weight, n: int, flavor: Flavor) -> bool:
    """Audit the uniqueness of the idempotent certificate.

    On prime-field backends this enumerates every idempotent satisfying the
    clause and demands exactly one. On exact rational backends it verifies the
    annihilator identity behind the uniqueness argument: left annihilators of
    a^n and of 1 - p coincide. Since v x = 0 constrains the columns of x, the
    left annihilators of x lie in those of y exactly when y is in x R, so the
    identity is two consistency checks of the solver.
    """
    _check_n(n)
    flavor = Flavor(flavor)
    if flavor not in (Flavor.IDEM_P, Flavor.IDEM_Q):
        raise ValueError("uniqueness_audit applies to idempotent flavors only")
    a = _instance(a)
    if a.field.tag == "Fp":
        return len(brute_idempotent_certificates(a, e, n, flavor)) == 1
    d = decompose_idempotent(a, e, n) if flavor is Flavor.IDEM_P else decompose_q(a, e, n)
    if isinstance(d, NotInvertible):
        raise ValueError("uniqueness_audit requires a weighted-core-invertible matrix")
    an = a.power(n)
    complement = Mat.identity(a.field, a.n) - d.element
    return solve_right(an, complement).consistent and solve_right(complement, an).consistent


def random_annihilator_witness(
    a: Mat,
    w: Weight,
    n: int,
    seed: int,
    side: Side = Side.CORE,
    flavor: Flavor = Flavor.ELEM_S,
) -> Mat:
    """A random element witness for the element-flavored clauses.

    Core side: (w s)* = w s and s a = 0; dual side: (w s)* = w s and a s = 0.
    Sampled as a weight-symmetrized compression h -> p h p into the range of
    the canonical annihilating idempotent, retried until the flavor's unit is
    invertible. Typically not idempotent.
    """
    _check_n(n)
    side, flavor = Side(side), Flavor(flavor)
    if flavor not in (Flavor.ELEM_S, Flavor.ELEM_T):
        raise ValueError("witness generation applies to element flavors only")
    a = _instance(a)
    p = _idempotent(a, w, side)
    if isinstance(p, NotInvertible):
        raise ValueError("witness generation requires an invertible core instance")
    rng = _random.Random(seed)
    for _ in range(_WITNESS_TRIES):
        h = _rand_mat(rng, a.n, a.field)
        m = w.value * p * h * p
        s = w.inv * (m + m.star())
        unit = unit_for(a, s, n, flavor, side)
        if unit.is_invertible():
            return s
    raise RuntimeError(f"witness generation failed after {_WITNESS_TRIES} attempts")


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "flavor": d.flavor.value,
        "side": d.side.value,
        "n": d.n,
        "element": mat_to_json(d.element),
        "unit": mat_to_json(d.unit),
    }


def decomposition_from_json(obj) -> Decomposition:
    if not isinstance(obj, dict):
        raise ValueError("decomposition must be a JSON object")
    try:
        flavor = Flavor(obj["flavor"])
        side = Side(obj["side"])
        n = obj["n"]
        element = mat_from_json(obj["element"])
        unit = mat_from_json(obj["unit"])
    except KeyError as exc:
        raise ValueError(f"decomposition missing field {exc}") from exc
    _check_n(n)
    return Decomposition(flavor, side, element, unit, n)
