"""Construction and verification of generalized inverses over exact *-fields.

Six inverse kinds are supported: group, {1,3e}, {1,4f}, weighted Moore-Penrose,
weighted core (e-core) and weighted dual core (f-dual core). Every constructor
solves the defining membership equations for an explicit witness, re-verifies
the full defining-equation set of its kind on the result (each equation once
per distinct value on one instance of the matrix, see _instance), and returns
an InverseCertificate carrying both. The group and one-sided inverses that a
core, dual core or Moore-Penrose construction builds on are not certified by
themselves, since the result is. Non-existence is a typed negative result
(NotInvertible) naming the membership that failed, never an exception.

The dual side is the core side carried through the involution: x is a dual
inverse of (a, f) exactly when x* is the matching core inverse of (a*, f^{-1}),
so the dual constructors run the core-side builders on (a*, f^{-1}) and star
the result back before certifying it on their own equations.

Equation labels follow the standard numbering for weighted inverses:

    (1)  axa = a          (2)  xax = x         (5)  ax = xa
    (3e) (eax)* = eax     (4f) (fxa)* = fxa
    (6)  xa^2 = a         (7)  ax^2 = x
    (8)  a^2x = a         (9)  x^2a = x
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from operator import itemgetter

from .matrix import Mat, Weight, mat_from_json, mat_to_json, solve_left, solve_right
from .scalar import HELD_FACTS, _is_int

MAX_POWER = 8
# The bounds on the instances a thread holds across top-level calls (see _instance): this and HELD_FACTS.
HELD_MATRICES = 16
# What _Instance._fact finds for a key it does not hold: a fact may be None.
_ABSENT = object()


class GInverseKind(str, Enum):
    GROUP = "group"
    ONE_THREE_E = "13e"
    ONE_FOUR_F = "14f"
    WEIGHTED_MP = "wmp"
    E_CORE = "ecore"
    F_DUAL_CORE = "fdual"


@dataclass(frozen=True)
class InverseCertificate:
    """A verified inverse plus the membership witnesses that produced it."""

    kind: GInverseKind
    value: Mat
    witnesses: dict = dataclass_field(default_factory=dict)
    n: int | None = None


@dataclass(frozen=True)
class NotInvertible:
    """A negative result: which kind failed, on which requirement, and why."""

    kind: str
    failed: str
    reason: str

    def __bool__(self):
        return False


@dataclass(frozen=True)
class VerifyReport:
    """Per-equation outcome of checking a candidate against a kind's equations."""

    kind: GInverseKind
    results: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(map(_OUTCOME, self.results))

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(label for label, ok in self.results if not ok)

    def __bool__(self):
        return self.ok


EQUATIONS: dict[GInverseKind, tuple[str, ...]] = {
    GInverseKind.GROUP: ("(1)", "(2)", "(5)"),
    GInverseKind.ONE_THREE_E: ("(1)", "(3e)"),
    GInverseKind.ONE_FOUR_F: ("(1)", "(4f)"),
    GInverseKind.WEIGHTED_MP: ("(1)", "(2)", "(3e)", "(4f)"),
    GInverseKind.E_CORE: ("(1)", "(2)", "(3e)", "(6)", "(7)"),
    GInverseKind.F_DUAL_CORE: ("(1)", "(2)", "(4f)", "(8)", "(9)"),
}

_OUTCOME = itemgetter(1)
# One shared object per distinct (label, bool) outcome tuple: at most 2^5 per kind.
_OUTCOMES: dict[tuple, tuple] = {}
# The weights each kind's equations use: e serves (3e) and f serves (4f).
_USES = {kind: ("(3e)" in labels, "(4f)" in labels) for kind, labels in EQUATIONS.items()}

# Each label's predicate over the products of the value x that _Products holds.
# Exact associativity makes every route to a product the same matrix, so each
# decides its equation.
_PREDICATES = {
    "(1)": lambda a, x, p, e, f: p.get("axa") == a,
    "(2)": lambda a, x, p, e, f: p.get("xax") == x,
    "(3e)": lambda a, x, p, e, f: (e.value * p.get("ax")).is_hermitian(),
    "(4f)": lambda a, x, p, e, f: (f.value * p.get("xa")).is_hermitian(),
    "(5)": lambda a, x, p, e, f: _commute(p),
    "(6)": lambda a, x, p, e, f: p.get("xaa") == a,
    "(7)": lambda a, x, p, e, f: p.get("axx") == x,
    "(8)": lambda a, x, p, e, f: p.get("aax") == a,
    "(9)": lambda a, x, p, e, f: p.get("xxa") == x,
}


def _commute(p) -> bool:
    """Whether a x = x a, by the forms of the two products, as (5) decides it."""
    return p.get("ax") == p.get("xa")


# The one route of each product the labels read, from a, x and the products
# before it, whatever was read first. When a x = x a, x a^2 and a^2 x are the
# a x a of (1), and a x^2 and x^2 a the x a x of (2).
_ROUTES = {
    "ax": lambda p: p.a * p.x,
    "xa": lambda p: p.x * p.a,
    "axa": lambda p: p.get("ax") * p.a,
    "xax": lambda p: p.get("xa") * p.x,
    "xaa": lambda p: p.get("axa") if _commute(p) else p.get("xa") * p.a,
    "axx": lambda p: p.get("xax") if _commute(p) else p.get("ax") * p.x,
    "aax": lambda p: p.get("axa") if _commute(p) else p.a * p.get("ax"),
    "xxa": lambda p: p.get("xax") if _commute(p) else p.x * p.get("xa"),
}


class _Products:
    """One value x of a: the products verify's labels compare, each formed on its
    first read by its route in _ROUTES, and the outcomes, each evaluated at most once
    per weight value it uses, all in one dict: a product under its name, a label's
    outcome under its label (and its weight's form), a kind's (label, bool) pairs
    under its labels and its weights' forms. An outcome is kept only while the dict
    holds fewer than HELD_FACTS entries, so fresh weights cannot grow it without bound."""

    __slots__ = ("a", "x", "_known")

    def __init__(self, a: Mat, x: Mat):
        self.a, self.x, self._known = a, x, {}

    def get(self, name: str) -> Mat:
        m = self._known.get(name)
        if m is None:
            m = self._known[name] = _ROUTES[name](self)
        return m

    def outcomes(self, kind, a: _Instance, e: Weight | None, f: Weight | None) -> tuple:
        """The (label, bool) pairs of the kind's equations, for the weights it uses."""
        labels, known = EQUATIONS[kind], self._known  # labels: plain strs, never GC-tracked
        key = (labels, None if e is None else e.value.form, None if f is None else f.value.form)
        results = known.get(key)
        if results is None:
            pairs = []
            for label in labels:
                w = e if label == "(3e)" else f if label == "(4f)" else None
                held = label if w is None else (label, w.value.form)
                ok = known.get(held)
                if ok is None:
                    ok = _PREDICATES[label](a, self.x, self, e, f)
                    if len(known) < HELD_FACTS:
                        known[held] = ok
                pairs.append((label, ok))
            results = tuple(pairs)
            results = _OUTCOMES.setdefault(results, results)
            if len(known) < HELD_FACTS:
                known[key] = results
        return results


def verify(
    kind: GInverseKind,
    a: Mat,
    x: Mat,
    e: Weight | None = None,
    f: Weight | None = None,
) -> VerifyReport:
    """Evaluate every defining equation of `kind` for the candidate x exactly.

    On one instance of a (see _instance) each equation is evaluated once per
    value of x and of each weight, whatever kinds ask for it, on products
    formed once per value, each by one fixed route (see _Products). A weight the
    kind's equations do not use is ignored; one they use that is missing raises."""
    kind = kind if kind.__class__ is GInverseKind else GInverseKind(kind)  # a member: no enum call
    uses_e, uses_f = _USES[kind]
    if uses_e and e is None or uses_f and f is None:
        raise ValueError(f"kind {kind.value} requires the weight {'e' if uses_e and e is None else 'f'}")
    e, f = e if uses_e else None, f if uses_f else None
    for m in (x, e and e.value, f and f.value):  # before an outcome keyed by a form is read
        if m is not None and (m.field is not a.field or m.n != a.n):  # fields are shared objects
            a._compat(m)
    a = _instance(a)
    return VerifyReport(kind, a._products(x).outcomes(kind, a, e, f))


def _certified(
    kind, a: _Instance, built, e=None, f=None, n=None
) -> InverseCertificate | NotInvertible:
    """Certify a builder's (value, witnesses) on the kind's equations; negatives pass through."""
    if isinstance(built, NotInvertible):
        return built
    value, witnesses = built
    report = verify(kind, a, value, e=e, f=f)
    if not report.ok:
        raise RuntimeError(
            f"internal error: constructed {kind.value} inverse fails {report.failed}"
        )
    return InverseCertificate(kind, value, witnesses, n)


# Witness and negative names of the core-side builders, renamed for the dual
# side, where (3e), (6) and (7) become (4f), (8) and (9). Unlisted names are
# self-dual: a* is group invertible exactly when a is, and in a matrix ring
# a^2R and Ra^2 fail together, so the group labels keep their text.
_DUAL = {
    "ecore": "fdual",
    "13e": "14f",
    "inv_13e": "inv_14f",
    "x": "y",
    "s": "t",
    "Ra*ea": "af^-1a*R",
    "R(a*)^nea": "af^-1(a*)^nR",
    "Ra^n": "a^nR",
    "a not in R a* e a": "a not in a f^-1 a* R",
    "{1,3e} prerequisite failed: a not in R a* e a":
        "{1,4f} prerequisite failed: a not in a f^-1 a* R",
    **{f"a not in R (a*)^{n} e a": f"a not in a f^-1 (a*)^{n} R" for n in range(2, MAX_POWER + 1)},
    **{f"a not in R a^{n}": f"a not in a^{n} R" for n in range(2, MAX_POWER + 1)},
}


def _star_back(built, names=_DUAL):
    """Carry a core-side result on (a*, f^-1) back to the dual side of (a, f)."""
    if isinstance(built, NotInvertible):
        return NotInvertible(*(names.get(t, t) for t in (built.kind, built.failed, built.reason)))
    if isinstance(built, Mat):
        return built.star()
    value, witnesses = built
    return value.star(), {names.get(name, name): m.star() for name, m in witnesses.items()}


def _mirror(a: Mat, f: Weight):
    """(a*, f^-1), on which the dual side of (a, f) is built; f^-1 is not validated again."""
    return a.star(), f.inverse()


def _transport(build, a: Mat, f: Weight, *args):
    """The dual-side result build(a*, f^-1, ...)*."""
    return _star_back(build(*_mirror(a, f), *args))


class _Instance(Mat):
    """The matrix a as the constructions share it, within one top-level call and,
    while _instance holds it, across a thread's calls on an equal matrix.
    Its facts are kept in one table, shared with its mirror star(), the instance
    of a*, and keyed by the side each belongs to, its name and the form of the
    weight it depends on: the powers (a^2 among them), the memberships (see
    member), the projector a^# a and the group inverse, per weight w the Gram
    pair (a* w, a* w a) and the uncertified one-sided value, and the products
    and equation outcomes of each value (see verify). Each is formed on its
    first use by one fixed route, so it is worked out once per instance, and an
    equal weight under another object finds its facts.
    The mirror reads its powers, projector and group inverse off the core side:
    (a*)^k = (a^k)*, (a*)^# a* = (a^# a)* and (a*)^# = (a^#)*. Its one-sided
    value for f^-1 is the {1,4f} value of (a, f) before it is starred back, so
    inv_14f and the dual constructions share that entry.

    The instance of a keeps its mirror, which points back weakly, so the two form
    no cycle; a mirror kept past its core makes a fresh view of a over the same
    table. The table holds plain matrices only, and every product, a^2 = a·a
    included, takes the instance as its factor, never a: a call leaves nothing on
    the caller's a.
    """

    def __init__(self, a: Mat, facts: dict | None = None, back: _Instance | None = None):
        self.field, self.n, self.form = a.field, a.n, a.form
        self._facts = {} if facts is None else facts
        self._dual = back is not None and not back._dual
        self._back, self._mirror = back and weakref.ref(back), None

    def star(self) -> _Instance:
        back = self._back and self._back()
        if back is not None:
            return back
        if self._mirror is None:
            self._mirror = _Instance(super().star(), self._facts, self)
        return self._mirror

    def _fact(self, key, make, w: Weight | None = None):
        """make() once per instance for this side, key (a name or a value's form)
        and the form of the weight w, which is checked against a first: F_3 and
        F_5 forms are both tuples of ints. Hashing a form is a C tuple hash: about
        1 µs at dim 8 over Q(i), against about 340 µs for one product there."""
        if w is None:
            key = (self._dual, key)
        else:
            w = w.value
            if w.field is not self.field or w.n != self.n:
                self._compat(w)
            key = (self._dual, key, w.form)
        fact = self._facts.get(key, _ABSENT)
        if fact is _ABSENT:
            fact = self._facts[key] = make()
        return fact

    def power(self, k: int) -> Mat:
        if not _is_int(k) or k < 2:
            return super().power(k)
        if self._dual:  # (a*)^k = (a^k)*
            return self._fact(("power", k), lambda: self.star().power(k).star())
        return self._fact(("power", k), lambda: self.power(k - 1) * self)

    def _products(self, x: Mat) -> _Products:
        """The products and equation outcomes of the value x, one entry per form."""
        # a plain matrix of a's form, so that the entry does not point back here
        return self._fact(x.form, lambda: _Products(Mat._of(self.field, self.n, self.form), x))

    def member(self, side: str, route: tuple, w: Weight | None = None) -> Mat | None:
        """The witness y of a = y g (side "left": a in R g) or x of a = g x (side
        "right": a in g R), or None when a is not a member, solved once per side,
        route and weight value. The route ("power", k) gives g = a^k, and
        ("gram", n) gives g = (a*)^{n-1} (a* w a), formed on the Gram pair, so
        at n = 1 it is the Gram matrix itself."""

        def make():
            kind, k = route
            if kind == "power":
                g = self.power(k)
            else:
                g = self.gram(w)[1]
                if k > 1:
                    g = self.star().power(k - 1) * g
            return (solve_left if side == "left" else solve_right)(g, self).solution

        return self._fact(("member", side, route), make, w)

    def group_invertible(self) -> bool:
        """Whether a^# exists, from the one solve of a = a^2 x. Over a field a is in
        a^2 R exactly when rank a^2 = rank a, and so exactly when a is in R a^2,
        in R a^n and in a^n R for any n >= 2 (the ranks of the powers stop falling
        once two agree); a* is group invertible exactly when a is."""
        core = self.star() if self._dual else self
        return core.member("right", ("power", 2)) is not None

    def projector(self) -> Mat:
        """a^# a, for a group-invertible a: a x for the x of a = a^2 x, since
        a x = a^# a^2 x = a^# a. The mirror's is its star: (a*)^# a* = (a a^#)*."""
        if self._dual:
            return self.star().projector().star()
        return self._fact("projector", lambda: self * self.member("right", ("power", 2)))

    def group(self) -> Mat | NotInvertible:
        """a^# = (a^# a) x from the x of a = a^2 x, formed once: a^# a x = a^# a^# a
        = a^#."""
        if self._dual:  # (a*)^# = (a^#)*; a group negative keeps its text
            return _star_back(self.star().group(), {})
        return self._fact("group", lambda: _group(self))

    def one_sided(self, w: Weight):
        """The uncertified {1,3e} builder result (value, witnesses) for w; only the value is held."""
        value = self._fact("13e", lambda: _inv_13e(self, w), w)
        if isinstance(value, NotInvertible):
            return value
        return value, {"x": self.member("left", ("gram", 1), w)}

    def gram(self, w: Weight) -> tuple[Mat, Mat]:
        """The Gram pair (a* w, a* w a) of the weight w."""

        def make():
            aw = self.star() * w.value
            return aw, aw * self

        return self._fact("gram", make, w)


# Per thread, since an instance's entries are filled without a lock: each held
# instance, under itself as its key, least recently handed out first. A plain
# matrix finds the entry of its value, since `Mat.__eq__` and `__hash__` compare
# field and form, so no entry keeps a caller's object alive.
_held = threading.local()


def _instance(a: Mat) -> _Instance:
    """The instance every public entry point works on. An instance, passed down
    by a nested call, a mirror or a sweep, is its own. A plain matrix gets the instance
    this thread holds for its value, so the thread's top-level calls on that
    value share every fact, whichever equal object each passes (a decoded copy
    included); it gets a fresh one when the held one has more than HELD_FACTS
    facts, or when the thread holds none for the value. A thread holds at most
    HELD_MATRICES values and drops the one least recently handed out first.
    The bounds are checked here only, so between top-level calls."""
    if isinstance(a, _Instance):
        return a
    table = getattr(_held, "table", None)
    if table is None:
        table = _held.table = {}
    held = table.pop(a, None)
    if held is None or len(held._facts) > HELD_FACTS:
        held = _Instance(a)
    table[held] = held
    if len(table) > HELD_MATRICES:
        del table[next(iter(table))]
    return held


def _group(a: _Instance) -> Mat | NotInvertible:
    if not a.group_invertible():
        return NotInvertible(GInverseKind.GROUP.value, "a^2R", "a not in a^2 R")
    return a.projector() * a.member("right", ("power", 2))


def group_inverse(a: Mat) -> InverseCertificate | NotInvertible:
    """The group inverse a x^2, with the witnesses x of a = a^2 x and y of a = y a^2."""
    a = _instance(a)
    g = a.group()
    if isinstance(g, NotInvertible):
        return g
    witnesses = {"x": a.member("right", ("power", 2)), "y": a.member("left", ("power", 2))}
    if witnesses["y"] is None:
        raise RuntimeError("internal error: a in a^2 R must lie in R a^2")
    return _certified(GInverseKind.GROUP, a, (g, witnesses))


def _inv_13e(a: _Instance, e: Weight):
    x = a.member("left", ("gram", 1), e)
    if x is None:
        return NotInvertible(GInverseKind.ONE_THREE_E.value, "Ra*ea", "a not in R a* e a")
    return x.star() * e.value


def inv_13e(a: Mat, e: Weight) -> InverseCertificate | NotInvertible:
    """A {1,3e}-inverse x* e obtained from a witness of a = x (a* e a)."""
    a = _instance(a)
    return _certified(GInverseKind.ONE_THREE_E, a, a.one_sided(e), e=e)


def inv_14f(a: Mat, f: Weight) -> InverseCertificate | NotInvertible:
    """A {1,4f}-inverse f^{-1} y* with a = (a f^{-1} a*) y: the mirror inv_13e(a*, f^{-1})*."""
    a = _instance(a)
    return _certified(GInverseKind.ONE_FOUR_F, a, _transport(_Instance.one_sided, a, f), f=f)


def _e_core(a: _Instance, e: Weight):
    g = a.group()
    if isinstance(g, NotInvertible):
        return NotInvertible(GInverseKind.E_CORE.value, "group", f"group prerequisite failed: {g.reason}")
    i13 = a.one_sided(e)
    if isinstance(i13, NotInvertible):
        return NotInvertible(GInverseKind.E_CORE.value, "13e", f"{{1,3e}} prerequisite failed: {i13.reason}")
    return a.projector() * i13[0], {"group_inverse": g, "inv_13e": i13[0]}


def e_core(a: Mat, e: Weight) -> InverseCertificate | NotInvertible:
    """The weighted core inverse a^# a a^{(1,3e)}; exists iff both factors do."""
    a = _instance(a)
    return _certified(GInverseKind.E_CORE, a, _e_core(a, e), e=e)


def f_dual_core(a: Mat, f: Weight) -> InverseCertificate | NotInvertible:
    """The weighted dual core inverse a^{(1,4f)} a a^#: the mirror e_core(a*, f^{-1})*."""
    a = _instance(a)
    return _certified(GInverseKind.F_DUAL_CORE, a, _transport(_e_core, a, f), f=f)


def _check_n(n: int, least: int = 1):
    """Reject an n that is not an int (a bool is not) in least..MAX_POWER: every power's bound."""
    if not _is_int(n) or not least <= n <= MAX_POWER:
        raise ValueError(f"n must satisfy {least} <= n <= {MAX_POWER} as an int, got {n!r}")


def _e_core_via_power(a: _Instance, e: Weight, n: int):
    s = a.member("left", ("gram", n), e)
    if s is None:
        return NotInvertible(GInverseKind.E_CORE.value, "R(a*)^nea", f"a not in R (a*)^{n} e a")
    if not a.group_invertible():  # a in R a^n exactly when a in a^2 R
        return NotInvertible(GInverseKind.E_CORE.value, "Ra^n", f"a not in R a^{n}")
    return a.power(n - 1) * s.star() * e.value, {"s": s}


def e_core_via_power(a: Mat, e: Weight, n: int) -> InverseCertificate | NotInvertible:
    """The weighted core inverse through its power representation a^{n-1} s* e.

    Requires both memberships a in R (a*)^n e a (yielding the witness s) and
    a in R a^n; either failing is a certified negative.
    """
    _check_n(n, 2)
    a = _instance(a)
    return _certified(GInverseKind.E_CORE, a, _e_core_via_power(a, e, n), e=e, n=n)


def f_dual_core_via_power(a: Mat, f: Weight, n: int) -> InverseCertificate | NotInvertible:
    """The weighted dual core inverse through f^{-1} t* a^{n-1}, the mirror of the core path."""
    _check_n(n, 2)
    a = _instance(a)
    return _certified(
        GInverseKind.F_DUAL_CORE, a, _transport(_e_core_via_power, a, f, n), f=f, n=n
    )


def weighted_mp(a: Mat, e: Weight, f: Weight) -> InverseCertificate | NotInvertible:
    """The weighted Moore-Penrose inverse y a x with x = a^{(1,3e)} and y = a^{(1,4f)}.

    It exists iff x and y do: y a x always satisfies (1), (2), (3e) and (4f).
    """
    a = _instance(a)
    i13 = a.one_sided(e)
    if isinstance(i13, NotInvertible):
        return NotInvertible(
            GInverseKind.WEIGHTED_MP.value, "13e", f"{{1,3e}} prerequisite failed: {i13.reason}"
        )
    i14 = _transport(_Instance.one_sided, a, f)
    if isinstance(i14, NotInvertible):
        return NotInvertible(
            GInverseKind.WEIGHTED_MP.value, "14f", f"{{1,4f}} prerequisite failed: {i14.reason}"
        )
    x, y = i13[0], i14[0]
    built = (y * a * x, {"inv_13e": x, "inv_14f": y})
    return _certified(GInverseKind.WEIGHTED_MP, a, built, e=e, f=f)


def lemma_r_core_check(a: Mat, e: Weight, n: int) -> tuple[bool, bool]:
    """Two equivalent memberships, decided independently by exact solves.

    Returns (a in R a* e a and a in a^n R, a in R (a*)^n e a); the two booleans
    agree for every input, which the test suite asserts. Each membership is the
    instance's (see _Instance.member), the one the {1,3e} builder, the group
    inverse or the power route reads, so a call on a shared instance solves each
    once and forms no {1,3e} value.
    """
    _check_n(n, 2)
    a = _instance(a)
    first = (
        a.member("left", ("gram", 1), e) is not None
        and a.member("right", ("power", n)) is not None
    )
    return first, a.member("left", ("gram", n), e) is not None


def certificate_to_json(cert: InverseCertificate) -> dict:
    return {
        "kind": cert.kind.value,
        "value": mat_to_json(cert.value),
        "witnesses": {name: mat_to_json(m) for name, m in cert.witnesses.items()},
        "n": cert.n,
        "verified": True,
    }


def certificate_from_json(obj) -> InverseCertificate:
    if not isinstance(obj, dict):
        raise ValueError("certificate must be a JSON object")
    try:
        kind = GInverseKind(obj["kind"])
        value = mat_from_json(obj["value"])
        witnesses = obj.get("witnesses", {})
        if not isinstance(witnesses, dict):
            raise ValueError("certificate witnesses must be a JSON object")
        witnesses = {str(name): mat_from_json(m) for name, m in witnesses.items()}
    except KeyError as exc:
        raise ValueError(f"certificate missing field {exc}") from exc
    for m in witnesses.values():
        value._compat(m)
    n = obj.get("n")
    if n is not None:
        _check_n(n, 2)  # only the power routes record an n
    return InverseCertificate(kind, value, witnesses, n)


def not_invertible_to_json(neg: NotInvertible) -> dict:
    return {
        "invertible": False,
        "kind": neg.kind,
        "failed": neg.failed,
        "reason": neg.reason,
    }
