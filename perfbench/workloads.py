"""The three benchmark workloads: input generation, one op each, and its checks.

Every workload builds a pool of ops from the seed. The pool is made of pass
blocks: each block holds the same fixed list of slots (dimension, instance
class, rank, operation), filled with fresh seeded instances and shuffled
within the block (the oracle sweep is one block, in enumeration order). A run
executes the pool in order, wrapping around, and stops at the first block
boundary after its time is up, so every run measures whole blocks: the op mix,
and with it the figures, stay the same from run to run.

Checks run after the timed loop and use routes that do not go through the
solver: ranks from the benchmark's own elimination decide existence, the
defining equations are evaluated with the benchmark's own matrix product,
and the construction's generator supplies the ground truth.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import random

import coreinv as ci
import coreinv.cli as ci_cli
from coreinv.oracle import iter_invertible_symmetric

QI_CTORS = (
    "group_inverse",
    "inv_13e",
    "inv_14f",
    "weighted_mp",
    "e_core",
    "f_dual_core",
    "e_core_via_power",
    "f_dual_core_via_power",
)
# each instance gets one pair, so the two routes to one inverse meet on one input
QI_PAIRS = (
    ("e_core", "e_core_via_power"),
    ("f_dual_core", "f_dual_core_via_power"),
    ("group_inverse", "weighted_mp"),
    ("inv_13e", "inv_14f"),
)
QI_BLOCKS = 3
Q_BLOCKS = 4
# weights per dimension; a pool wide enough that no one weight's entry size sets a run's pace
QI_WEIGHTS = 16
Q_WEIGHTS = 8
F3_TRACE_OPS = 18 * 27

# ---------------------------------------------------------------- own algebra
# Row-tuple matrices with the field's scalars; no Mat product, no solve.


def _mm(x, y):
    cols = tuple(zip(*y))
    return tuple(tuple(sum(u * v for u, v in zip(row, col)) for col in cols) for row in x)


def _star(x, field):
    return tuple(tuple(field.conj(v) for v in col) for col in zip(*x))


def _eye(field, n):
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _sub(x, y):
    return tuple(tuple(u - v for u, v in zip(rx, ry)) for rx, ry in zip(x, y))


def _add(x, y):
    return tuple(tuple(u + v for u, v in zip(rx, ry)) for rx, ry in zip(x, y))


def _pow(x, k, field):
    acc = _eye(field, len(x))
    for _ in range(k):
        acc = _mm(acc, x)
    return acc


def _rank(x):
    m = [list(r) for r in x]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[rank])]
        rank += 1
    return rank


def _equations_hold(kind, a, x, e, f, field):
    """The defining equations of `kind`, evaluated with the benchmark's product."""
    ax, xa = _mm(a, x), _mm(x, a)

    def herm(m):
        return _star(m, field) == m

    eq = {
        "(1)": lambda: _mm(ax, a) == a,
        "(2)": lambda: _mm(xa, x) == x,
        "(3e)": lambda: herm(_mm(e, ax)),
        "(4f)": lambda: herm(_mm(f, xa)),
        "(5)": lambda: ax == xa,
        "(6)": lambda: _mm(xa, a) == a,
        "(7)": lambda: _mm(ax, x) == x,
        "(8)": lambda: _mm(a, ax) == a,
        "(9)": lambda: _mm(x, xa) == x,
    }
    labels = {
        "group": ("(1)", "(2)", "(5)"),
        "13e": ("(1)", "(3e)"),
        "14f": ("(1)", "(4f)"),
        "wmp": ("(1)", "(2)", "(3e)", "(4f)"),
        "ecore": ("(1)", "(2)", "(3e)", "(6)", "(7)"),
        "fdual": ("(1)", "(2)", "(4f)", "(8)", "(9)"),
    }[kind]
    return all(eq[label]() for label in labels)


class Truth:
    """Independent existence verdicts for one (a, e, f), from ranks alone."""

    def __init__(self, a, e, f):
        self.field = a.field
        self.a, self.e, self.f = a.rows, e.value.rows, f.value.rows
        self._finv = f.inv.rows
        if _mm(self.f, self._finv) != _eye(self.field, a.n):
            raise AssertionError("weight inverse is wrong")
        self._astar = _star(self.a, self.field)
        self._r = _rank(self.a)
        self._memo = {}

    def _full(self, key, make):
        """Whether the product `make()` keeps the rank of a (memoised by key)."""
        if key not in self._memo:
            self._memo[key] = _rank(make()) == self._r
        return self._memo[key]

    @property
    def group(self):
        return self._full("a^2", lambda: _mm(self.a, self.a))

    @property
    def i13e(self):
        return self._full("a*ea", lambda: _mm(_mm(self._astar, self.e), self.a))

    @property
    def i14f(self):
        return self._full("af^-1a*", lambda: _mm(_mm(self.a, self._finv), self._astar))

    def exists(self, ctor, n=None):
        if ctor == "group_inverse":
            return self.group
        if ctor == "inv_13e":
            return self.i13e
        if ctor == "inv_14f":
            return self.i14f
        if ctor == "weighted_mp":
            return self.i13e and self.i14f
        if ctor == "e_core":
            return self.group and self.i13e
        if ctor == "f_dual_core":
            return self.group and self.i14f
        field, a = self.field, self.a
        if not self._full(f"a^{n}", lambda: _pow(a, n, field)):
            return False
        sn = _pow(self._astar, n, field)
        if ctor == "e_core_via_power":
            return self._full(f"(a*)^{n}ea", lambda: _mm(_mm(sn, self.e), a))
        if ctor == "f_dual_core_via_power":
            return self._full(f"af^-1(a*)^{n}", lambda: _mm(_mm(a, self._finv), sn))
        raise ValueError(ctor)

    def holds(self, kind, x):
        return _equations_hold(kind, self.a, x, self.e, self.f, self.field)


KIND_OF = {
    "group_inverse": "group",
    "inv_13e": "13e",
    "inv_14f": "14f",
    "weighted_mp": "wmp",
    "e_core": "ecore",
    "f_dual_core": "fdual",
    "e_core_via_power": "ecore",
    "f_dual_core_via_power": "fdual",
}

# ----------------------------------------------------------------- generation


def _weights(rng, field, dims, definite_pattern):
    out = {}
    for dim in dims:
        out[dim] = [
            ci.random_weight(dim, field, rng.randrange(2**31), definite=d)
            for d in definite_pattern
        ]
    return out


def _ep_instance(dim, w, rank, rng):
    """a = w^-1 h with h symmetric of the given rank: w-selfadjoint, so weighted-EP for e = f = w."""
    field = ci.QQ
    while True:
        b = ci.random_mat(dim, field, rng.randrange(2**31))
        if b.inverse() is not None:
            break
    r = rank
    d = ci.Mat(field, [[1 if i == j and i < r else 0 for j in range(dim)] for i in range(dim)])
    return w.inv * (b.star() * d * b)


def generate(workload, seed, workdir):
    """Build the inputs of one run; returns a JSON-ready dict. Writes CLI files under workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "qi-construct":
        return _gen_qi(rng)
    if workload == "q-characterize":
        return _gen_q(rng, workdir)
    if workload == "f3-oracle":
        return _gen_f3(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _gen_qi(rng):
    dims = (4, 6, 8)
    field = ci.QI
    weights = _weights(rng, field, dims, (True, False) * (QI_WEIGHTS // 2))
    wlist, widx = [], {}
    for dim in dims:
        for k, w in enumerate(weights[dim]):
            widx[dim, k] = len(wlist)
            wlist.append(ci.weight_to_json(w))
    # dim 8 holds half as many instances as dims 4 and 6: it costs about 4x more per op
    classes = {4: ("gi", "gi", "gi", "ngi"), 6: ("gi", "gi", "gi", "ngi"), 8: ("gi", "ngi")}
    instances, ops = [], []
    count = dict.fromkeys(dims, 0)
    for _ in range(QI_BLOCKS):
        block = []
        for dim in dims:
            for slot, cls in enumerate(classes[dim]):
                for pair in QI_PAIRS:
                    # weights rotate through the pool: e and f alternate definite/indefinite
                    c = count[dim] = count[dim] + 1
                    s = rng.randrange(2**31)
                    if cls == "gi":
                        a = ci.random_group_invertible(dim, field, s, rank=dim - 1 - slot)
                    else:
                        a = ci.random_non_group_invertible(dim, field, s)
                    i = len(instances)
                    instances.append({
                        "a": ci.mat_to_json(a),
                        "e": widx[dim, c % QI_WEIGHTS],
                        "f": widx[dim, (c + 5) % QI_WEIGHTS],
                        "cls": cls,
                        "dim": dim,
                    })
                    n = 2 + slot % 2
                    block.extend({"k": "ctor", "ctor": ctor, "i": i, "n": n} for ctor in pair)
        rng.shuffle(block)
        ops.extend(block)
    warmup = {"k": "ctor", "ctor": "group_inverse", "i": 0, "n": 2}
    block = len(ops) // QI_BLOCKS
    return {"weights": wlist, "instances": instances, "ops": ops, "warmup": warmup,
            "block": block, "trace_ops": block}


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _gen_q(rng, workdir):
    dims = (2, 4, 8)
    field = ci.QQ
    weights = _weights(rng, field, dims, (True,) * Q_WEIGHTS)
    wlist, widx = [], {}
    for dim in dims:
        for k, w in enumerate(weights[dim]):
            widx[dim, k] = len(wlist)
            wlist.append(ci.weight_to_json(w))
            _write(workdir, f"w{widx[dim, k]}.json", wlist[-1])
    instances, certs, ops = [], [], []

    def cert(obj):
        certs.append(obj)
        return len(certs) - 1

    # dim 2 has one weighted-EP instance fewer, which puts the median op among the
    # dim-4 decompositions and Gram formulas, away from a gap in the latencies
    classes = {2: ("ep", "gi", "ngi"), 4: ("ep", "ep", "gi", "ngi"), 8: ("ep", "ep", "gi", "ngi")}
    count = dict.fromkeys(dims, 0)
    for _ in range(Q_BLOCKS):
        block = []
        for dim in dims:
            for slot, cls in enumerate(classes[dim]):
                s = rng.randrange(2**31)
                c = count[dim] = count[dim] + 1
                le, lf = c % Q_WEIGHTS, c % Q_WEIGHTS if cls == "ep" else (c + 3) % Q_WEIGHTS
                e, f = weights[dim][le], weights[dim][lf]
                ei, fi = widx[dim, le], widx[dim, lf]
                # fixed ranks per slot: the rank sets much of an instance's cost
                rank = max(1, dim - 1 - slot * dim // 4)
                if cls == "ep":
                    a = _ep_instance(dim, e, rank, rng)
                elif cls == "gi":
                    a = ci.random_group_invertible(dim, field, s, rank=rank)
                else:
                    a = ci.random_non_group_invertible(dim, field, s)
                i = len(instances)
                apath = _write(workdir, f"a{i}.json", ci.mat_to_json(a))
                epath = os.path.join(workdir, f"w{ei}.json")
                fpath = os.path.join(workdir, f"w{fi}.json")
                instances.append({"a": ci.mat_to_json(a), "e": ei, "f": fi, "cls": cls, "dim": dim})
                n = 1 + (slot + dim) % 3
                block.append({"k": "ep", "i": i})
                block.append({"k": "decompose_p", "i": i, "n": n})
                block.append({"k": "gram", "i": i})
                if cls == "ngi":
                    block.append({"k": "ep_decompose", "i": i, "n": n})
                    block.append({"k": "cli", "i": i,
                                  "argv": ["compute", "--kind", "ecore", "--a", apath, "--e", epath]})
                    continue
                block.append({"k": "dual_decompose", "i": i, "n": n, "flavor": "pq"[slot % 2]})
                block.append({"k": "dual_gram", "i": i})
                witness_seed = rng.randrange(2**31)
                if cls == "ep":
                    dp = ci.decompose_idempotent(a, e, n)
                    ddq = ci.dual_decompose(a, f, n, ci.Flavor.IDEM_Q)
                    block.append({"k": "ep_decompose", "i": i, "n": n})
                    block.append({"k": "decompose_q", "i": i, "n": n})
                    block.append({"k": "replay", "i": i, "c": cert(ci.decomposition_to_json(dp))})
                    block.append({"k": "replay", "i": i, "c": cert(ci.decomposition_to_json(ddq))})
                    block.append({"k": "witness", "i": i, "n": n, "side": "core",
                                  "flavor": "s", "seed": witness_seed})
                    bad = ci.decomposition_to_json(dp)
                    bad["unit"] = ci.mat_to_json(dp.unit + ci.Mat.identity(field, dim))
                    block.append({"k": "replay", "i": i, "c": cert(bad), "tampered": True})
                    block.append({"k": "cli", "i": i,
                                  "argv": ["ep", "--a", apath, "--e", epath, "--f", fpath]})
                    cpath = _write(workdir, f"c{i}.json", ci.decomposition_to_json(dp))
                    block.append({"k": "cli", "i": i, "argv": ["verify", "--a", apath,
                                                              "--cert", cpath, "--e", epath]})
                else:
                    dq = ci.decompose_q(a, e, n)
                    ddp = ci.dual_decompose(a, f, n, ci.Flavor.IDEM_P)
                    block.append({"k": "replay", "i": i, "c": cert(ci.decomposition_to_json(dq))})
                    block.append({"k": "replay", "i": i, "c": cert(ci.decomposition_to_json(ddp))})
                    block.append({"k": "witness", "i": i, "n": n, "side": "dual",
                                  "flavor": "t", "seed": witness_seed})
                    block.append({"k": "cli", "i": i, "argv": ["compute", "--kind", "fdual",
                                                              "--a", apath, "--f", fpath]})
                    cpath = _write(workdir, f"c{i}.json",
                                   ci.certificate_to_json(ci.e_core(a, e)))
                    block.append({"k": "cli", "i": i, "argv": ["verify", "--a", apath,
                                                              "--cert", cpath, "--e", epath]})
        rng.shuffle(block)
        ops.extend(block)
    warmup = {"k": "ep", "i": 0}
    block = len(ops) // Q_BLOCKS
    return {"weights": wlist, "instances": instances, "certs": certs, "ops": ops,
            "warmup": warmup, "block": block, "trace_ops": block}


def _gen_f3(rng):
    p, dim = 3, 2
    space = [[list(r) for r in m] for m in ci.EnumerationSpace(p, dim).matrices()]
    weights = [[list(r) for r in w] for w in iter_invertible_symmetric(p, dim)]
    sweep = [(ai, wi) for ai in range(len(space)) for wi in range(len(weights))]
    start = rng.randrange(len(sweep))
    order = sweep[start:] + sweep[:start]

    def enc(raw):
        return {"backend": "Fp", "p": p, "dim": dim, "entries": [[str(v) for v in r] for r in raw]}

    ops = [{"k": "cross_check", "a": ai, "w": wi} for ai, wi in order]
    return {"mats": [enc(m) for m in space], "weights": [enc(w) for w in weights],
            "ops": ops, "warmup": ops[0], "block": len(ops), "trace_ops": F3_TRACE_OPS}


# -------------------------------------------------------------- decode + ops


class Inputs:
    """Decoded inputs: the part of set-up that a user of coreinv pays too."""

    def __init__(self, data):
        self.ops = data["ops"]
        self.warmup = data["warmup"]
        self.block = data["block"]
        self.trace_ops = data["trace_ops"]
        self.weights = [ci.weight_from_json(w) for w in data["weights"]]
        self.mats = [ci.mat_from_json(m) for m in data.get("mats", ())]
        self.instances = [
            (ci.mat_from_json(inst["a"]), self.weights[inst["e"]], self.weights[inst["f"]])
            for inst in data.get("instances", ())
        ]
        self.meta = data.get("instances", ())
        self.certs = [ci.decomposition_from_json(c) for c in data.get("certs", ())]


_REPLAY = {
    ("p", "core"): "core_from_pu",
    ("q", "core"): "core_from_qw",
    ("p", "dual"): "dual_from_pu",
    ("q", "dual"): "dual_from_qw",
}


def execute(inp, op):
    """Run one op; returns its output object. Calls go through module attributes."""
    k = op["k"]
    if k == "cross_check":
        w = inp.weights[op["w"]]
        return ci.cross_check(inp.mats[op["a"]], w, w, n=2)
    a, e, f = inp.instances[op["i"]]
    if k == "ctor":
        ctor = op["ctor"]
        fn = getattr(ci, ctor)
        if ctor == "group_inverse":
            r = fn(a)
        elif ctor in ("inv_13e", "e_core"):
            r = fn(a, e)
        elif ctor in ("inv_14f", "f_dual_core"):
            r = fn(a, f)
        elif ctor == "weighted_mp":
            r = fn(a, e, f)
        else:
            r = fn(a, e if ctor.startswith("e_") else f, op["n"])
        if isinstance(r, ci.NotInvertible):
            text = json.dumps(ci.not_invertible_to_json(r))
            return r, json.loads(text)
        text = json.dumps(ci.certificate_to_json(r))
        return r, ci.certificate_from_json(json.loads(text))
    if k == "ep":
        return ci.is_weighted_ep(a, e, f)
    if k == "ep_decompose":
        return ci.ep_decompose(a, e, f, op["n"])
    if k == "decompose_p":
        return ci.decompose_idempotent(a, e, op["n"])
    if k == "decompose_q":
        return ci.decompose_q(a, e, op["n"])
    if k == "dual_decompose":
        return ci.dual_decompose(a, f, op["n"], ci.Flavor(op["flavor"]))
    if k == "gram":
        return ci.gram_formula(a, e)
    if k == "dual_gram":
        return ci.dual_gram_formula(a, f)
    if k == "replay":
        d = inp.certs[op["c"]]
        w = e if d.side is ci.Side.CORE else f
        try:
            return getattr(ci, _REPLAY[d.flavor.value, d.side.value])(a, w, d)
        except ci.InvalidCertificateError as exc:
            return exc
    if k == "witness":
        side = ci.Side(op["side"])
        w = e if side is ci.Side.CORE else f
        flavor = ci.Flavor(op["flavor"])
        s = ci.random_annihilator_witness(a, w, op["n"], op["seed"], side=side, flavor=flavor)
        name = ("core_from_" if side is ci.Side.CORE else "dual_from_") + flavor.value
        return getattr(ci, name)(a, w, s, op["n"])
    if k == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ci_cli.main(op["argv"])
        return code, out.getvalue()
    raise ValueError(f"unknown op kind {k!r}")


# ---------------------------------------------------------------- canonical


def canonical(out):
    """A deterministic text form of an op's output, for repeat checks and the digest."""
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[0], int):
        return f"exit {out[0]} {out[1]}"
    if isinstance(out, tuple):
        out = out[0]
    if isinstance(out, ci.NotInvertible):
        return json.dumps(ci.not_invertible_to_json(out), sort_keys=True)
    if isinstance(out, ci.InverseCertificate):
        return json.dumps(ci.certificate_to_json(out), sort_keys=True)
    if isinstance(out, ci.Mat):
        return json.dumps(ci.mat_to_json(out), sort_keys=True)
    if isinstance(out, ci.Decomposition):
        return json.dumps(ci.decomposition_to_json(out), sort_keys=True)
    if isinstance(out, ci.EPReport):
        return "ep " + json.dumps([
            out.weighted_ep, canonical(out.e_core), canonical(out.f_dual_core),
            None if out.p is None else ci.mat_to_json(out.p),
        ])
    if isinstance(out, Exception):
        return f"rejected {type(out).__name__}: {out}"
    if isinstance(out, dict):
        return json.dumps(out, sort_keys=True)
    raise TypeError(f"no canonical form for {type(out).__name__}")


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# -------------------------------------------------------------------- checks


class Checker:
    """Checks each op's output against routes that avoid the solver paths."""

    def __init__(self, inp):
        self.inp = inp
        self._truth = {}
        self._direct = {}
        self._routes = {}
        # per-instance results are dropped once all of the instance's ops are checked
        self._left = collections.Counter(op["i"] for op in inp.ops if "i" in op)

    def check(self, op, out):
        """Raise AssertionError when the output is wrong."""
        try:
            self._check(op, out)
        finally:
            i = op.get("i")
            if i is not None:
                self._left[i] -= 1
                if not self._left[i]:
                    self._truth.pop(i, None)
                    self._direct.pop(i, None)
                    for key in [k for k in self._routes if k[0] == i]:
                        del self._routes[key]

    def truth(self, i):
        if i not in self._truth:
            a, e, f = self.inp.instances[i]
            t = Truth(a, e, f)
            cls = self.inp.meta[i]["cls"]
            if t.group != (cls != "ngi"):
                raise AssertionError(f"generator ground truth broken for {cls} instance")
            self._truth[i] = t
        return self._truth[i]

    def direct(self, i):
        """Both weighted core inverses of instance i, each confirmed by its equations."""
        if i not in self._direct:
            a, e, f = self.inp.instances[i]
            t = self.truth(i)
            values = []
            for ctor, fn, w in (("e_core", ci.e_core, e), ("f_dual_core", ci.f_dual_core, f)):
                r = fn(a, w)
                if isinstance(r, ci.NotInvertible) == t.exists(ctor):
                    raise AssertionError(f"{ctor} existence disagrees with ranks")
                if r and not t.holds(KIND_OF[ctor], r.value.rows):
                    raise AssertionError(f"{ctor} fails its defining equations")
                values.append(None if isinstance(r, ci.NotInvertible) else r.value.rows)
            self._direct[i] = tuple(values)
        return self._direct[i]

    def _check(self, op, out):
        k = op["k"]
        if k == "cross_check":
            return self._check_oracle(op, out)
        i = op["i"]
        t = self.truth(i)
        a, e, f = self.inp.instances[i]
        field, n = a.field, a.n
        ident = _eye(field, n)
        cls = self.inp.meta[i]["cls"]
        if k == "ctor":
            return self._check_ctor(op, out, t, cls)
        core, dual = self.direct(i)
        if k == "ep":
            expected = core is not None and dual is not None and core == dual
            _require(out.weighted_ep == expected, "weighted-EP verdict")
            _require(cls != "ep" or out.weighted_ep, "EP instance not reported EP")
            _require(_value(out.e_core) == core, "EP report e-core value")
            _require(_value(out.f_dual_core) == dual, "EP report dual value")
            if expected:
                p = out.p.rows
                _require(p == _sub(ident, _mm(a.rows, core)), "EP idempotent")
                zero = _sub(ident, ident)
                _require(_mm(p, a.rows) == zero and _mm(a.rows, p) == zero,
                         "EP idempotent annihilates a")
            return
        if k == "ep_decompose":
            if not (core is not None and core == dual):
                _require(isinstance(out, ci.NotInvertible), "non-EP gave a decomposition")
                return
            p = _sub(ident, _mm(a.rows, core))
            _require(out.element.rows == p, "EP decomposition element")
            _require(out.unit.rows == _add(_pow(a.rows, op["n"], field), p), "EP unit")
            return
        if k in ("decompose_p", "decompose_q", "dual_decompose"):
            value = dual if k == "dual_decompose" else core
            if value is None:
                _require(isinstance(out, ci.NotInvertible), "decomposition without inverse")
                return
            an = _pow(a.rows, op["n"], field)
            if k == "dual_decompose":
                p = _sub(ident, _mm(value, a.rows))
                if op["flavor"] == "p":
                    unit = _add(an, p)
                else:
                    unit = _add(_mm(_sub(ident, p), an), p)
            else:
                p = _sub(ident, _mm(a.rows, value))
                unit = _add(an, p) if k == "decompose_p" else _add(_mm(an, _sub(ident, p)), p)
            _require(out.element.rows == p and out.unit.rows == unit, "decomposition")
            return
        if k in ("gram", "dual_gram"):
            value = core if k == "gram" else dual
            if value is None:
                _require(isinstance(out, ci.NotInvertible), "Gram formula without inverse")
            else:
                _require(out.rows == value, "Gram formula value")
            return
        if k == "replay":
            if op.get("tampered"):
                _require(isinstance(out, ci.InvalidCertificateError), "tampered certificate accepted")
                return
            d = self.inp.certs[op["c"]]
            value = core if d.side is ci.Side.CORE else dual
            _require(isinstance(out, ci.Mat) and out.rows == value, "replay value")
            return
        if k == "witness":
            value = core if op["side"] == "core" else dual
            _require(out.rows == value, "witness replay value")
            return
        if k == "cli":
            code, text = out
            _require(code == 0, f"cli exit {code}")
            obj = json.loads(text)
            cmd = op["argv"][0]
            if cmd == "compute":
                value = core if op["argv"][2] == "ecore" else dual
                if value is None:
                    _require(obj.get("invertible") is False, "cli negative")
                else:
                    _require(ci.mat_from_json(obj["value"]).rows == value, "cli value")
            elif cmd == "verify":
                _require(obj["ok"] is True, "cli verify")
            else:
                expected = core is not None and core == dual
                _require(obj["weighted_ep"] == expected, "cli ep verdict")
            return
        raise ValueError(f"unknown op kind {k!r}")

    def _check_ctor(self, op, out, t, cls):
        r, back = out
        ctor = op["ctor"]
        n = op["n"] if "via_power" in ctor else None
        exists = t.exists(ctor, n)
        if isinstance(r, ci.NotInvertible):
            _require(not exists, f"{ctor} negative but ranks say it exists")
            _require(back == ci.not_invertible_to_json(r), "negative round trip")
            if cls == "ngi" and ctor == "group_inverse":
                _require(r.failed in ("a^2R", "Ra^2"), "group negative label")
            if cls == "ngi" and ctor in ("e_core", "f_dual_core"):
                _require(r.failed == "group", "core negative label")
            return
        _require(exists, f"{ctor} positive but ranks say it does not exist")
        _require(back == r, "certificate round trip")
        # the direct and the power route must give one value: the first one checked is
        # held to the defining equations, the second one to equality with the first
        key = (op["i"], KIND_OF[ctor])
        if key in self._routes:
            _require(self._routes[key] == r.value.rows, "direct and power routes disagree")
            return
        _require(t.holds(KIND_OF[ctor], r.value.rows), f"{ctor} fails its equations")
        self._routes[key] = r.value.rows

    def _check_oracle(self, op, out):
        _require(out["ok"] is True, "oracle mismatch")
        _require(len(out["checks"]) == 6, "oracle check count")
        a = self.inp.mats[op["a"]].rows
        group = _rank(_mm(a, a)) == _rank(a)
        entry = out["checks"][0]
        _require(entry["kind"] == "group" and (entry["constructed"] is not None) == group,
                 "group verdict disagrees with ranks")


def _value(r):
    return None if isinstance(r, ci.NotInvertible) else r.value.rows


def _require(ok, what):
    if not ok:
        raise AssertionError(what)
