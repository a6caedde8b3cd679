"""Span tracing of calls into coreinv, installed from outside the package.

Each traced public function is replaced by one wrapper at every name it is
bound to: `ginverse`, `characterize`, `oracle` and `cli` import functions by
name, so patching only the defining module would miss most calls. Methods of
`Mat` are patched on the class. Spans (name, start, end, parent, op, note)
are kept in memory and written out when the run ends; self time is a span's
duration minus its child spans.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

import coreinv as ci
import coreinv.characterize
import coreinv.cli
import coreinv.ginverse
import coreinv.matrix
import coreinv.oracle
import coreinv.scalar

MODULES = (
    ci,
    coreinv.scalar,
    coreinv.matrix,
    coreinv.ginverse,
    coreinv.characterize,
    coreinv.oracle,
    coreinv.cli,
)

GINVERSE = {
    "group_inverse": "ginverse.group_inverse",
    "inv_13e": "ginverse.inv_13e",
    "inv_14f": "ginverse.inv_14f",
    "e_core": "ginverse.e_core",
    "f_dual_core": "ginverse.f_dual_core",
    "weighted_mp": "ginverse.weighted_mp",
    "e_core_via_power": "ginverse.via_power",
    "f_dual_core_via_power": "ginverse.via_power",
    "verify": "ginverse.verify",
}
CHARACTERIZE = {
    "is_weighted_ep": "characterize.is_weighted_ep",
    "ep_decompose": "characterize.decompose",
    "decompose_idempotent": "characterize.decompose",
    "decompose_q": "characterize.decompose",
    "dual_decompose": "characterize.decompose",
    "core_from_pu": "characterize.replay",
    "core_from_s": "characterize.replay",
    "core_from_qw": "characterize.replay",
    "core_from_t": "characterize.replay",
    "dual_from_pu": "characterize.replay",
    "dual_from_s": "characterize.replay",
    "dual_from_qw": "characterize.replay",
    "dual_from_t": "characterize.replay",
    "ep_from_s": "characterize.replay",
    "gram_formula": "characterize.gram",
    "dual_gram_formula": "characterize.gram",
    "random_annihilator_witness": "characterize.witness",
}
# an inner solve of solve_left or Mat.inverse is part of that call, not a call of its own
FOLDED = {("matrix.solve", "matrix.solve"), ("matrix.inverse", "matrix.solve")}
CTOR_SPANS = sorted({v for k, v in GINVERSE.items() if k != "verify"})

PER_LAYER = (
    ["scalar.entry_bits_max", "scalar.entry_bits_p50"]
    + ["matrix.mul.calls", "matrix.mul.self_s", "matrix.mul.scalar_mults"]
    + ["matrix.solve.calls", "matrix.solve.self_s", "matrix.solve.inconsistent"]
    + ["matrix.inverse.calls", "matrix.inverse.self_s"]
    + [f"{s}.{m}" for s in CTOR_SPANS for m in ("calls", "self_s", "negatives")]
    + [f"ginverse.verify.{m}" for m in ("calls", "self_s", "equations", "mul_calls")]
    + [f"characterize.{g}.{m}" for g in ("is_weighted_ep", "decompose", "replay", "gram", "witness")
       for m in ("calls", "self_s")]
    + ["characterize.replay.rejected", "characterize.group_inverse_per_ep",
       "characterize.core_calls_per_op"]
    + ["oracle.cross_check.calls", "oracle.cross_check.self_s"]
    + [f"oracle.brute.{m}" for m in ("calls", "self_s", "hits", "candidates")]
    + ["oracle.construct_s"]
    + [f"cli.main.{m}" for m in ("calls", "self_s", "exit_nonzero", "out_bytes")]
    + ["trace.overhead", "trace.ops", "trace.spans"]
)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("scalar.entry_bits"):
        return "bits"
    if metric.endswith("out_bytes"):
        return "bytes"
    if metric.endswith("_per_ep") or metric.endswith("_per_op"):
        return "calls/op"
    if metric == "trace.overhead":
        return "ratio"
    return "count"


class Tracer:
    """Records spans for calls made through the patched bindings."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, note]
        self.stack = [-1]
        self.op = -1
        self.paused = False
        self._restore = []

    def wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = clock()
                rec[5] = exc
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            rec[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every binding of every traced function; returns the number of bindings."""
        targets = []
        for fname, span in {**GINVERSE, **CHARACTERIZE}.items():
            targets.append((getattr(ci, fname), span, _keep))
        targets.append((coreinv.matrix.solve_right, "matrix.solve", _consistent))
        targets.append((coreinv.matrix.solve_left, "matrix.solve", _consistent))
        targets.append((ci.cross_check, "oracle.cross_check", _none))
        targets.append((ci.brute_solutions, "oracle.brute", _brute))
        targets.append((coreinv.cli.main, "cli.main", _keep))
        count = 0
        for fn, span, note in targets:
            wrapped = self.wrap(span, fn, note)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, fn))
                        count += 1
        for attr, span, note in (("__mul__", "matrix.mul", _dim), ("inverse", "matrix.inverse", _none)):
            fn = vars(ci.Mat)[attr]
            setattr(ci.Mat, attr, self.wrap(span, fn, note))
            self._restore.append((ci.Mat, attr, fn))
            count += 1
        return count

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, op, name, t0, t1]) + "\n")

    def metrics(self, n_ops, speed):
        """Aggregate the spans into the per-layer metrics; times are scaled by `speed(t)`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = [(s[2] - s[1] - c) * speed(s[1]) for s, c in zip(spans, child)]
        folded = [False] * len(spans)
        for i, (name, _, _, parent, _, _) in enumerate(spans):
            if parent >= 0 and (spans[parent][0], name) in FOLDED:
                folded[i] = True
                self_s[parent] += self_s[i]
        m = {k: 0 for k in PER_LAYER}
        bits = []
        ep_true, group_under_ep, cores = set(), 0, 0
        for i, (name, t0, t1, parent, op, note) in enumerate(spans):
            if folded[i]:
                continue
            m[name + ".calls"] = m.get(name + ".calls", 0) + 1
            m[name + ".self_s"] = m.get(name + ".self_s", 0.0) + self_s[i]
            pname = spans[parent][0] if parent >= 0 else None
            if isinstance(note, Exception):
                m["characterize.replay.rejected"] += (
                    name == "characterize.replay" and isinstance(note, ci.InvalidCertificateError)
                )
                continue
            if name == "matrix.mul":
                m["matrix.mul.scalar_mults"] += note ** 3
                if pname == "ginverse.verify":
                    m["ginverse.verify.mul_calls"] += 1
            elif name == "matrix.solve":
                m["matrix.solve.inconsistent"] += note is False
            elif name in CTOR_SPANS:
                m[name + ".negatives"] += isinstance(note, ci.NotInvertible)
                bits.extend(_entry_bits(note))
                if pname == "oracle.cross_check":
                    m["oracle.construct_s"] += (t1 - t0) * speed(t0)
                if name in ("ginverse.e_core", "ginverse.f_dual_core"):
                    cores += 1
            elif name == "ginverse.verify":
                m["ginverse.verify.equations"] += len(note.results)
            elif name.startswith("characterize."):
                bits.extend(_entry_bits(note))
                if name == "characterize.is_weighted_ep" and getattr(note, "weighted_ep", False):
                    ep_true.add(i)
            elif name == "oracle.brute":
                m["oracle.brute.hits"] += note[0]
                m["oracle.brute.candidates"] += note[1]
            elif name == "cli.main":
                m["cli.main.exit_nonzero"] += note != 0
        for name, _, _, parent, _, _ in spans:
            if name == "ginverse.group_inverse":
                j = parent
                while j >= 0 and j not in ep_true:
                    j = spans[j][3]
                group_under_ep += j >= 0
        m["characterize.group_inverse_per_ep"] = group_under_ep / len(ep_true) if ep_true else 0
        m["characterize.core_calls_per_op"] = cores / n_ops if n_ops else 0
        m["scalar.entry_bits_max"] = max(bits, default=0)
        m["scalar.entry_bits_p50"] = statistics.median(bits) if bits else 0
        m["trace.ops"] = n_ops
        m["trace.spans"] = len(spans)
        return {k: m[k] for k in PER_LAYER}


def _keep(args, kwargs, result):
    return result


def _none(args, kwargs, result):
    return None


def _consistent(args, kwargs, result):
    return result.consistent


def _dim(args, kwargs, result):
    return args[0].n


def _brute(args, kwargs, result):
    """Solutions found, and the candidates tried: computed, p^(n*n) or the sample size."""
    a = args[1] if len(args) > 1 else kwargs["a"]
    sample = args[4] if len(args) > 4 else kwargs.get("sample")
    return len(result), sample if sample is not None else a.field.p ** (a.n * a.n)


def _scalar_bits(v):
    if isinstance(v, Fraction):
        return abs(v.numerator).bit_length() + v.denominator.bit_length()
    if isinstance(v, ci.GaussianRational):
        return _scalar_bits(v.re) + _scalar_bits(v.im)
    return v.value.bit_length()


def _entry_bits(result):
    """Bit sizes (numerator plus denominator) of the entries of a returned matrix."""
    if isinstance(result, ci.InverseCertificate):
        mats = (result.value,)
    elif isinstance(result, ci.Mat):
        mats = (result,)
    elif isinstance(result, ci.Decomposition):
        mats = (result.element, result.unit)
    else:
        return ()
    return [_scalar_bits(v) for m in mats for row in m.rows for v in row]
