"""The table of instances a thread holds across calls (see ginverse._instance),
tested as a state machine: random interleavings of public calls over more
matrix values than a thread holds, passed as the pooled objects or as fresh
equal copies, with fresh equal weights, in this thread or in a second one that
keeps its own table. Each result must equal the same call run cold, on fresh
copies in a fresh thread."""

import threading
from concurrent.futures import ThreadPoolExecutor

from hypothesis import Phase, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from coreinv import (
    GF,
    QI,
    QQ,
    Flavor,
    Decomposition,
    GInverseKind,
    Mat,
    NotInvertible,
    Side,
    Weight,
    core_from_s,
    cross_check,
    decompose_idempotent,
    decompose_q,
    dual_decompose,
    dual_from_t,
    dual_gram_formula,
    e_core,
    e_core_via_power,
    ep_decompose,
    f_dual_core,
    f_dual_core_via_power,
    gram_formula,
    group_inverse,
    inv_13e,
    inv_14f,
    is_weighted_ep,
    mat_from_json,
    mat_to_json,
    random_annihilator_witness,
    random_group_invertible,
    random_mat,
    random_non_group_invertible,
    random_weight,
    replay,
    verify,
    weighted_mp,
)
from coreinv.ginverse import HELD_MATRICES
from conftest import cold_start

F3 = GF(3)


def _matrices(field, dim):
    """Seven values per field: group invertible ones of every rank, ones that
    are not, and random ones, which over Q(i) and F_3 are often either."""
    return [
        random_group_invertible(dim, field, seed=1),
        random_group_invertible(dim, field, seed=2, rank=dim - 1),
        random_group_invertible(dim, field, seed=3, rank=1),
        random_non_group_invertible(dim, field, seed=4),
        random_non_group_invertible(dim, field, seed=5),
        random_mat(dim, field, seed=6),
        random_mat(dim, field, seed=7),
    ]


def _weights(field, dim):
    return [
        Weight.identity(field, dim),
        random_weight(dim, field, seed=8, definite=True),
        random_weight(dim, field, seed=9),
    ]


# Per field one dimension; 21 matrix values in all, more than a thread holds.
DIMS = {QQ: 3, QI: 2, F3: 2}
POOLS = {field: (_matrices(field, dim), _weights(field, dim)) for field, dim in DIMS.items()}
assert len({m for mats, _ in POOLS.values() for m in mats}) > HELD_MATRICES

DECOMPOSE = {
    "decompose_idempotent": lambda a, e, f, n: decompose_idempotent(a, e, n),
    "decompose_q": lambda a, e, f, n: decompose_q(a, e, n),
    "dual_decompose": lambda a, e, f, n: dual_decompose(a, f, n, Flavor.IDEM_Q),
    "ep_decompose": lambda a, e, f, n: ep_decompose(a, e, f, n),
}

# Each public call on (a, e, f, n, x), where x is another matrix of the field:
# the candidate of verify and the matrix whose decomposition replay reads.
CALLS = {
    "group_inverse": lambda a, e, f, n, x: group_inverse(a),
    "inv_13e": lambda a, e, f, n, x: inv_13e(a, e),
    "inv_14f": lambda a, e, f, n, x: inv_14f(a, f),
    "weighted_mp": lambda a, e, f, n, x: weighted_mp(a, e, f),
    "e_core": lambda a, e, f, n, x: e_core(a, e),
    "f_dual_core": lambda a, e, f, n, x: f_dual_core(a, f),
    "e_core_via_power": lambda a, e, f, n, x: e_core_via_power(a, e, n + 1),
    "f_dual_core_via_power": lambda a, e, f, n, x: f_dual_core_via_power(a, f, n + 1),
    "verify": lambda a, e, f, n, x: [verify(kind, a, x, e, f) for kind in GInverseKind],
    "is_weighted_ep": lambda a, e, f, n, x: is_weighted_ep(a, e, f),
    "gram_formula": lambda a, e, f, n, x: gram_formula(a, e),
    "dual_gram_formula": lambda a, e, f, n, x: dual_gram_formula(a, f),
    **{name: lambda a, e, f, n, x, make=make: make(a, e, f, n) for name, make in DECOMPOSE.items()},
}


def _replay(kind):
    """replay of the certificate decompose `kind` gives for (x, e, f, n), which
    fails on a matrix of another value, with e for a core and f for a dual side."""

    def call(a, e, f, n, x):
        d = DECOMPOSE[kind](x, e, f, n)
        if isinstance(d, NotInvertible):  # nothing to replay
            return d
        return replay(a, e if d.side is Side.CORE else f, d)

    return call


def _tampered_replay(kind):
    """replay of a's own certificate from decompose `kind` with the identity added
    to its unit, which it refuses, after its valid certificate replayed."""

    def call(a, e, f, n, x):
        d = DECOMPOSE[kind](a, e, f, n)
        if isinstance(d, NotInvertible):
            return d
        w = e if d.side is Side.CORE else f
        bad = Decomposition(d.flavor, d.side, d.element, d.unit + Mat.identity(a.field, a.n), d.n)
        return replay(a, w, d), _outcome(lambda: replay(a, w, bad))

    return call


def _witness_replay(side, flavor, rebuild):
    """rebuild from the element witness drawn for (a, w, n) with the seed n, where w
    is e on the core and f on the dual side; the draw refuses an a without the
    side's inverse (ValueError)."""

    def call(a, e, f, n, x):
        w = e if side is Side.CORE else f
        return rebuild(a, w, random_annihilator_witness(a, w, n, n, side, flavor), n)

    return call


CALLS.update({f"replay {kind}": _replay(kind) for kind in DECOMPOSE})
CALLS.update({f"tampered replay {kind}": _tampered_replay(kind) for kind in DECOMPOSE})
CALLS["core_from_s"] = _witness_replay(Side.CORE, Flavor.ELEM_S, core_from_s)
CALLS["dual_from_t"] = _witness_replay(Side.DUAL, Flavor.ELEM_T, dual_from_t)


def _outcome(call):
    """The result of call(), or the type and text of the ValueError it raises
    (InvalidCertificateError among them); any other exception propagates."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def _copy(v):
    """A fresh equal matrix or weight, decoded from JSON as a caller would; any
    other argument as it is."""
    if isinstance(v, Weight):
        return Weight(_copy(v.value))
    return mat_from_json(mat_to_json(v)) if isinstance(v, Mat) else v


def _cold(call, *args):
    """call on fresh copies of its matrices and weights in a fresh thread,
    which holds no instance."""
    args = [_copy(v) for v in args]
    box = []
    thread = threading.Thread(target=lambda: box.append(_outcome(lambda: call(*args))))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and box, "the cold call hung or raised"
    return box[0]


@seed(2026)
class HeldTable(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        cold_start()
        self.other = ThreadPoolExecutor(max_workers=1)  # one thread, its table kept

    def teardown(self):
        self.other.shutdown()

    def _compare(self, call, args, there):
        expected = _cold(call, *args)

        def run():
            return _outcome(lambda: call(*args))

        got = self.other.submit(run).result(timeout=60) if there else run()
        assert got == expected

    def _args(self, field, i, ei, fi, j, n, fresh_a, fresh_w):
        mats, weights = POOLS[field]
        a, e, f = mats[i], weights[ei], weights[fi]
        if fresh_a:
            a = _copy(a)
        if fresh_w:
            e, f = _copy(e), _copy(f)
        return a, e, f, n, mats[j]

    @rule(
        name=st.sampled_from(sorted(CALLS)),
        field=st.sampled_from(list(DIMS)),
        i=st.integers(0, 6),
        ei=st.integers(0, 2),
        fi=st.integers(0, 2),
        j=st.integers(0, 6),
        n=st.integers(1, 3),
        fresh_a=st.booleans(),
        fresh_w=st.booleans(),
        there=st.booleans(),
    )
    def public_call(self, name, field, i, ei, fi, j, n, fresh_a, fresh_w, there):
        args = self._args(field, i, ei, fi, j, n, fresh_a, fresh_w)
        self._compare(CALLS[name], args, there)

    @rule(
        i=st.integers(0, 6),
        ei=st.integers(0, 2),
        fi=st.integers(0, 2),
        n=st.integers(1, 3),
        fresh_a=st.booleans(),
        fresh_w=st.booleans(),
        there=st.booleans(),
    )
    def cross_check_on_f3(self, i, ei, fi, n, fresh_a, fresh_w, there):
        a, e, f, n, _ = self._args(F3, i, ei, fi, 0, n, fresh_a, fresh_w)
        self._compare(cross_check, (a, e, f, n), there)


def test_held_instances_give_the_results_of_cold_calls():
    # no shrink phase: a failing run is reported with the steps it drew, since
    # shrinking runs of threaded cold calls takes minutes
    run_state_machine_as_test(
        HeldTable,
        settings=settings(
            max_examples=40,
            stateful_step_count=40,
            deadline=None,
            database=None,
            phases=(Phase.explicit, Phase.generate),
        ),
    )
