"""Command-line front door: compute, verify, test weighted-EP, run oracle sweeps.

Exit codes separate four outcomes: 0 for a completed computation (including a
negative mathematical answer), 1 for a failed verification or oracle mismatch,
2 for malformed or invalid input, and 3 for an internal error, a broken
invariant of coreinv itself such as a constructed inverse that fails its own
equations. Output is deterministic JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .characterize import (
    InvalidCertificateError,
    Side,
    decomposition_from_json,
    is_weighted_ep,
    replay,
)
from .ginverse import (
    MAX_POWER,
    GInverseKind,
    NotInvertible,
    certificate_from_json,
    certificate_to_json,
    e_core,
    e_core_via_power,
    f_dual_core,
    f_dual_core_via_power,
    group_inverse,
    inv_13e,
    inv_14f,
    not_invertible_to_json,
    verify,
    weighted_mp,
)
from .matrix import Mat, Weight, mat_from_json, mat_to_json
from .oracle import cross_check_sweep
from .scalar import MAX_ENTRY_DIGITS, SUPPORTED_PRIMES


def _bounded_int(text: str) -> int:
    # `main` lifts the int/str conversion limit, so JSON integers are bounded here
    if len(text.lstrip("-")) > MAX_ENTRY_DIGITS:
        raise ValueError(f"JSON integer has more than {MAX_ENTRY_DIGITS} digits")
    return int(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_bounded_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(obj, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_matrix(path: str) -> Mat:
    return mat_from_json(_load_json(path))


def _load_weight(path: str | None, dim, field) -> Weight:
    if path is None:
        return Weight.identity(field, dim)
    m = mat_from_json(_load_json(path))
    if m.n != dim or m.field != field:
        raise ValueError("weight does not match the matrix dimension/backend")
    return Weight(m)


def _load_weights(args, a: Mat) -> tuple[Weight, Weight]:
    """(e, f) from --e and --f; one Weight serves as both when they name the same
    path or are both absent, so it is decoded and validated once."""
    e = _load_weight(args.e, a.n, a.field)
    f = e if args.f == args.e else _load_weight(args.f, a.n, a.field)
    return e, f


def _result_json(result) -> dict:
    if isinstance(result, NotInvertible):
        return not_invertible_to_json(result)
    return certificate_to_json(result)


def cmd_compute(args) -> int:
    kind = GInverseKind(args.kind)
    n = args.n
    if n is not None and kind not in (GInverseKind.E_CORE, GInverseKind.F_DUAL_CORE):
        raise ValueError(f"--n applies to the kinds ecore and fdual only, not {kind.value}")
    a = _load_matrix(args.a)
    e, f = _load_weights(args, a)
    if kind is GInverseKind.GROUP:
        result = group_inverse(a)
    elif kind is GInverseKind.ONE_THREE_E:
        result = inv_13e(a, e)
    elif kind is GInverseKind.ONE_FOUR_F:
        result = inv_14f(a, f)
    elif kind is GInverseKind.WEIGHTED_MP:
        result = weighted_mp(a, e, f)
    elif kind is GInverseKind.E_CORE:
        result = e_core_via_power(a, e, n) if n is not None and n >= 2 else e_core(a, e)
    else:
        result = (
            f_dual_core_via_power(a, f, n) if n is not None and n >= 2 else f_dual_core(a, f)
        )
    _emit(_result_json(result), args.out)
    return 0


def _verify_certificate(args, payload, a: Mat) -> int:
    cert = certificate_from_json(payload)
    e, f = _load_weights(args, a)
    report = verify(cert.kind, a, cert.value, e=e, f=f)
    _emit(
        {
            "kind": cert.kind.value,
            "ok": report.ok,
            "equations": {label: ok for label, ok in report.results},
            "failed": list(report.failed),
        },
        args.out,
    )
    return 0 if report.ok else 1


def _verify_decomposition(args, payload, a: Mat) -> int:
    d = decomposition_from_json(payload)
    core = d.side is Side.CORE
    w = _load_weight(args.e if core else args.f, a.n, a.field)
    try:  # the replay and the direct inverse share the instance held for a
        reconstructed = replay(a, w, d)
    except InvalidCertificateError as exc:
        _emit({"ok": False, "error": str(exc)}, args.out)
        return 1
    direct = e_core(a, w) if core else f_dual_core(a, w)
    ok = not isinstance(direct, NotInvertible) and reconstructed == direct.value
    _emit(
        {
            "ok": ok,
            "reconstructed": mat_to_json(reconstructed),
            "direct": None if isinstance(direct, NotInvertible) else mat_to_json(direct.value),
        },
        args.out,
    )
    return 0 if ok else 1


def cmd_verify(args) -> int:
    a = _load_matrix(args.a)
    payload = _load_json(args.cert)
    if not isinstance(payload, dict):
        raise ValueError("certificate must be a JSON object")
    if "flavor" in payload:
        return _verify_decomposition(args, payload, a)
    return _verify_certificate(args, payload, a)


def cmd_ep(args) -> int:
    a = _load_matrix(args.a)
    e, f = _load_weights(args, a)
    report = is_weighted_ep(a, e, f)
    _emit(
        {
            "weighted_ep": report.weighted_ep,
            "e_core": _result_json(report.e_core),
            "f_dual_core": _result_json(report.f_dual_core),
            "p": None if report.p is None else mat_to_json(report.p),
        },
        args.out,
    )
    return 0


def cmd_oracle(args) -> int:
    report = cross_check_sweep(args.p, args.dim, n=args.n or 1, sample=args.sample, seed=args.seed)
    _emit(report, args.out)
    return 0 if not report["mismatches"] else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call of `main` and reused: building it costs about 1 ms
    parser = argparse.ArgumentParser(
        prog="coreinv",
        description="Exact weighted core / dual core / group / weighted Moore-Penrose"
        " inverses of square matrices, with verifiable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_kind=False):
        if need_kind:
            p.add_argument(
                "--kind",
                required=True,
                choices=[k.value for k in GInverseKind],
                help="which inverse to compute",
            )
        p.add_argument("--a", required=True, help="path to the matrix JSON")
        p.add_argument("--e", help="path to the weight e (defaults to the identity)")
        p.add_argument("--f", help="path to the weight f (defaults to the identity)")
        p.add_argument("--out", help="write the JSON result here instead of stdout")

    p_compute = sub.add_parser("compute", help="compute an inverse certificate")
    add_common(p_compute, need_kind=True)
    p_compute.add_argument(
        "--n",
        type=int,
        choices=range(1, MAX_POWER + 1),
        metavar="N",
        help=f"ecore/fdual only: power-representation exponent (1..{MAX_POWER});"
        " n >= 2 selects the power path",
    )
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser(
        "verify", help="replay a certificate (inverse or decomposition) against a"
    )
    add_common(p_verify)
    p_verify.add_argument("--cert", required=True, help="path to the certificate JSON")
    p_verify.set_defaults(func=cmd_verify)

    p_ep = sub.add_parser("ep", help="test whether a is weighted-EP for (e, f)")
    add_common(p_ep)
    p_ep.set_defaults(func=cmd_ep)

    p_oracle = sub.add_parser("oracle", help="differential sweep against brute force")
    p_oracle.add_argument("--p", type=int, required=True, choices=SUPPORTED_PRIMES)
    p_oracle.add_argument("--dim", type=int, required=True)
    p_oracle.add_argument("--n", type=int, choices=range(1, MAX_POWER + 1), metavar="N")
    p_oracle.add_argument("--sample", type=int, help="sampled mode: instances per sweep")
    p_oracle.add_argument("--seed", type=int, help="seed for sampled mode (required)")
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Every decoded literal is bounded by MAX_ENTRY_DIGITS, but a computed answer
    # may have longer entries, which must still print.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


def entrypoint():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
