"""CLI contract: exit codes, JSON shapes, byte-stable output."""

import contextlib
import io
import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coreinv.characterize
import coreinv.cli
import coreinv.ginverse
import coreinv.scalar

from coreinv import (
    QQ,
    GInverseKind,
    Mat,
    VerifyReport,
    Weight,
    decompose_idempotent,
    decomposition_to_json,
    dual_decompose,
    group_inverse,
    mat_from_json,
    mat_to_json,
)
from coreinv.cli import main
from coreinv.matrix import MAX_DIM
from conftest import cold_start

A_OBJ = {"backend": "Q", "dim": 2, "entries": [["1", "1"], ["0", "0"]]}
NIL_OBJ = {"backend": "Q", "dim": 2, "entries": [["0", "1"], ["0", "0"]]}
EYE3_OBJ = {"backend": "Q", "dim": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_compute_ecore(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    code, out = run(capsys, ["compute", "--kind", "ecore", "--a", a])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["value"]["entries"] == [["1", "0"], ["0", "0"]]
    assert payload["kind"] == "ecore"


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    argvs = [
        ["compute", "--kind", "ecore", "--a", a],
        ["ep", "--a", a],
        ["compute", "--kind", "nope", "--a", a],
        ["oracle", "--p", "2", "--dim", "1"],
        ["frobnicate"],
        ["compute", "--kind", "group", "--a", a, "--out"],
        ["verify", "--a", a, "--cert", a],
        ["compute", "--kind", "ecore", "--a", a, "--n", "2"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    separate = []
    for argv in argvs:
        coreinv.cli._parser.cache_clear()
        separate.append(call(argv))
    coreinv.cli._parser.cache_clear()
    in_a_row = [call(argv) for argv in argvs]
    assert coreinv.cli._parser.cache_info().misses == 1
    assert in_a_row == separate
    assert [code for code, _, _ in in_a_row] == [0, 0, 2, 0, 2, 2, 2, 0]


def test_compute_group_negative(tmp_path, capsys):
    a = write(tmp_path, "a.json", NIL_OBJ)
    code, out = run(capsys, ["compute", "--kind", "group", "--a", a])
    assert code == 0
    payload = json.loads(out)
    assert payload["invertible"] is False
    assert "a^2" in payload["reason"]


def test_compute_rejects_bad_weight(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    bad_e = write(
        tmp_path, "e.json", {"backend": "Q", "dim": 2, "entries": [["0", "1"], ["0", "0"]]}
    )
    code, _ = run(capsys, ["compute", "--kind", "ecore", "--a", a, "--e", bad_e])
    assert code == 2


def test_compute_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, ["compute", "--kind", "group", "--a", str(path)])
    assert code == 2
    zero_den = write(tmp_path, "z.json", {"backend": "Q", "dim": 1, "entries": [["1/0"]]})
    code, _ = run(capsys, ["compute", "--kind", "group", "--a", zero_den])
    assert code == 2
    # entries beyond 4300 digits are refused before any number is built from them
    for backend, entry in (
        ("Q", "1e999999"),
        ("Q", "1e999999999"),
        ("Q", "1e-999999999"),
        ("Q", "1/" + "9" * 4301),
        ("Qi", ["1", "1e999999999"]),
        ("Fp", "9" * 4301),
    ):
        obj = {"backend": backend, "dim": 1, "entries": [[entry]], "p": 3}
        huge = write(tmp_path, "h.json", obj)
        start = time.perf_counter()
        code, _ = run(capsys, ["compute", "--kind", "group", "--a", huge])
        assert code == 2 and time.perf_counter() - start < 1.0
    # so are JSON integers, though the CLI lifts the int/str limit to print answers
    raw = tmp_path / "raw.json"
    raw.write_text('{"backend": "Q", "dim": 1, "entries": [[' + "9" * 1000000 + "]]}")
    start = time.perf_counter()
    code, _ = run(capsys, ["compute", "--kind", "group", "--a", str(raw)])
    assert code == 2 and time.perf_counter() - start < 1.0
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, _ = run(capsys, ["compute", "--kind", "group", "--a", str(deep)])
    assert code == 2


def test_oversized_dim_exits_2(tmp_path, capsys):
    ones = [["1"] * (MAX_DIM + 1) for _ in range(MAX_DIM + 1)]
    big = write(tmp_path, "big.json", {"backend": "Qi", "dim": MAX_DIM + 1, "entries": ones})
    a = write(tmp_path, "a.json", A_OBJ)
    # entries null: the dimension is refused before the entries are read
    huge = {"backend": "Q", "dim": 10**9, "entries": None}
    cert = write(tmp_path, "cert.json", {"kind": "group", "value": huge, "witnesses": {}})
    for argv in (
        ["compute", "--kind", "ecore", "--a", big],
        ["ep", "--a", big],
        ["verify", "--a", big, "--cert", cert],
        ["verify", "--a", a, "--cert", cert],
        ["compute", "--kind", "ecore", "--a", a, "--e", write(tmp_path, "e.json", huge)],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert "exceeds the maximum" in captured.err


def test_answer_longer_than_the_entry_bound_prints(tmp_path, capsys):
    # the inverse's denominator 2 * (10**4300 - 1) - 1 has 4301 digits
    big = "9" * 4300
    a = write(tmp_path, "a.json", {"backend": "Q", "dim": 2, "entries": [[big, "1"], ["1", "2"]]})
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, ["compute", "--kind", "group", "--a", a])
    assert code == 0 and sys.get_int_max_str_digits() == limit
    expected = group_inverse(Mat(QQ, [[int(big), 1], [1, 2]])).value
    sys.set_int_max_str_digits(0)
    try:
        entries = [[str(v) for v in row] for row in expected.rows]
    finally:
        sys.set_int_max_str_digits(limit)
    assert json.loads(out)["value"]["entries"] == entries


def test_compute_power_path(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    code, out = run(capsys, ["compute", "--kind", "ecore", "--a", a, "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["value"]["entries"] == [["1", "0"], ["0", "0"]]
    assert "s" in payload["witnesses"]


def test_compute_n_with_a_kind_without_a_power_path_is_bad_input(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    for kind in ("group", "13e", "14f", "wmp"):
        for n in ("1", "3"):
            code = main(["compute", "--kind", kind, "--a", a, "--n", n])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", (kind, n)
            assert "--n applies to the kinds ecore and fdual only" in captured.err
    for kind in ("ecore", "fdual"):
        code, out = run(capsys, ["compute", "--kind", kind, "--a", a, "--n", "1"])
        assert code == 0 and json.loads(out)["n"] is None


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    code, out = run(capsys, ["compute", "--kind", "ecore", "--a", a])
    cert = json.loads(out)
    cert_path = write(tmp_path, "cert.json", cert)
    code, out = run(capsys, ["verify", "--a", a, "--cert", cert_path])
    assert code == 0 and json.loads(out)["ok"] is True

    cert["value"]["entries"][0][1] = "1"  # tamper one entry by +1
    bad_path = write(tmp_path, "bad_cert.json", cert)
    code, out = run(capsys, ["verify", "--a", a, "--cert", bad_path])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["failed"]
    assert "(3e)" in report["failed"] or "(7)" in report["failed"]


def test_verify_decomposition_certificate(tmp_path, capsys):
    a_mat = Mat(QQ, [[1, 1], [0, 0]])
    d = decompose_idempotent(a_mat, Weight.identity(QQ, 2), 2)
    a = write(tmp_path, "a.json", mat_to_json(a_mat))
    cert = write(tmp_path, "decomp.json", decomposition_to_json(d))
    code, out = run(capsys, ["verify", "--a", a, "--cert", cert])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["reconstructed"]["entries"] == [["1", "0"], ["0", "0"]]

    tampered = decomposition_to_json(d)
    tampered["element"]["entries"][0][0] = "1"  # no longer annihilates a
    bad = write(tmp_path, "bad_decomp.json", tampered)
    code, out = run(capsys, ["verify", "--a", a, "--cert", bad])
    assert code == 1 and json.loads(out)["ok"] is False


@pytest.mark.parametrize("side", ["core", "dual"])
def test_decomposition_verify_evaluates_each_equation_once(tmp_path, capsys, monkeypatch, side):
    # replay and the direct inverse share one instance of a, so the direct value,
    # equal to the replayed one, has no equation evaluated on it a second time
    evaluated = []
    for label, predicate in coreinv.ginverse._PREDICATES.items():

        def counted(a, x, p, e, f, label=label, predicate=predicate):
            evaluated.append((label, x.form))
            return predicate(a, x, p, e, f)

        monkeypatch.setitem(coreinv.ginverse._PREDICATES, label, counted)
    a_mat = Mat(QQ, [[1, 1], [0, 0]])
    w = Weight.identity(QQ, 2)
    d = decompose_idempotent(a_mat, w, 2) if side == "core" else dual_decompose(a_mat, w, 2)
    a = write(tmp_path, "a.json", mat_to_json(a_mat))
    cert = write(tmp_path, "decomp.json", decomposition_to_json(d))
    cold_start()  # the decoded a equals a_mat, whose instance building d filled
    evaluated.clear()
    code, out = run(capsys, ["verify", "--a", a, "--cert", cert])
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    assert report["direct"] == report["reconstructed"]
    assert len(evaluated) == len(set(evaluated))
    kind = GInverseKind.E_CORE if side == "core" else GInverseKind.F_DUAL_CORE
    value = mat_from_json(report["direct"]).form
    assert sorted(label for label, form in evaluated if form == value) == sorted(
        coreinv.ginverse.EQUATIONS[kind]
    )


def test_invalid_decomposition_is_refused_before_the_direct_inverse(
    tmp_path, capsys, monkeypatch
):
    # replay comes first, so a certificate it rejects never pays for e_core
    calls = []
    real_e_core = coreinv.cli.e_core
    monkeypatch.setattr(coreinv.cli, "e_core", lambda a, w: calls.append(a) or real_e_core(a, w))
    a_mat = Mat(QQ, [[1, 1], [0, 0]])
    d = decomposition_to_json(decompose_idempotent(a_mat, Weight.identity(QQ, 2), 2))
    a = write(tmp_path, "a.json", mat_to_json(a_mat))
    code, out = run(capsys, ["verify", "--a", a, "--cert", write(tmp_path, "d.json", d)])
    assert code == 0 and json.loads(out)["ok"] is True and len(calls) == 1
    d["element"]["entries"][0][0] = "1"  # no longer annihilates a
    code, out = run(capsys, ["verify", "--a", a, "--cert", write(tmp_path, "bad.json", d)])
    report = json.loads(out)
    assert code == 1 and report["ok"] is False and "error" in report
    assert len(calls) == 1


def test_mismatched_weight_is_refused_before_it_is_inverted(tmp_path, capsys, monkeypatch):
    inversions = []
    real_inverse = Mat.inverse
    monkeypatch.setattr(Mat, "inverse", lambda m: inversions.append(m.n) or real_inverse(m))
    a = write(tmp_path, "a.json", A_OBJ)
    eye3 = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    weights = [
        {"backend": "Q", "dim": 3, "entries": eye3},
        {"backend": "Qi", "dim": 2, "entries": [["1", "0"], ["0", "1"]]},
        # mismatched and singular: the mismatch is reported
        {"backend": "Q", "dim": 3, "entries": [["0"] * 3] * 3},
    ]
    for k, obj in enumerate(weights):
        e = write(tmp_path, f"e{k}.json", obj)
        assert main(["compute", "--kind", "ecore", "--a", a, "--e", e]) == 2
        assert "does not match" in capsys.readouterr().err
    assert inversions == []
    e = write(tmp_path, "e.json", {"backend": "Q", "dim": 2, "entries": [["2", "0"], ["0", "1"]]})
    assert main(["compute", "--kind", "ecore", "--a", a, "--e", e]) == 0
    assert inversions == []  # a weight is checked by rank, and e-core never reads e^-1


def test_verify_malformed_certificate(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    bad = write(tmp_path, "cert.json", {"kind": "ecore"})
    code, _ = run(capsys, ["verify", "--a", a, "--cert", bad])
    assert code == 2
    bad = write(tmp_path, "cert2.json", {"kind": "ecore", "value": A_OBJ, "witnesses": [1]})
    code, _ = run(capsys, ["verify", "--a", a, "--cert", bad])
    assert code == 2
    # an exponent past the bound is refused before a^n is formed
    nil = {"backend": "Q", "dim": 2, "entries": [["0", "0"], ["0", "1"]]}
    huge_n = {"flavor": "s", "side": "core", "n": 10**9, "element": nil, "unit": A_OBJ}
    bad = write(tmp_path, "cert3.json", huge_n)
    start = time.perf_counter()
    code, _ = run(capsys, ["verify", "--a", a, "--cert", bad])
    assert code == 2 and time.perf_counter() - start < 1.0


def test_ep_verdicts(tmp_path, capsys):
    inv = write(
        tmp_path, "inv.json", {"backend": "Q", "dim": 2, "entries": [["1", "2"], ["3", "4"]]}
    )
    code, out = run(capsys, ["ep", "--a", inv])
    assert code == 0
    assert json.loads(out)["weighted_ep"] is True

    a = write(tmp_path, "a.json", A_OBJ)
    code, out = run(capsys, ["ep", "--a", a])
    payload = json.loads(out)
    assert code == 0 and payload["weighted_ep"] is False
    assert payload["p"] is None

    diag = write(
        tmp_path, "d.json", {"backend": "Q", "dim": 2, "entries": [["2", "0"], ["0", "0"]]}
    )
    e = write(tmp_path, "e.json", {"backend": "Q", "dim": 2, "entries": [["1", "0"], ["0", "3"]]})
    f = write(tmp_path, "f.json", {"backend": "Q", "dim": 2, "entries": [["2", "0"], ["0", "1"]]})
    code, out = run(capsys, ["ep", "--a", diag, "--e", e, "--f", f])
    payload = json.loads(out)
    assert code == 0 and payload["weighted_ep"] is True
    assert payload["p"]["entries"] == [["0", "0"], ["0", "1"]]


def test_a_repeated_in_process_call_works_nothing_out_again(tmp_path, capsys, monkeypatch):
    """`main` run twice in one thread on the same files: the second call decodes
    an equal copy of each matrix, which finds the instance the first call left
    held, so it runs no membership solve, evaluates no equation again and prints
    the same bytes."""
    worked = []

    def counted(fn, what):
        return lambda *args: worked.append(what) or fn(*args)

    for module, name in (
        (coreinv.ginverse, "solve_left"),
        (coreinv.ginverse, "solve_right"),
        (coreinv.characterize, "solve_right"),
    ):
        monkeypatch.setattr(module, name, counted(getattr(module, name), "solve"))
    for label, predicate in coreinv.ginverse._PREDICATES.items():
        monkeypatch.setitem(coreinv.ginverse._PREDICATES, label, counted(predicate, "equation"))
    diag = write(tmp_path, "d.json", {"backend": "Q", "dim": 2, "entries": [["2", "0"], ["0", "0"]]})
    e = write(tmp_path, "e.json", {"backend": "Q", "dim": 2, "entries": [["1", "0"], ["0", "3"]]})
    f = write(tmp_path, "f.json", {"backend": "Q", "dim": 2, "entries": [["2", "0"], ["0", "1"]]})
    a = write(tmp_path, "a.json", A_OBJ)
    cert = str(tmp_path / "cert.json")
    assert main(["compute", "--kind", "ecore", "--a", a, "--e", e, "--out", cert]) == 0
    for argv, first_works in (
        (["ep", "--a", diag, "--e", e, "--f", f], "solve"),
        (["verify", "--a", a, "--cert", cert, "--e", e], "equation"),
    ):
        cold_start()
        worked.clear()
        first = run(capsys, argv)
        assert first[0] == 0 and first_works in worked, argv
        worked.clear()
        assert run(capsys, argv) == first and worked == [], argv


def test_one_weight_file_is_decoded_into_one_weight(tmp_path, capsys, monkeypatch):
    """--e and --f naming one path, or both absent, give one Weight that serves as
    both; stdout and exit codes are those of two copies of the file."""
    made = []

    class Counted(Weight):
        __slots__ = ()

        def __init__(self, value):
            made.append(value)
            super().__init__(value)

        @classmethod
        def identity(cls, field, n):
            made.append(None)
            return super().identity(field, n)

    monkeypatch.setattr(coreinv.cli, "Weight", Counted)
    a = write(tmp_path, "a.json", A_OBJ)
    diag = write(tmp_path, "d.json", {"backend": "Q", "dim": 2, "entries": [["2", "0"], ["0", "0"]]})
    good = {"backend": "Q", "dim": 2, "entries": [["2", "1"], ["1", "1"]]}
    singular = {"backend": "Q", "dim": 2, "entries": [["1", "1"], ["1", "1"]]}
    w = write(tmp_path, "w.json", good)
    assert main(["compute", "--kind", "wmp", "--a", a, "--e", w, "--f", w]) == 0
    cert = write(tmp_path, "cert.json", json.loads(capsys.readouterr().out))
    commands = [["compute", "--kind", k.value, "--a", m] for k in GInverseKind for m in (a, diag)]
    commands += [["ep", "--a", m] for m in (a, diag)] + [["verify", "--a", a, "--cert", cert]]
    codes = set()
    for argv in commands:
        made.clear()
        main(argv)  # both absent; the certificate's weight fails (3e) and (4f)
        capsys.readouterr()
        assert made == [None], argv
        for name, obj in (("good", good), ("singular", singular)):
            path, copy = write(tmp_path, f"{name}.json", obj), write(tmp_path, f"{name}-2.json", obj)
            made.clear()
            one = main(argv + ["--e", path, "--f", path]), capsys.readouterr().out
            assert len(made) == 1, argv
            made.clear()
            two = main(argv + ["--e", path, "--f", copy]), capsys.readouterr().out
            assert len(made) == (2 if obj is good else 1), argv  # a singular e stops the load
            assert one == two, argv
            codes.add(one[0])
    assert codes == {0, 2}


def test_oracle_exhaustive_and_refusal(tmp_path, capsys):
    code, out = run(capsys, ["oracle", "--p", "2", "--dim", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["mismatches"] == [] and report["checked"] == 64

    code, _ = run(capsys, ["oracle", "--p", "5", "--dim", "3"])
    assert code == 2
    code, _ = run(capsys, ["oracle", "--p", "5", "--dim", "3", "--sample", "2"])
    assert code == 2  # seed required
    code, out = run(capsys, ["oracle", "--p", "5", "--dim", "3", "--sample", "2", "--seed", "3"])
    assert code == 0
    for sample in ("0", "-1"):  # checking nothing is not a pass
        code, out = run(capsys, ["oracle", "--p", "2", "--dim", "2", "--sample", sample, "--seed", "3"])
        assert code == 2 and out == ""


def test_oracle_refuses_a_dim_outside_the_bound(capsys):
    # refused before the size of the space, 3^(dim^2), is formed or printed
    for dim in ("0", str(MAX_DIM + 1), "3000"):
        for sampled in ([], ["--sample", "1", "--seed", "1"]):
            start = time.perf_counter()
            code = main(["oracle", "--p", "3", "--dim", dim, *sampled])
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "" and elapsed < 1.0, (dim, sampled)
            assert f"1 <= dim <= {MAX_DIM}, got {dim}" in captured.err


def test_decomposition_of_another_dim_or_backend_is_bad_input(tmp_path, capsys):
    a_mat = Mat(QQ, [[1, 1], [0, 0]])
    a = write(tmp_path, "a.json", mat_to_json(a_mat))
    d = decomposition_to_json(decompose_idempotent(a_mat, Weight.identity(QQ, 2), 2))
    eye2_qi = {"backend": "Qi", "dim": 2, "entries": [["1", "0"], ["0", "1"]]}
    for part in ("element", "unit"):
        for other, message in ((EYE3_OBJ, "dimension mismatch"), (eye2_qi, "mixed matrix backends")):
            cert = write(tmp_path, "d.json", {**d, part: other})
            code = main(["verify", "--a", a, "--cert", cert])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", (part, message)
            assert message in captured.err


def test_malformed_inverse_certificate_is_bad_input(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    code, out = run(capsys, ["compute", "--kind", "ecore", "--a", a, "--n", "2"])
    cert = json.loads(out)
    code, _ = run(capsys, ["verify", "--a", a, "--cert", write(tmp_path, "c.json", cert)])
    assert code == 0
    # only the power routes record an n, and they take 2..MAX_POWER
    for n in (-5, 0, 1, coreinv.ginverse.MAX_POWER + 1, 10**9):
        code = main(["verify", "--a", a, "--cert", write(tmp_path, "c.json", {**cert, "n": n})])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", n
        assert "n must satisfy 2 <= n" in captured.err
    eye2_f3 = {"backend": "Fp", "p": 3, "dim": 2, "entries": [["1", "0"], ["0", "1"]]}
    for witness, message in ((EYE3_OBJ, "dimension mismatch"), (eye2_f3, "mixed matrix backends")):
        bad = {**cert, "witnesses": {**cert["witnesses"], "x": witness}}
        code = main(["verify", "--a", a, "--cert", write(tmp_path, "c.json", bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", message
        assert message in captured.err


def test_output_is_byte_stable(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    _, first = run(capsys, ["compute", "--kind", "wmp", "--a", a])
    _, second = run(capsys, ["compute", "--kind", "wmp", "--a", a])
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    target = tmp_path / "result.json"
    code, out = run(capsys, ["compute", "--kind", "group", "--a", a, "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["kind"] == "group"


def test_unknown_kind_is_usage_error(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--kind", "drazin", "--a", a])
    assert exc.value.code == 2


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    # a constructed value that fails its own equations is an internal error,
    # for every kind (weighted_mp included: no input can reach that failure)
    real_verify = coreinv.ginverse.verify
    a = write(tmp_path, "a.json", A_OBJ)
    for kind in ("group", "wmp"):

        def failing_verify(k, a, x, e=None, f=None, _kind=kind):
            if k is not GInverseKind(_kind):
                return real_verify(k, a, x, e=e, f=f)
            return VerifyReport(k, (("(1)", False),))

        monkeypatch.setattr(coreinv.ginverse, "verify", failing_verify)
        code = main(["compute", "--kind", kind, "--a", a])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", kind
        assert captured.err.startswith("error: internal error:")
        assert "Traceback" not in captured.err
    # so is a remainder in one of the exact divisions in Z[i], here injected
    # into the first entry of every row the Q(i) reduction divides
    monkeypatch.undo()
    real_quotient = coreinv.scalar._exact_quotient

    def skewed(re, im, dr, di):
        return real_quotient([v + (j == 0) for j, v in enumerate(re)], im, dr, di)

    entries = [[["-1", "-1"], ["0", "-1"]], [["0", "0"], ["-2", "1"]]]
    tri = write(tmp_path, "tri.json", {"backend": "Qi", "dim": 2, "entries": entries})
    assert main(["compute", "--kind", "group", "--a", tri]) == 0
    capsys.readouterr()
    monkeypatch.setattr(coreinv.scalar, "_exact_quotient", skewed)
    cold_start()  # so that the call divides again, not reads the held a^#
    code = main(["compute", "--kind", "group", "--a", tri])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: internal error: an exact divisor does not divide")


def containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2)


JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3), containers, max_leaves=5
)
BAD_ENTRY = st.sampled_from(
    ["1/0", "1e999999", "1e-999999999", "1e4299", "1.5", "x", "", ["1"], ["1", "2", "3"]]
) | JUNK
FAULTS = [None] * 8 + ["entry"] * 4 + ["ragged", "dim", "backend", "p", "junk"]


def entries(backend, values):
    """A strategy for valid entries of the backend built from the given integer strings."""
    ints = st.sampled_from(values)
    if backend == "Qi":
        return st.tuples(ints, ints | st.just("1/2")).map(list)
    return ints | st.just("1/2") if backend == "Q" else ints


@st.composite
def matrix_json(draw, backend, dim, diagonal=False):
    """A matrix object over (backend, dim): valid, or with one fault injected.

    A diagonal one has nonzero real entries, so it is a valid weight when fault-free.
    """
    fault = draw(st.sampled_from(FAULTS))
    if fault == "junk":
        return draw(JUNK)
    zero = ["0", "0"] if backend == "Qi" else "0"
    if diagonal:
        real = st.sampled_from(["1", "2", "-1"]).map(lambda v: [v, "0"] if backend == "Qi" else v)
        rows = [[draw(real) if i == j else zero for j in range(dim)] for i in range(dim)]
    else:
        good = entries(backend, ["0", "1", "2", "-1"])
        rows = [[draw(good) for _ in range(dim)] for _ in range(dim)]
    if fault == "entry":
        rows[draw(st.integers(0, dim - 1))][draw(st.integers(0, dim - 1))] = draw(BAD_ENTRY)
    if fault == "ragged":
        rows[-1] = rows[-1][:-1]
    obj = {"backend": backend, "dim": dim, "entries": rows}
    if fault == "dim":
        obj["dim"] = draw(st.sampled_from([0, dim + 1, MAX_DIM + 1, 10**9, True, "2", None]))
    if fault == "backend":
        obj["backend"] = draw(st.sampled_from(["R", "Q" if backend != "Q" else "Qi", None]))
    if backend == "Fp" or fault == "backend":
        obj["p"] = draw(st.sampled_from([7, True, "3"])) if fault == "p" else 3
    return obj


@st.composite
def cli_inputs(draw):
    """The --a, --e and --cert JSON of one call, mostly over one backend and dim."""
    backend = draw(st.sampled_from(["Q", "Qi", "Fp"]))
    dim = draw(st.integers(1, 3))
    mat = matrix_json(backend, dim)
    kinds = ["group", "13e", "14f", "wmp", "ecore", "fdual"]
    witness = {
        "kind": st.sampled_from(kinds + ["x"]),
        "value": mat,
        "witnesses": st.dictionaries(st.sampled_from(["x", "s"]), mat, max_size=1) | st.just([1]),
        "n": st.sampled_from([None, None, None, 2, 1.5, True]),
    }
    decomposition = {
        "flavor": st.sampled_from(["p", "s", "q", "t", "x"]),
        "side": st.sampled_from(["core", "dual", "core", "dual", "x"]),
        "n": st.sampled_from([1, 2, 3, 0, 9, 10**9, True, "1"]),
        "element": mat,
        "unit": mat,
    }
    cert = st.fixed_dictionaries(witness) | st.fixed_dictionaries(decomposition) | JUNK
    weight = st.none() | matrix_json(backend, dim, diagonal=True) | mat
    return draw(mat), draw(weight), draw(cert)


@settings(max_examples=300, deadline=2000, derandomize=True)
@given(
    st.sampled_from(["compute", "verify", "ep"]),
    st.sampled_from(["group", "13e", "14f", "wmp", "ecore", "fdual"]),
    cli_inputs(),
)
def test_fuzzed_input_never_escapes(command, kind, inputs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in zip(("a", "e", "cert"), inputs):
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        argv = [command, "--a", paths["a"]]
        if inputs[1] is not None:
            argv += ["--e", paths["e"]]
        if command == "compute":
            argv += ["--kind", kind]
        if command == "verify":
            argv += ["--cert", paths["cert"]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
