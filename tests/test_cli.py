"""CLI contract: exit codes, JSON shapes, byte-stable output."""

import json

import pytest

from coreinv import (
    QQ,
    Mat,
    Weight,
    decompose_idempotent,
    decomposition_to_json,
    mat_to_json,
)
from coreinv.cli import main

A_OBJ = {"backend": "Q", "dim": 2, "entries": [["1", "1"], ["0", "0"]]}
NIL_OBJ = {"backend": "Q", "dim": 2, "entries": [["0", "1"], ["0", "0"]]}


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


def test_compute_power_path(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    code, out = run(capsys, ["compute", "--kind", "ecore", "--a", a, "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["value"]["entries"] == [["1", "0"], ["0", "0"]]
    assert "s" in payload["witnesses"]


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


def test_verify_malformed_certificate(tmp_path, capsys):
    a = write(tmp_path, "a.json", A_OBJ)
    bad = write(tmp_path, "cert.json", {"kind": "ecore"})
    code, _ = run(capsys, ["verify", "--a", a, "--cert", bad])
    assert code == 2
    bad = write(tmp_path, "cert2.json", {"kind": "ecore", "value": A_OBJ, "witnesses": [1]})
    code, _ = run(capsys, ["verify", "--a", a, "--cert", bad])
    assert code == 2


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
