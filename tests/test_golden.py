"""Golden corpus: exact CLI output and in-process dual-side JSON on seeded instances.

Each line of `tests/golden/corpus.jsonl` holds one instance (a, e, f, n) over
Q, Q(i), F_3 or F_5 at dims 2-4, the decomposition certificates derived from
it, the in-process JSON of `dual_decompose`, `dual_gram_formula` and
`random_annihilator_witness`, and every CLI call made on it with its exit code
and stdout. The test replays all of it and demands identical results.

Stdout is stored as its parsed JSON value and compared byte for byte against
that value rendered the way the CLI renders it (indent 2, sorted keys, final
newline); the generator refuses any stdout for which that rendering is not
exact, so the stored form loses nothing. Empty stdout (usage errors) is null.
Each distinct matrix object of a line is stored once in its "mats" list and
referenced elsewhere as {"mat": k}.

Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from coreinv import (
    GF,
    QI,
    QQ,
    Flavor,
    Mat,
    NotInvertible,
    Side,
    decompose_idempotent,
    decompose_q,
    decomposition_to_json,
    dual_decompose,
    dual_gram_formula,
    mat_from_json,
    mat_to_json,
    not_invertible_to_json,
    random_annihilator_witness,
    random_group_invertible,
    random_non_group_invertible,
    random_weight,
    weight_from_json,
    weight_to_json,
)
from coreinv.characterize import unit_for
from coreinv.cli import main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "corpus.jsonl")

KINDS = ("group", "13e", "14f", "wmp", "ecore", "fdual")
FAULTS = ("valid", "side", "unit", "element", "multi")
CERTS = [(flavor, side) for side in Side for flavor in Flavor]
FIELDS = (("Q", QQ), ("Qi", QI), ("F3", GF(3)), ("F5", GF(5)))


def _render(value):
    return "" if value is None else json.dumps(value, indent=2, sort_keys=True) + "\n"


def _cli(files, argv, tmp_dir):
    """Run the CLI in-process on `argv`, whose "@name" tokens name input files."""
    args = []
    for tok in argv:
        if tok.startswith("@"):
            path = os.path.join(tmp_dir, tok[1:] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(files[tok[1:]], fh)
            tok = path
        args.append(tok)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue()


def _plus_identity(obj, times=1):
    m = mat_from_json(obj)
    for _ in range(times):
        m = m + Mat.identity(m.field, m.n)
    return mat_to_json(m)


def corrupt(payload, fault):
    """A decomposition certificate with one fault, or several at once ("multi")."""
    d = dict(payload)
    if fault in ("side", "multi"):
        d["side"] = "dual" if d["side"] == "core" else "core"
    if fault in ("unit", "multi"):
        d["unit"] = _plus_identity(d["unit"], 2 if fault == "multi" else 1)
    if fault in ("element", "multi"):
        d["element"] = _plus_identity(d["element"])
    return d


def dual_side_json(a, e, f, n):
    """In-process JSON of the dual-side characterizations and of the witness generator."""
    out = {}
    for flavor in (Flavor.IDEM_P, Flavor.IDEM_Q):
        d = dual_decompose(a, f, n, flavor)
        out[f"dual_decompose/{flavor.value}"] = (
            not_invertible_to_json(d) if isinstance(d, NotInvertible) else decomposition_to_json(d)
        )
    g = dual_gram_formula(a, f)
    out["dual_gram_formula"] = (
        not_invertible_to_json(g) if isinstance(g, NotInvertible) else mat_to_json(g)
    )
    for side in Side:
        w = e if side is Side.CORE else f
        for flavor in (Flavor.ELEM_S, Flavor.ELEM_T):
            try:
                s = random_annihilator_witness(a, w, n, seed=n, side=side, flavor=flavor)
                value = mat_to_json(s)
            except ValueError as exc:
                value = {"error": str(exc)}
            out[f"witness/{side.value}/{flavor.value}"] = value
    return out


def certificates(a, e, f, n, dual):
    """One decomposition certificate per (flavor, side), where the instance admits it."""
    certs = {}
    for flavor, side in CERTS:
        w = e if side is Side.CORE else f
        if flavor in (Flavor.ELEM_S, Flavor.ELEM_T):
            obj = dual[f"witness/{side.value}/{flavor.value}"]
            if "error" in obj:
                continue
            s = mat_from_json(obj)
            cert = {
                "flavor": flavor.value,
                "side": side.value,
                "n": n,
                "element": obj,
                "unit": mat_to_json(unit_for(a, s, n, flavor, side)),
            }
        elif side is Side.DUAL:
            cert = dual[f"dual_decompose/{flavor.value}"]
        else:
            build = decompose_idempotent if flavor is Flavor.IDEM_P else decompose_q
            d = build(a, w, n)
            if isinstance(d, NotInvertible):
                continue
            cert = decomposition_to_json(d)
        if "flavor" in cert:
            certs[f"{flavor.value}/{side.value}"] = cert
    return certs


def instance(idx):
    """The seeded inputs of corpus instance idx."""
    tag, field = FIELDS[idx % 4]
    dim = 2 + (idx // 4) % (2 if tag == "Qi" else 3)  # Q(i) entries grow fastest
    seed = 7000 + idx
    if idx % 5 == 3:
        a = random_non_group_invertible(dim, field, seed)
    else:
        a = random_group_invertible(dim, field, seed)
    e = random_weight(dim, field, seed + 100, definite=idx % 2 == 0)
    f = random_weight(dim, field, seed + 200, definite=idx % 3 == 0)
    return f"{tag}-d{dim}-{idx}", a, e, f, 1 + idx % 3


def cli_calls(certs):
    """Every CLI call of one instance, with the source of its --cert payload.

    A source "compute:i" is the stdout of the i-th call; "<flavor>/<side>:<fault>"
    is that decomposition certificate after `corrupt`.
    """
    weights = ["--e", "@e", "--f", "@f"]
    calls = []
    for kind in KINDS:
        calls.append((["compute", "--kind", kind, "--a", "@a", *weights], None))
        if kind in ("ecore", "fdual"):
            for n in ("2", "3"):
                calls.append((["compute", "--kind", kind, "--a", "@a", *weights, "--n", n], None))
    for i in range(len(calls)):
        calls.append((["verify", "--a", "@a", "--cert", "@cert", *weights], f"compute:{i}"))
    for key in sorted(certs):
        for fault in FAULTS:
            calls.append((["verify", "--a", "@a", "--cert", "@cert", *weights], f"{key}:{fault}"))
    calls.append((["ep", "--a", "@a", *weights], None))
    return calls


def run_calls(rec, tmp_dir):
    """Run the CLI calls of a record; certificates that computed no inverse are not verified."""
    results = []
    for argv, source in cli_calls(rec["certs"]):
        files = {"a": rec["a"], "e": rec["e"], "f": rec["f"]}
        if source is not None:
            key, _, rest = source.rpartition(":")
            if key == "compute":
                files["cert"] = json.loads(results[int(rest)][3] or "null")
                if not (files["cert"] or {}).get("verified"):
                    continue
            else:
                files["cert"] = corrupt(rec["certs"][key], rest)
        results.append((argv, source, *_cli(files, argv, tmp_dir)))
    return results


def generate_record(idx, tmp_dir):
    name, a, e, f, n = instance(idx)
    dual = dual_side_json(a, e, f, n)
    rec = {
        "id": name,
        "a": mat_to_json(a),
        "e": weight_to_json(e),
        "f": weight_to_json(f),
        "n": n,
        "dual": dual,
        "certs": certificates(a, e, f, n, dual),
    }
    rec["cli"] = []
    for argv, _, code, text in run_calls(rec, tmp_dir):
        value = json.loads(text) if text else None
        if _render(value) != text:
            raise RuntimeError(f"stdout of {argv} is not in canonical form")
        rec["cli"].append([code, value])
    return rec


def _pack(value, mats, index):
    """Replace each matrix object by {"mat": k}, k indexing the record's list of distinct ones."""
    if isinstance(value, dict):
        if "entries" in value:
            key = json.dumps(value, sort_keys=True)
            if key not in index:
                index[key] = len(mats)
                mats.append(value)
            return {"mat": index[key]}
        return {k: _pack(v, mats, index) for k, v in value.items()}
    if isinstance(value, list):
        return [_pack(v, mats, index) for v in value]
    return value


def _unpack(value, mats):
    if isinstance(value, dict):
        if set(value) == {"mat"}:
            return mats[value["mat"]]
        return {k: _unpack(v, mats) for k, v in value.items()}
    if isinstance(value, list):
        return [_unpack(v, mats) for v in value]
    return value


def _load():
    with open(CORPUS, encoding="utf-8") as fh:
        return [_unpack(body, body.pop("mats")) for body in map(json.loads, fh)]


RECORDS = _load() if os.path.exists(CORPUS) else []


def test_corpus_is_present():
    assert len(RECORDS) >= 50


@pytest.mark.parametrize("rec", RECORDS, ids=[r["id"] for r in RECORDS])
def test_golden_instance(rec, tmp_path):
    a = mat_from_json(rec["a"])
    e, f = weight_from_json(rec["e"]), weight_from_json(rec["f"])
    assert dual_side_json(a, e, f, rec["n"]) == rec["dual"]
    assert certificates(a, e, f, rec["n"], rec["dual"]) == rec["certs"]
    results = run_calls(rec, str(tmp_path))
    assert len(results) == len(rec["cli"])
    for (argv, source, code, text), (exit_code, stdout) in zip(results, rec["cli"]):
        assert (code, text) == (exit_code, _render(stdout)), (argv, source)


def regenerate(count=52):
    import tempfile

    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp_dir, open(CORPUS, "w", encoding="utf-8") as fh:
        for idx in range(count):
            mats = []
            body = _pack(generate_record(idx, tmp_dir), mats, {})
            fh.write(json.dumps({**body, "mats": mats}, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    regenerate()
