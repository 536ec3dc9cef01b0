"""End-to-end CLI: exit codes, table output, report files, JSON round trip."""
from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from support import box_reference
from supercomod.bialgebra import PRESET_NAMES, format_monomial, get_preset
from supercomod.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def usage_error(capsys, *argv):
    """(exit code, stdout, stderr) of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# ---------------------------------------------------------------------------
# basis


def test_basis_component(capsys):
    rc, out, _ = run(capsys, "basis", "--preset", "bbar", "--left", "0,3", "--p", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert any("t0*x0^2" in ln and "parity=1" in ln for ln in lines)


def test_basis_unit(capsys):
    rc, out, _ = run(capsys, "basis", "--preset", "bbar", "--left", "0,0")
    assert rc == 0
    assert out.strip().splitlines() == ["monomial=1  left=(0, 0)  right=(0, 0)  parity=0"]


def test_basis_right_only(capsys):
    rc, out, _ = run(capsys, "basis", "--preset", "bbar", "--right", "1,0",
                     "--max-degree", "12")
    assert rc == 0
    monos = [ln.split()[0] for ln in out.strip().splitlines()]
    assert monos == ["monomial=t0", "monomial=t1", "monomial=u"]


@pytest.mark.parametrize("name,p", [("b2", 2)] + [(name, p) for name in PRESET_NAMES
                                                   if name != "b2" for p in (3, 5)])
def test_basis_right_matches_the_brute_force_oracle(capsys, name, p):
    # the rows of the right degree, in enumerate_box's order: by left degree,
    # then by sort_key; b's rows include the monomials with w
    every = box_reference(get_preset(name, p), 20)
    for box in (0, 1, 2, 4, 8, 20):
        inside = [entry for entry in every if entry[3] <= box]
        for right in {entry[2] for entry in inside}:
            flag = f"{right[0]},{right[1]}" if isinstance(right, tuple) else str(right)
            rc, out, _ = run(capsys, "basis", "--preset", name, "--p", str(p), "--right", flag,
                             "--max-degree", str(box), "--format", "csv")
            want = [[format_monomial(m), str(left), str(r), str(m.parity)]
                    for m, left, r, _ in inside if r == right]
            assert rc == 0
            assert list(csv.reader(io.StringIO(out))) == [
                ["monomial", "left", "right", "parity"]] + want, (box, right)


def test_basis_right_builds_only_what_it_prints():
    # a fresh interpreter, so that no earlier test has interned these monomials
    script = """if True:
        import contextlib, io, json
        from supercomod import cli
        from supercomod.bialgebra import cache_stats, get_preset
        get_preset("b2", 2)
        before, out = cache_stats(), io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["basis", "--preset", "b2", "--p", "2", "--right", "24",
                      "--max-degree", "60"])
        after = cache_stats()
        print(json.dumps([out.getvalue().count(chr(10)),
                          after["interned_monomials"] - before["interned_monomials"],
                          after["degree_memos"]["b2 p=2"]["right"]
                          - before["degree_memos"]["b2 p=2"]["right"]]))
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    rows, interned, right_memo = json.loads(proc.stdout)
    assert rows == 703
    assert interned <= rows and right_memo <= rows


def test_basis_unknown_preset(capsys):
    rc, _, err = run(capsys, "basis", "--preset", "nope", "--left", "0,0")
    assert rc == 2
    assert "unknown preset" in err


def test_basis_needs_a_degree(capsys):
    rc, _, err = run(capsys, "basis", "--preset", "bbar")
    assert rc == 2
    assert "--left" in err


def test_basis_degree_shape_mismatch(capsys):
    rc, _, err = run(capsys, "basis", "--preset", "atilde", "--left", "0,3")
    assert rc == 2
    assert "singly graded" in err


def test_basis_rejects_negative_degrees(capsys):
    for preset, flag in (("bbar", "--left=0,-1"), ("bbar", "--left=-3,2"),
                         ("atilde", "--right=-2")):
        rc, out, err = run(capsys, "basis", "--preset", preset, "--p", "3", flag)
        assert (rc, out) == (2, ""), flag
        assert flag.split("=")[0] in err and ">= 0" in err


@pytest.mark.parametrize("flag,value", [("--left", "x,1"), ("--right", "1,y"),
                                        ("--left", ""), ("--left", "1,2,3")])
def test_basis_rejects_a_malformed_degree(capsys, flag, value):
    rc, out, err = run(capsys, "basis", "--preset", "bbar", "--p", "3", flag, value)
    assert (rc, out) == (2, "")
    assert f"bad degree {value!r}; expected 'n' or 'a,b'" in err
    assert "invalid literal" not in err


# ---------------------------------------------------------------------------
# poincare


def test_poincare_j03(capsys):
    rc, out, _ = run(capsys, "poincare", "--object", "J:0,3")
    assert rc == 0
    assert out.strip().splitlines() == [
        "s=0  t=1  dim=1",
        "s=0  t=3  dim=1",
        "s=1  t=0  dim=1",
        "s=1  t=2  dim=1",
    ]


def test_poincare_fn1(capsys):
    rc, out, _ = run(capsys, "poincare", "--object", "Fn:1")
    assert rc == 0
    degrees = [int(ln.split()[0].split("=")[1]) for ln in out.strip().splitlines()]
    assert degrees == [1, 2, 6, 18, 54]


def test_poincare_simple(capsys):
    rc, out, _ = run(capsys, "poincare", "--object", "S:2,5", "--format", "json")
    assert rc == 0
    assert json.loads(out) == [{"s": 2, "t": 5, "dim": 1}]


def test_poincare_csv(capsys):
    rc, out, _ = run(capsys, "poincare", "--object", "J:0,2", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,t,dim"
    assert sorted(lines[1:]) == ["0,2,1", "1,1,1"]


def test_poincare_bad_object(capsys):
    rc, _, err = run(capsys, "poincare", "--object", "Q:1")
    assert rc == 2
    assert "unrecognized object id" in err
    for obj in ("J:-1,0", "Fn:-3", "Jn:-2", "F:-1,0", "PhiF:-1"):
        rc, out, err = run(capsys, "poincare", "--object", obj)
        assert (rc, out) == (2, ""), obj
        assert "indices must be >= 0" in err
    for obj in ("J:1,x", "J:1,3,", "H^x"):
        rc, out, err = run(capsys, "poincare", "--object", obj)
        assert (rc, out) == (2, ""), obj
        assert f"object id {obj!r}: indices must be integers" in err
    rc, out, err = run(capsys, "poincare", "--object", "J:1,0", "--max-degree", "-4")
    assert (rc, out) == (2, "")
    assert "--max-degree" in err


@pytest.mark.parametrize("argv", [
    ("hom", "--source", "F:1,1", "--target", "J:1,1", "--max-degree", "2"),
    ("poincare", "--object", "Fn:5", "--max-degree", "4"),
    ("poincare", "--object", "PhiF:3", "--max-degree", "8"),
    ("dump", "--object", "F:1,1", "--max-degree", "2"),
])
def test_an_object_its_box_leaves_empty_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "has no basis element in the box" in err


# ---------------------------------------------------------------------------
# hom


@pytest.mark.parametrize(
    "src,tgt,dim",
    [("F:1,1", "J:0,2", 1), ("S:1,0", "S:0,1", 0), ("Jn:2", "Jn:2", 1)],
)
def test_hom_dims(capsys, src, tgt, dim):
    rc, out, _ = run(capsys, "hom", "--source", src, "--target", tgt)
    assert rc == 0
    assert out.strip() == str(dim)


def test_hom_basis_dump(capsys):
    rc, out, _ = run(capsys, "hom", "--source", "Jn:2", "--target", "Jn:2", "--basis")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1"
    assert lines[1].startswith("f0:") and "t0 -> t0" in lines[1]


def test_hom_json(capsys):
    rc, out, _ = run(capsys, "hom", "--source", "F:1,1", "--target", "J:0,2",
                     "--format", "json", "--basis")
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim"] == 1
    assert len(doc["basis"]) == 1


def test_options_a_subcommand_does_not_read_are_rejected(capsys, tmp_path):
    # hom has no csv output, dump writes JSON only, and load reads its file
    # alone: each rejects the options it would ignore
    path = tmp_path / "j03.json"
    assert run(capsys, "dump", "--object", "J:0,3", "--out", str(path))[0] == 0
    code, out, err = usage_error(capsys, "hom", "--source", "F:1,1", "--target", "J:0,2",
                                 "--format", "csv")
    assert (code, out) == (2, "") and "invalid choice: 'csv'" in err
    for option, argv in (("--format", ("dump", "--object", "J:0,3", "--format", "json")),
                         ("--p", ("load", "--p", "5", str(path))),
                         ("--max-degree", ("load", "--max-degree", "4", str(path))),
                         ("--format", ("load", "--format", "json", str(path)))):
        code, out, err = usage_error(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"unrecognized arguments: {option}" in err, argv


# ---------------------------------------------------------------------------
# verify


def test_verify_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "mahowald", "--p", "3", "--n", "2")
    assert rc == 0
    assert out.startswith("mahowald: pass")


@pytest.mark.parametrize("suite, option, value", [
    ("axioms", "--n", "5"),
    ("brown_gitler", "--max-degree", "5"),
    ("j0n", "--max-degree", "5"),
])
def test_verify_rejects_an_option_the_suite_does_not_read(capsys, suite, option, value):
    rc, out, err = run(capsys, "verify", "--suite", suite, option, value)
    assert (rc, out) == (2, "")
    assert option in err and suite in err


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "bogus")
    assert rc == 2
    assert "unknown suite" in err


def test_verify_all_at_p2_runs_the_p2_suites(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "all", "--p", "2",
                     "--max-degree", "12", "--format", "json")
    assert rc == 0
    assert [r["suite"] for r in json.loads(out)] == ["axioms", "unstable", "h_tensor"]


def test_verify_odd_prime_suite_at_p2(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "j0n", "--p", "2")
    assert (rc, out) == (2, "")
    assert "'j0n' needs an odd prime" in err


def test_verify_report_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "verify", "--suite", "brown_gitler", "--n", "2",
                     "--out", str(path), "--format", "json")
    assert rc == 0
    on_disk = json.loads(path.read_text())
    assert json.loads(out) == on_disk
    assert on_disk[0]["suite"] == "brown_gitler"
    assert on_disk[0]["status"] == "pass"


@pytest.mark.parametrize("argv", [("verify", "--suite", "j0n", "--n", "1"),
                                  ("dump", "--object", "J:0,1")], ids=["verify", "dump"])
def test_out_path_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # verify fails before it runs any suite
    monkeypatch.setattr("supercomod.cli.run_all", lambda **kw: pytest.fail("a suite ran"))
    path = tmp_path / "missing" / "x.json"
    rc, out, err = run(capsys, *argv, "--out", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_verify_keeps_an_old_report_when_a_suite_raises(capsys, tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old report")
    rc, out, _ = run(capsys, "verify", "--suite", "unstable", "--max-degree", "3",
                     "--out", str(path))
    assert (rc, out) == (2, "")
    assert path.read_text() == "old report"


def test_verify_leaves_no_report_file_when_a_suite_raises(capsys, tmp_path):
    path = tmp_path / "new.json"
    rc, out, _ = run(capsys, "verify", "--suite", "all", "--max-degree", "3",
                     "--out", str(path))
    assert (rc, out) == (2, "")
    assert not path.exists()


def test_verify_csv(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "mahowald", "--n", "1",
                     "--m", "6", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "suite,check,status,witness"


# ---------------------------------------------------------------------------
# dump / load


def test_dump_load_round_trip(capsys, tmp_path):
    path = tmp_path / "j03.json"
    rc, _, _ = run(capsys, "dump", "--object", "J:0,3", "--out", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "load", str(path))
    assert rc == 0
    assert "dim 4" in out

    doc = json.loads(path.read_text())
    assert doc["preset"] == "bbar"
    assert len(doc["components"]) == 4


def test_dump_stdout(capsys):
    rc, out, _ = run(capsys, "dump", "--object", "S:0,0")
    assert rc == 0
    doc = json.loads(out)
    assert [c["labels"] for c in doc["components"]] == [["e"]]


def test_dump_independent_of_hash_seed():
    # F objects are duals; their coaction terms must not follow set order
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "supercomod.cli", "dump", "--object", "F:2,0",
             "--max-degree", "20"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["name"] == "F(2,0)"


def test_verify_json_independent_of_hash_seed():
    # monomials hash by identity; no report may depend on set or hash order
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv in (["--suite", "axioms"], ["--suite", "brown_gitler", "--n", "4"]):
        procs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "supercomod.cli", "verify", *argv, "--format", "json"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
        outs = [proc.communicate(timeout=300) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outs
        assert outs[0][0] == outs[1][0], argv
        assert json.loads(outs[0][0])[0]["status"] == "pass"


@pytest.mark.parametrize(
    "edit, message",
    [("not json at all", "load failed"),
     ("[]", "expected a JSON object, got []"),
     ('"x"', 'expected a JSON object, got "x"'),
     ("null", "expected a JSON object, got null"),
     ({"coaction": {"monomial": 5}}, "coaction[0] (t0 -> x0) monomial 5 is not a string"),
     ({"box": -5}, "box: -5 is negative"),
     ({"components": {"bidegree": [0, 1, 2]}},
      "components[0] bidegree [0, 1, 2] is not a bidegree of bbar"),
     ({"components": {"labels": "ab"}}, "components[0] labels 'ab': not a list of strings"),
     ({"name": 5}, "name: 5 is not a string"),
     ({"preset": ["b"]}, "preset: ['b'] is not a string"),
     ({"components": [[1]]}, "components[0]: [1] is not an object"),
     ({"components": ("set", {"a": 1})}, 'components: {"a": 1} is not a list'),
     ({"coaction": ["x"]}, 'coaction[0]: "x" is not an object'),
     ({"coaction": {"to_label": ["x0"]}},
      "coaction[0] (t0 -> ['x0']) to_label ['x0'] is not a string"),
     ({"coaction": {"from_label": ["t0"]}},
      "coaction[0] (['t0'] -> x0) from_label ['t0'] is not a string"),
     ({"components": {"bidegree": ...}}, "components[0]: missing key 'bidegree'"),
     ({"coaction": {"coeff": ...}}, "coaction[0]: missing key 'coeff'"),
     ({"coaction": {"from_label": ...}}, "coaction[0]: missing key 'from_label'"),
     ({"preset": ...}, "document: missing key 'preset'"),
     ({"components": [{"bidegree": [0, 0], "labels": ["a"]},
                      {"bidegree": [0, 0], "labels": ["b"]}],
       "coaction": [{"from_label": "b", "to_label": "b", "monomial": "1", "coeff": 1}]},
      "components[1] bidegree [0, 0] is listed twice"),
     ({"box": 1}, "degree (0, 1) lies above box = 1")],
    ids=["not-json", "list", "string", "null", "monomial-int", "box-negative",
         "bidegree-three", "labels-string", "name-int", "preset-list",
         "component-list", "components-object", "coaction-string", "to-label-list",
         "from-label-list", "bidegree-missing", "coeff-missing", "from-label-missing",
         "preset-missing", "bidegree-twice", "degree-above-box"],
)
def test_load_garbage(capsys, tmp_path, edit, message):
    # a text as it stands, or J(0,1) with top-level keys (or keys of the
    # first entry of a list, or with ("set", value) the key itself when the
    # value is an object) rewritten, and deleted where the value is ...
    path = tmp_path / "bad.json"
    if isinstance(edit, str):
        path.write_text(edit)
    else:
        doc = json.loads(run(capsys, "dump", "--object", "J:0,1")[1])
        for key, value in edit.items():
            if isinstance(value, dict):
                target, changes = doc[key][0], value
            else:
                target, changes = doc, {key: value[1] if isinstance(value, tuple) else value}
            for k, v in changes.items():
                if v is ...:
                    del target[k]
                else:
                    target[k] = v
        path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "load", str(path))
    assert rc == 1
    assert "load failed" in err and message in err


def test_load_reads_dumps_that_carry_a_margin(capsys, tmp_path):
    # dumps once stored a "margin" of layers past the box: load ignores the
    # key, and refuses a component that lies past the box
    path = tmp_path / "old.json"
    doc = json.loads(run(capsys, "dump", "--object", "J:1,3")[1])
    path.write_text(json.dumps({**doc, "margin": 0}))
    rc, out, _ = run(capsys, "load", str(path))
    assert rc == 0 and out.startswith("J(1,3): preset bbar p=3 box=None")
    doc = json.loads(run(capsys, "dump", "--object", "H", "--p", "3", "--max-degree", "31")[1])
    path.write_text(json.dumps({**doc, "box": 30, "margin": 1}))
    rc, _, err = run(capsys, "load", str(path))
    assert rc == 1 and err == "load failed: degree (1, 15) lies above box = 30\n"


def test_load_broken_coaction(capsys, tmp_path):
    rc, out, _ = run(capsys, "dump", "--object", "J:0,2")
    doc = json.loads(out)
    # doubling a counit-visible coefficient cannot be a basis rescaling
    [entry] = [e for e in doc["coaction"]
               if e["from_label"] == e["to_label"] == "x0^2"]
    entry["coeff"] = 2
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "load", str(path))
    assert rc == 1
    assert "invalid comodule" in err


@pytest.mark.parametrize(
    "field, value, message",
    [("coeff", 1.0, "coeff: 1.0 is not an integer"),
     ("coeff", True, "coeff: True is not an integer"),
     ("coeff", 2.5, "coeff: 2.5 is not an integer"),
     ("bidegree", 1.0, "bidegree [0, 1.0]: 1.0 is not an integer"),
     ("bidegree", True, "bidegree [0, True]: True is not an integer")],
)
def test_load_rejects_inexact_numbers(capsys, tmp_path, field, value, message):
    # J(0,1) with every coefficient, or the last component of each
    # bidegree, rewritten as a float or a bool
    rc, out, _ = run(capsys, "dump", "--object", "J:0,1")
    doc = json.loads(out)
    if field == "coeff":
        for entry in doc["coaction"]:
            entry["coeff"] = value
    else:
        for entry in doc["components"]:
            if entry["bidegree"][-1] == 1:
                entry["bidegree"][-1] = value
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "load", str(path))
    assert rc == 1
    assert "load failed" in err and message in err


def test_load_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "load", str(tmp_path / "does_not_exist.json"))
    assert rc == 1


@pytest.mark.parametrize("extra", [(), ("--right", "1,0")])
def test_basis_with_left_rejects_max_degree(capsys, extra):
    rc, out, err = run(capsys, "basis", "--preset", "bbar", "--left", "1,0",
                       "--max-degree", "3", *extra)
    assert (rc, out) == (2, "")
    assert "--max-degree" in err


def test_basis_with_left_runs_under_the_env_box(capsys, monkeypatch):
    rc, plain, _ = run(capsys, "basis", "--preset", "bbar", "--left", "1,0")
    monkeypatch.setenv("SUPERCOMOD_MAX_DEGREE", "3")
    rc_env, out, _ = run(capsys, "basis", "--preset", "bbar", "--left", "1,0")
    assert rc == rc_env == 0 and out == plain
    assert [ln.split()[0] for ln in out.strip().splitlines()] == ["monomial=u"]


# ---------------------------------------------------------------------------
# environment overrides


def test_env_prime(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCOMOD_P", "5")
    rc, out, _ = run(capsys, "basis", "--preset", "bbar", "--left", "0,5")
    assert rc == 0
    assert len(out.strip().splitlines()) == 4  # vs 6 at p=3


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCOMOD_P", "5")
    rc, out, _ = run(capsys, "basis", "--preset", "bbar", "--left", "0,5",
                     "--p", "3")
    assert rc == 0
    assert len(out.strip().splitlines()) == 6


def test_env_box(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCOMOD_MAX_DEGREE", "10")
    rc, out, _ = run(capsys, "poincare", "--object", "Fn:1")
    assert rc == 0
    degrees = [int(ln.split()[0].split("=")[1]) for ln in out.strip().splitlines()]
    assert degrees == [1, 2, 6]


def test_env_box_reaches_verify(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCOMOD_MAX_DEGREE", "8")
    rc, out, _ = run(capsys, "verify", "--suite", "axioms", "--format", "json")
    assert rc == 0
    assert json.loads(out)[0]["params"]["box"] == 8
    rc, out, _ = run(capsys, "verify", "--suite", "axioms", "--format", "json",
                     "--max-degree", "6")
    assert rc == 0
    assert json.loads(out)[0]["params"]["box"] == 6
    # a default is not a flag given, so a suite that reads no box runs under it
    rc, out, _ = run(capsys, "verify", "--suite", "brown_gitler", "--n", "2")
    assert rc == 0 and out.startswith("brown_gitler: pass")


def test_env_bad_value(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCOMOD_P", "three")
    rc, _, err = run(capsys, "basis", "--preset", "bbar", "--left", "0,0")
    assert rc == 2
    assert "SUPERCOMOD_P" in err


@pytest.mark.parametrize("p, argv, least", [
    ("3", ["--suite", "unstable", "--max-degree", "0"], 6),
    ("2", ["--suite", "all", "--max-degree", "1"], 2),
    ("3", ["--suite", "fn_structure", "--max-degree", "5"], 6),
    ("3", ["--suite", "mahowald", "--m", "3"], ("m_max", 4)),
    ("3", ["--suite", "all", "--max-degree", "3"], 6),  # unstable's, the first suite to raise
])
def test_verify_refuses_a_box_below_the_least(capsys, p, argv, least):
    # least is the least box, or (parameter, least value) for another one
    param, least = least if isinstance(least, tuple) else ("box", least)
    rc, out, err = run(capsys, "verify", "--p", p, *argv)
    assert rc == 2 and out == ""
    assert f"the least {param} for these parameters is {least}" in err
