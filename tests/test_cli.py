"""End-to-end CLI: exit codes, table output, report files, JSON round trip."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supercomod.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
    rc, out, err = run(capsys, "poincare", "--object", "J:1,0", "--max-degree", "-4")
    assert (rc, out) == (2, "")
    assert "--max-degree" in err


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


# ---------------------------------------------------------------------------
# verify


def test_verify_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "mahowald", "--p", "3", "--n", "2")
    assert rc == 0
    assert out.startswith("mahowald: pass")


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


def test_load_garbage(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    rc, _, err = run(capsys, "load", str(path))
    assert rc == 1
    assert "load failed" in err


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


def test_load_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "load", str(tmp_path / "does_not_exist.json"))
    assert rc == 1


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


def test_env_bad_value(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCOMOD_P", "three")
    rc, _, err = run(capsys, "basis", "--preset", "bbar", "--left", "0,0")
    assert rc == 2
    assert "SUPERCOMOD_P" in err
