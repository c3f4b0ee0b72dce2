"""Command-line behavior: subcommands, exit statuses and deterministic
JSON reports."""

import json
import os
import subprocess
import sys

import pytest

import quivsheaf
from quivsheaf.cli import main

from helpers import abc_quiver, chain_quiver, make_edge_maps_drift, parallel_quiver
from quivsheaf import LinearMap, NatTrans, Presheaf, Representation, constant_presheaf
from quivsheaf.functors import ComponentExtension
from quivsheaf.io import (
    dumps_canonical,
    presheaf_to_json,
    quiver_to_json,
    representation_to_json,
)


@pytest.fixture
def files(tmp_path):
    q = abc_quiver()
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(dumps_canonical(obj))
        paths[name] = str(p)
        return str(p)

    write("quiver.json", quiver_to_json(q))
    write("cycle.json", {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "e", "src": "a", "dst": "b"},
            {"id": "f", "src": "b", "dst": "a"},
        ],
    })
    write("const.json", presheaf_to_json(constant_presheaf(q, 1)))
    V = Representation(
        q,
        {"a": 1, "b": 1, "c": 1},
        {"e1": LinearMap.from_rows([["2/3"]]), "e2": LinearMap.identity(1)},
    )
    write("rep.json", representation_to_json(V))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths["bad.json"] = str(bad)
    paths["tmp"] = str(tmp_path)
    return paths


def test_validate_exit_codes(files, capsys):
    assert main(["validate", "--quiver", files["quiver.json"]]) == 0
    assert main(["validate", "--quiver", files["cycle.json"]]) == 1
    out = capsys.readouterr().out
    assert "DirectedCycle" in out or "cycle" in out
    assert main(["validate", "--quiver", files["bad.json"]]) == 2


def test_audit_exit_codes(files, capsys):
    assert main(["audit", "--quiver", files["quiver.json"], "--topology", "coarse"]) == 0
    assert (
        main(["audit", "--quiver", files["quiver.json"], "--topology", "edge"]) == 1
    )
    assert (
        main(["audit", "--quiver", files["quiver.json"], "--topology", "bogus"]) == 2
    )
    capsys.readouterr()


def test_audit_over_the_sieve_limit_exits_2_before_listing(tmp_path, capsys):
    # v1 -> ... -> v1500: v15 is the first vertex with more than 14 paths
    path = tmp_path / "chain.json"
    path.write_text(dumps_canonical(quiver_to_json(chain_quiver(1500))))
    assert main(["audit", "--quiver", str(path), "--topology", "edge"]) == 2
    assert "15 morphisms into 'v15'" in capsys.readouterr().err


def test_check_sheaf(files, capsys):
    rc = main(
        [
            "check-sheaf",
            "--quiver",
            files["quiver.json"],
            "--presheaf",
            files["const.json"],
            "--topology",
            "discrete",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    # a representation file is the wrong kind
    rc = main(
        [
            "check-sheaf",
            "--quiver",
            files["quiver.json"],
            "--presheaf",
            files["rep.json"],
        ]
    )
    assert rc == 2


def test_check_sheaf_failure_reports_witness(files, tmp_path, capsys):
    q = parallel_quiver()
    (tmp_path / "pq.json").write_text(dumps_canonical(quiver_to_json(q)))
    (tmp_path / "pc.json").write_text(
        dumps_canonical(presheaf_to_json(constant_presheaf(q, 1)))
    )
    rc = main(
        [
            "check-sheaf",
            "--quiver",
            str(tmp_path / "pq.json"),
            "--presheaf",
            str(tmp_path / "pc.json"),
            "--topology",
            "discrete",
            "--format",
            "json",
        ]
    )
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    verdict = report["results"][0]["verdict"]
    assert verdict["holds"] is False
    assert verdict["failing_sieve"]["members"] == ["e", "f"]


def test_internal_error_exits_3(files, monkeypatch, capsys):
    # a path-map table that is not functorial is the program's fault, not
    # a failed sheaf condition and not a bad input; coarse reads no table,
    # discrete builds c's for the sieve generated by a -> b -> c
    make_edge_maps_drift(monkeypatch)
    rc = main(["check-sheaf", "--quiver", files["quiver.json"], "--presheaf", files["const.json"], "--topology", "discrete"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: AssertionError: restriction maps into 'c'")


def assert_functors_exits_3(files, capsys, message):
    rc = main(["functors", "--quiver", files["quiver.json"], "--presheaf", files["const.json"], "--presheaf", files["const.json"]])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: AssertionError: {message}")


def test_non_natural_solver_output_exits_3(files, monkeypatch, capsys):
    # a kernel vector moved off the solution space is the solver's fault,
    # not a usage error (2) and not a failed adjunction (1)
    # kernel vectors are int numerators over one denominator d, so adding d
    # to the first numerator shifts the first entry by one
    original = quivsheaf.presheaf.kernel_vectors

    def shifted(m, ncols):
        vectors, d = original(m, ncols)
        return [[v[0] + d] + v[1:] for v in vectors], d

    monkeypatch.setattr(quivsheaf.presheaf, "kernel_vectors", shifted)
    assert_functors_exits_3(files, capsys, "solver produced a non-natural transformation")


def test_non_natural_unit_composite_exits_3(files, monkeypatch, capsys):
    # a unit that is zero at one vertex only is not natural, so neither are
    # its composites; that is the program's fault, not match=false
    original = quivsheaf.functors.left_adjoint_component

    def broken(F):
        ext = original(F)
        unit = NatTrans({**ext.unit.components, "a": LinearMap.zero(ext.presheaf.dim("a"), F.dim("a"))})
        return ComponentExtension(ext.presheaf, unit)

    monkeypatch.setattr(quivsheaf.functors, "left_adjoint_component", broken)
    assert_functors_exits_3(files, capsys, "a composite with the adjunction unit is not natural")


def test_dualize_round_trip(files, tmp_path, capsys):
    out = tmp_path / "dual.json"
    rc = main(
        [
            "dualize",
            "--quiver",
            files["quiver.json"],
            "--representation",
            files["rep.json"],
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "presheaf"
    assert data["maps"]["e1"] == [["2/3"]]
    # dualizing a presheaf file is a kind mismatch
    rc = main(
        [
            "dualize",
            "--quiver",
            files["quiver.json"],
            "--representation",
            files["const.json"],
            "--output",
            "-",
        ]
    )
    assert rc == 2
    capsys.readouterr()


def test_functors_report(files, capsys):
    rc = main(
        [
            "functors",
            "--quiver",
            files["quiver.json"],
            "--presheaf",
            files["const.json"],
            "--presheaf",
            files["const.json"],
            "--format",
            "json",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["adjunction"]["match"] is True
    assert all(item["comparison_is_iso"] for item in report["pointwise_extension"])
    assert report["monodromy"]["all_identity"] is True
    # wrong arity is a usage error
    rc = main(
        [
            "functors",
            "--quiver",
            files["quiver.json"],
            "--presheaf",
            files["const.json"],
        ]
    )
    assert rc == 2
    capsys.readouterr()


def test_json_reports_are_byte_identical(files, capsys):
    def run(args):
        assert main(args) in (0, 1)
        return capsys.readouterr().out

    for args in (
        ["audit", "--quiver", files["quiver.json"], "--topology", "discrete+empty", "--format", "json", "--seed", "1"],
        ["check-sheaf", "--quiver", files["quiver.json"], "--presheaf", files["const.json"], "--format", "json", "--seed", "1"],
        ["functors", "--quiver", files["quiver.json"], "--presheaf", files["const.json"], "--presheaf", files["const.json"], "--format", "json", "--seed", "1"],
    ):
        assert run(args) == run(args)


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_boolean_dims_are_a_parse_error(tmp_path, capsys):
    quiver = tmp_path / "q.json"
    quiver.write_text(dumps_canonical({"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "dst": "b"}]}))
    presheaf = tmp_path / "f.json"
    presheaf.write_text(
        dumps_canonical({"kind": "presheaf", "dims": {"a": True, "b": True}, "maps": {"e": [["1"]]}})
    )
    rc = main(["check-sheaf", "--quiver", str(quiver), "--presheaf", str(presheaf), "--topology", "discrete"])
    assert rc == 2
    assert "bad dimension" in capsys.readouterr().err


def test_commands_in_one_process_match_fresh_runs(files, tmp_path, capsys):
    """The parser is built once per process; no command may leak state
    into the next one."""
    q = files["quiver.json"]
    dual = str(tmp_path / "dual.json")
    assert main(["dualize", "--quiver", q, "--representation", files["rep.json"], "--output", dual]) == 0
    commands = [
        ["check-sheaf", "--quiver", q, "--presheaf", files["const.json"], "--presheaf", dual, "--format", "json"],
        ["check-sheaf", "--quiver", q, "--presheaf", dual, "--topology", "discrete", "--format", "json"],
        ["functors", "--quiver", q, "--presheaf", dual, "--presheaf", files["const.json"], "--format", "json"],
    ]
    capsys.readouterr()
    in_process = []
    for argv in commands:
        rc = main(argv)
        in_process.append((rc, capsys.readouterr().out))
    assert len(json.loads(in_process[1][1])["results"]) == 1

    src = os.path.dirname(os.path.dirname(quivsheaf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, (rc, out) in zip(commands, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "quivsheaf.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (fresh.returncode, fresh.stdout) == (rc, out)
