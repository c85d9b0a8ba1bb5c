import json
import random

import pytest

from cmgrass import flows, randpoints as rp, serialize
from cmgrass.cli import main
from cmgrass.cmspace import CMPoint, Quadruple
from cmgrass.scalar import sc


@pytest.fixture()
def point_file(tmp_path):
    p = CMPoint(n=1, r=1, lam=[0], alpha=[0], vrow=[[1]], wcol=[[-1]])
    f = tmp_path / "p.json"
    serialize.save(p, f)
    return str(f)


def test_verify_suite_tau(capsys):
    assert main(["verify", "--suite", "tau", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "tau: PASS (3 cases)" in out
    assert "seed: 7" in out


def test_verify_all_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--suite", "all", "--seed", "7", "--mode", "exact",
                 "--json-out", str(out1)]) == 0
    assert main(["verify", "--suite", "all", "--seed", "7", "--mode", "exact",
                 "--json-out", str(out2)]) == 0
    assert json.loads(out1.read_text()) == json.loads(out2.read_text())


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


def test_point_moment_is_zero(point_file, capsys):
    assert main(["point", "moment", "--in", point_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [[{"mode": "exact", "re": "0", "im": "0"}]]


def test_point_b_twice_is_identity(point_file, tmp_path, capsys):
    assert main(["point", "b", "--in", point_file]) == 0
    f2 = tmp_path / "b.json"
    f2.write_text(capsys.readouterr().out)
    assert main(["point", "b", "--in", str(f2)]) == 0
    back = serialize.from_json(json.loads(capsys.readouterr().out))
    orig = serialize.load(point_file)
    from cmgrass.cmspace import canonicalize
    assert canonicalize(back) == orig


def test_point_canon_round_trip(tmp_path, capsys):
    rng = random.Random(1)
    p = rp.rand_cmpoint(rng, 3, 2)
    from cmgrass.cmspace import from_cd_coords
    f = tmp_path / "q.json"
    serialize.save(from_cd_coords(p), f)
    assert main(["point", "canon", "--in", str(f)]) == 0
    got = serialize.from_json(json.loads(capsys.readouterr().out))
    assert got == p


def test_baker_example_and_outside_big_cell(point_file, capsys):
    assert main(["baker", "--in", point_file, "--x", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    entry = data["psi"][0][0]
    assert entry["num"][0]["re"] == "-1" and entry["num"][1]["re"] == "1"
    assert entry["den"][1]["re"] == "1" and entry["den"][0]["re"] == "0"
    assert main(["baker", "--in", point_file, "--x", "0"]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "OutsideBigCell"
    assert err["det"]["re"] == "0"


def test_baker_psi2_matches(point_file, capsys):
    assert main(["baker", "--in", point_file, "--x", "1"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["baker", "--in", point_file, "--x", "1", "--psi2"]) == 0
    det = json.loads(capsys.readouterr().out)
    assert plain["psi"] == det["psi"]


def test_flow_cli(point_file, capsys):
    assert main(["flow", "--in", point_file, "--k", "1",
                 "--alpha", '[["2"]]', "--t", "1/2"]) == 0
    moved = serialize.from_json(json.loads(capsys.readouterr().out))
    assert moved.n == 1


def _rank2_point_file(tmp_path):
    p = rp.rand_cmpoint(random.Random(4), 2, 2)
    f = tmp_path / "p2.json"
    serialize.save(p, f)
    return p, str(f)


def test_flow_generic_exact_alpha_is_json_domain_error(tmp_path, capsys):
    _, f = _rank2_point_file(tmp_path)
    assert main(["flow", "--in", f, "--k", "1",
                 "--alpha", "[[1,1],[0,2]]", "--t", "1"]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "UnsupportedExactExponential"
    assert "nilpotent" in err["message"]


def test_point_canon_non_diagonal_exact_is_json_domain_error(tmp_path, capsys):
    q = Quadruple(n=2, r=1, X=[[0, 1], [0, 0]], Y=[[1, 1], [0, 2]],
                  v=[[1], [0]], w=[[0, 1]])
    f = tmp_path / "q.json"
    serialize.save(q, f)
    assert main(["point", "canon", "--in", str(f)]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "NonDiagonalExact"


def test_flow_generic_alpha_numeric_mode(tmp_path, capsys):
    p, f = _rank2_point_file(tmp_path)
    assert main(["flow", "--in", f, "--mode", "numeric", "--k", "1",
                 "--alpha", "[[1,1],[0,2]]", "--t", "1/4"]) == 0
    moved = serialize.from_json(json.loads(capsys.readouterr().out))
    want = flows.flow_closed(p.to_numeric(), 1,
                             [[sc(1), sc(1)], [sc(0), sc(2)]], sc(0.25))
    assert not moved.is_exact and moved == want


def test_tau_cli(capsys):
    assert main(["tau", "1", "0", "0", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["re"] == "1"


def test_lattice_cli_example(capsys):
    assert main(["lattice", "--example", "V",
                 "--order-bound", "2", "--degree-bound", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    gens = data["generators"]
    assert len(gens) == 2
    # (z, 1) and (0, z)
    assert [c["re"] for c in gens[0][0]] == ["0", "1"]
    assert [c["re"] for c in gens[0][1]] == ["1"]
    assert [c["re"] for c in gens[1][1]] == ["0", "1"]


def test_ansatz_cli_example(capsys):
    assert main(["ansatz", "--example", "--x", "1", "--x", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 2
    assert all(not rep["solvable"] for rep in data)


def test_bispect_cli(point_file, capsys):
    assert main(["bispect", "--in", point_file, "--x", "2",
                 "--depth", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kernel_b"] is True


def test_missing_file_is_usage_error(capsys):
    assert main(["point", "moment", "--in", "/nonexistent.json"]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["point", "moment", "--in", str(bad)]) == 2


def test_missing_field_is_named_usage_error(point_file, tmp_path, capsys):
    data = json.loads(open(point_file).read())
    del data["r"]
    bad = tmp_path / "no_r.json"
    bad.write_text(json.dumps(data))
    assert main(["point", "moment", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: missing field 'r'"
    assert captured.out == ""
