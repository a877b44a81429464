import hashlib
import json
import os
import re

import pytest

from borderlab.cli import main
from borderlab import jsonio

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def run(args):
    return main(args)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture
def curve_file():
    return os.path.join(DATA, "binary_cubics_curve.json")


@pytest.fixture
def witness_file():
    return os.path.join(DATA, "binary_cubics_witness.json")


# ---------------------------------------------------------------------------
# cim
# ---------------------------------------------------------------------------

def test_cim_worked_example(curve_file, tmp_path):
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["decomposition"]["weights"] == [-2, 2]
    assert obj["verified"] is True


def test_cim_identity(tmp_path):
    from borderlab import QQ, SeriesMatrix

    path = tmp_path / "id.json"
    path.write_text(json.dumps(jsonio.matrix_to_obj(SeriesMatrix.identity(QQ, 2))))
    out = tmp_path / "dec.json"
    assert run(["cim", str(path), "--out", str(out)]) == 0
    assert read_json(out)["decomposition"]["weights"] == [0, 0]


def test_cim_singular_exits_3(tmp_path, capsys):
    from borderlab import QQ, LaurentSeries, SeriesMatrix

    one = LaurentSeries.one(QQ)
    m = SeriesMatrix(QQ, [[one, one], [one, one]])
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(jsonio.matrix_to_obj(m)))
    assert run(["cim", str(path)]) == 3
    assert "zero" in capsys.readouterr().err


def test_cim_malformed_input_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["cim", str(path)]) == 3


def test_cim_uncertifiable_pivot_exits_2(tmp_path, capsys):
    # an entry that is zero to precision 0 can never be pivoted, at any
    # retry precision: the contract is exit 2 (inconclusive)
    obj = {
        "field": {"kind": "Q"},
        "entries": [
            [
                {"val": 0, "coeffs": [], "trunc": 0, "exact": False},
                {"val": 1, "coeffs": ["1"], "trunc": 3, "exact": False},
            ],
            [
                {"val": 2, "coeffs": ["1"], "trunc": 4, "exact": False},
                {"val": 0, "coeffs": [], "trunc": 0, "exact": False},
            ],
        ],
    }
    path = tmp_path / "fuzzy.json"
    path.write_text(json.dumps(obj))
    assert run(["cim", str(path)]) == 2
    assert "inconclusive" in capsys.readouterr().err


def test_cim_factor_tuple_input(curve_file, tmp_path):
    from borderlab import QQ, SeriesMatrix

    tup = {
        "factors": [
            read_json(curve_file),
            jsonio.matrix_to_obj(SeriesMatrix.diag_powers(QQ, [2, -2])),
        ]
    }
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(tup))
    out = tmp_path / "dec.json"
    assert run(["cim", str(path), "--out", str(out)]) == 0
    obj = read_json(out)
    weights = [fac["decomposition"]["weights"] for fac in obj["factors"]]
    assert weights == [[-2, 2], [-2, 2]]


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def test_witness_worked_example(witness_file, tmp_path):
    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 0
    obj = read_json(out)
    # q~ = y^3 (basis position 4), shared limit = 0
    assert obj["qTilde"]["entries"] == [{"idx": [4], "value": "1"}]
    assert obj["sharedLimit"]["entries"] == []
    assert obj["cim"][0]["weights"] == [-2, 2]


def test_witness_identity_curve(tmp_path):
    from borderlab import QQ, SeriesMatrix, unit_tensor

    inp = tmp_path / "in.json"
    inp.write_text(
        json.dumps(
            {
                "g": [jsonio.matrix_to_obj(SeriesMatrix.identity(QQ, 2))] * 3,
                "p": jsonio.tensor_to_obj(unit_tensor(QQ, 2, 3)),
            }
        )
    )
    out = tmp_path / "w.json"
    assert run(["witness", str(inp), "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["sharedLimit"] == obj["p"]


def test_witness_no_limit_exits_1(tmp_path, capsys):
    from borderlab import QQ, SeriesMatrix, Tensor

    bad = SeriesMatrix.diag_powers(QQ, [-1, 0])
    p = Tensor.from_entries(QQ, (2,), {(1,): QQ.one()})
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"g": [jsonio.matrix_to_obj(bad)], "p": jsonio.tensor_to_obj(p)}))
    assert run(["witness", str(inp)]) == 1
    assert "specialize" in capsys.readouterr().err


def test_witness_split_input_files(witness_file, tmp_path):
    combined = read_json(witness_file)
    g_path = tmp_path / "g.json"
    p_path = tmp_path / "p.json"
    g_path.write_text(json.dumps(combined["g"]))
    p_path.write_text(json.dumps(combined["p"]))
    out = tmp_path / "w.json"
    assert run(["witness", "--g", str(g_path), "--p", str(p_path), "--lift", "sym3",
                "--out", str(out)]) == 0
    assert read_json(out)["qTilde"]["entries"] == [{"idx": [4], "value": "1"}]


def test_gen_witness_round_trip(tmp_path):
    inp = tmp_path / "instance.json"
    assert run(["gen", "--kind", "witness", "--dims", "3,2", "--seed", "5", "--out", str(inp)]) == 0
    out = tmp_path / "w.json"
    assert run(["witness", str(inp), "--out", str(out)]) == 0


def test_gen_cim_round_trip(tmp_path):
    inp = tmp_path / "m.json"
    assert run(["gen", "--kind", "cim", "--size", "3", "--seed", "9", "--out", str(inp)]) == 0
    assert run(["cim", str(inp), "--out", str(tmp_path / "dec.json")]) == 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_9(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--n", "9", "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["verdict"] == "Certified"
    assert obj["r"] == 3
    assert obj["jacobianRank"] == 14


def test_certify_infeasible_exits_3(tmp_path, capsys):
    assert run(["certify", "--n", "10", "--r", "4"]) == 3
    assert "(r+3)^2/4" in capsys.readouterr().err


def test_certify_4(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--n", "4", "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["r"] == 1 and obj["verdict"] == "Certified"


def test_certify_exact_rational_rank(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--n", "8", "--field", "q", "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["verdict"] == "Certified"
    assert obj["prime"] is None


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["bounds", "--d", "3", "--n-max", "200", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,d3_lower,generic_subrank,dmz_lo,border_upper,excess_flag"
    row200 = lines[200].split(",")
    assert row200[:3] == ["200", "25", "24"] and row200[5] == "true"
    row9 = lines[9].split(",")
    assert row9[:3] == ["9", "3", "5"] and row9[5] == "false"


def test_bounds_empty_range_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["bounds", "--d", "3", "--n-max", "0", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().strip() == "n,d3_lower,generic_subrank,dmz_lo,border_upper,excess_flag"


def test_bounds_bad_range_exits_3():
    assert run(["bounds", "--d", "3", "--n-max", "-2"]) == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fresh_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--n", "9", "--out", str(cert_path)]) == 0
    assert run(["verify", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert "jacobian-rank: ok" in out


def test_verify_under_fresh_prime_seed(tmp_path):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--n", "8", "--seed", "1", "--out", str(cert_path)]) == 0
    # different seed -> different fresh prime on reverification
    assert run(["verify", str(cert_path), "--seed", "123456"]) == 0


def test_verify_draws_a_prime_apart_from_certify(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--n", "9", "--out", str(cert_path)]) == 0
    stored = read_json(cert_path)["prime"]
    assert run(["verify", str(cert_path)]) == 0
    out = capsys.readouterr().out
    fresh = re.search(r"fresh prime (\d+)", out).group(1)
    assert fresh != stored


def test_verify_tampered_certificate_names_clause(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--n", "9", "--out", str(cert_path)]) == 0
    obj = read_json(cert_path)
    obj["TTilde"]["entries"].append({"idx": [1, 1, 1], "value": "1"})  # inside P, off S
    cert_path.write_text(json.dumps(obj))
    assert run(["verify", str(cert_path)]) == 1
    out = capsys.readouterr().out
    assert "restriction: FAILED" in out
    assert "T|_P = S|_P" in out


def test_verify_witness_output(witness_file, tmp_path):
    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def test_verify_cartan_output(curve_file, tmp_path):
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def test_verify_unknown_kind_exits_3(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"kind": "mystery"}))
    assert run(["verify", str(path)]) == 3


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["certify", "--n", "9", "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of outputs as the dense tensor storage wrote them; the sparse
# storage must write the same bytes
PINNED_DIGESTS = {
    "certify": "738ea703626a44533ee75fe52a07c6853a92bee4b431638a0fd28cd1ded3eb7e",
    "witness-data": "5abe9e5d7c37e600b58773c1d18c4b1ccb3ccb79bf6f2a5f6516d9089277d549",
    "gen": "cc27539098a1e18df7a1b83a518335c222ade94429c4079e99e8497e4cd1bc7e",
    "witness-gen": "774ed96f9773badec4ef756b6565fc403173756e5571adff367e4129d598ecb2",
}


def test_outputs_match_pinned_digests(tmp_path, witness_file):
    paths = {name: tmp_path / f"{name}.json" for name in PINNED_DIGESTS}
    assert run(["certify", "--n", "64", "--seed", "7", "--out", str(paths["certify"])]) == 0
    assert run(["witness", witness_file, "--out", str(paths["witness-data"])]) == 0
    gen = ["gen", "--kind", "witness", "--field", "fp", "--dims", "3,3,3", "--seed", "1"]
    assert run(gen + ["--out", str(paths["gen"])]) == 0
    assert run(["witness", str(paths["gen"]), "--out", str(paths["witness-gen"])]) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == PINNED_DIGESTS
