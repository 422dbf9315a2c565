"""Command-line layer: parsing, envelopes, determinism, exit codes."""
import hashlib
import json

import numpy as np
import pytest

from cohlat.cli import main
from cohlat.groups import builtin_group
from cohlat.lattices import GLattice


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohomology_json_envelope(capsys):
    code, out, _ = run(capsys, "cohomology", "--group", "builtin:D4",
                       "--max-degree", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "cohomology"
    assert payload["result"]["dims"] == [1, 2, 3, 4]
    assert payload["group"]["order"] == 8
    assert payload["group"]["hash"] == builtin_group("D4").hash_digest()
    assert payload["config"]["modulus_exp"] == 4
    assert "version" in payload


def test_cohomology_of_the_trivial_group(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"order": 1, "table": [[0]]}))
    code, out, _ = run(capsys, "cohomology", "--group", str(path))
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [1, 0, 0, 0]


def test_group_file_matches_builtin(capsys, tmp_path):
    d4 = builtin_group("D4")
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"order": 8, "table": d4.table.tolist()}))
    code, out, _ = run(capsys, "cohomology", "--group", str(path))
    assert code == 0
    assert json.loads(out)["group"]["hash"] == d4.hash_digest()


def test_criterion_negative_control(capsys):
    code, out, _ = run(capsys, "criterion", "--group", "builtin:C4",
                       "--which", "b")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["criterion_b"] is False
    assert payload["result"]["witness_b"] is None
    assert payload["result"]["nonzero_obstruction"] is False


def test_criterion_is_thread_deterministic(capsys):
    _, one, _ = run(capsys, "criterion", "--group", "builtin:V4",
                    "--threads", "1")
    _, two, _ = run(capsys, "criterion", "--group", "builtin:V4",
                    "--threads", "2")
    assert one == two


def test_criterion_threads_must_be_positive(capsys):
    # the flag is accepted and ignored, but still validated
    code, _, err = run(capsys, "criterion", "--group", "builtin:C2",
                       "--threads", "0")
    assert code == 2 and "threads" in err


def test_phi_builtin_lattices(capsys):
    for lat in ("builtin:M", "builtin:regular"):
        code, out, _ = run(capsys, "phi", "--group", "builtin:C2",
                           "--lattice", lat)
        assert code == 0
        assert json.loads(out)["result"]["invariant_factors"] == []


# sha256 of the phi report bytes on stdout, captured before the top-down
# cover; reports carry only the invariant factors and the lattice rank
PHI_REPORT_SHA256 = {
    ("C2", "M"): "2deeb6896b5d820497381a04a092876b647b61b15f51cd646aed835efc604a5f",
    ("C2", "regular"): "d30b2feee24564cd8c3aa4375e16afb776f52514693049abe5bcb6fe7a5bcdb7",
    ("C2", "sign"): "35da0512fd0da23d90894422705c158ac6ebac1424850e6629dd3ca85e6fc0f2",
    ("C4", "M"): "3578ca3085d29de3fbf6c821d1ac9381ca60d9962184baf7b8d17de2e0c4cd8d",
    ("C4", "regular"): "b22ab78e4458af94ed86cc91a89c31b9d6248fed9ccca4526cd5d2306e4d8f8e",
    ("C4", "sign"): "f2beb9fe410e5b09c7b826397aef10678ab3e1e070aa5b8f2bb77a86c33529ae",
    ("V4", "M"): "26d6d14b38020d5867ceff0c4e5eaa802f62c5176e7a27b51e8abc506ea6230f",
    ("V4", "regular"): "a620b33feea537a53605e9684d70d0d8610842ab89cdc42b812344c722b3cb66",
    ("V4", "sign"): "205bf155450515eb3ee5d65721aedf5ea9e727a18c8974fa1d61dc6f995c12ae",
}


@pytest.mark.parametrize("group,lattice", sorted(PHI_REPORT_SHA256))
def test_phi_report_bytes_are_pinned(capsys, group, lattice):
    code, out, _ = run(capsys, "phi", "--group", f"builtin:{group}",
                       "--lattice", f"builtin:{lattice}")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PHI_REPORT_SHA256[(group, lattice)]


def test_phi_reaches_order_8(capsys):
    code, out, _ = run(capsys, "phi", "--group", "builtin:D4")
    assert code == 0
    assert json.loads(out)["result"] == {"invariant_factors": [],
                                         "lattice_rank": 49}


def test_phi_lattice_file(capsys, tmp_path):
    c4 = builtin_group("C4")
    reg = GLattice.regular(c4)
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({
        "rank": 4,
        "generators": [{"element": int(s), "matrix": reg.matrix(int(s)).tolist()}
                       for s in c4.generators()]}))
    code, out, _ = run(capsys, "phi", "--group", "builtin:C4",
                       "--lattice", str(path))
    assert code == 0
    assert json.loads(out)["result"]["invariant_factors"] == []


def test_lattice_info_report(capsys):
    code, out, _ = run(capsys, "lattice-info", "--group", "builtin:V4",
                       "--lattice", "builtin:regular")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["lattice"] == {"rank": 4, "permutation": True,
                              "wedge_square_rank": 6}
    assert res["regular_census"] == {"involutions": 3, "inverse_pairs": 0,
                                     "wedge_rank": 6}
    assert res["sum_map"] == {"m_rank": 9, "torsion_free": True}


def test_out_file_and_text_format(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "phi", "--group", "builtin:C2",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["command"] == "phi"
    code, out, _ = run(capsys, "lattice-info", "--group", "builtin:C2",
                       "--lattice", "builtin:sign", "--output", "text")
    assert code == 0
    assert "result.lattice.rank: 1" in out


def test_validation_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "cohomology", "--group", "builtin:nope")
    assert code == 2 and "unknown builtin" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "cohomology", "--group", str(bad))
    assert code == 2 and "not valid JSON" in err
    bad.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 1]]}))
    code, _, err = run(capsys, "cohomology", "--group", str(bad))
    assert code == 2


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "phi", "--group", "builtin:sz8-sylow")
    assert code == 3 and "budget" in err


def test_bad_lattice_source(capsys, tmp_path):
    code, _, _ = run(capsys, "phi", "--group", "builtin:C2",
                     "--lattice", "builtin:nope")
    assert code == 2
    bad = tmp_path / "lat.json"
    bad.write_text(json.dumps({"rank": 1, "generators": [
        {"element": 1, "matrix": [[2]]}]}))
    code, _, _ = run(capsys, "phi", "--group", "builtin:C2",
                     "--lattice", str(bad))
    assert code == 2
