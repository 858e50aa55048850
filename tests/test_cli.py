import csv
import json

import pytest

from nonicindex import nonic
from nonicindex.cli import EXIT_MISMATCH, EXIT_OK, EXIT_REDUCIBLE, main
from nonicindex.nonic import Unclassified, classify, critical_lift
from nonicindex.polygon import analyze_phi, trinomial
from test_verify import (
    plant_wrong_classify,
    plant_wrong_dedekind,
    plant_wrong_engine,
    plant_wrong_table_row,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json_envelope(capsys):
    code, out, _ = run(capsys, "classify", "--a", "1392", "--b", "768", "--json")
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["schema_version"] == "1"
    assert env["command"] == "classify"
    assert env["result"]["i_K"] == 2
    assert env["result"]["primes"]["2"]["nu"] == {"kind": "exact", "value": 1}
    # round trip: parse then re-serialize is stable
    assert json.dumps(env, sort_keys=True) == json.dumps(
        json.loads(json.dumps(env, sort_keys=True)), sort_keys=True
    )


def test_classify_text_output(capsys):
    code, out, err = run(capsys, "classify", "--a", "183", "--b", "296")
    assert code == EXIT_OK
    assert "i(K) = 8" in out
    assert "nu_p(i(K)) = 3" in out


def test_classify_single_prime_filter(capsys):
    code, out, _ = run(capsys, "classify", "--a", "183", "--b", "296",
                       "--prime", "3", "--json")
    assert code == EXIT_OK
    env = json.loads(out)
    assert list(env["result"]["primes"]) == ["3"]
    assert env["result"]["primes"]["3"]["nu"]["value"] == 0
    # a prime >= 5 that does not divide the discriminant has no entry of its own
    code, out, _ = run(capsys, "classify", "--a", "51", "--b", "122",
                       "--prime", "11", "--json")
    assert code == EXIT_OK
    entry = json.loads(out)["result"]["primes"]["11"]
    assert entry["rule"] == "11:ge5"
    assert entry["nu"] == {"kind": "exact", "value": 0}
    assert entry["splitting"] is None


def test_classify_reports_past_the_integer_string_limit(capsys):
    # disc(a, b) has 4,323 digits and stays unfactored: past str()'s limit of
    # 4,300 digits, the warning names it by leading digits and digit count
    a, b = 10**480 + 7, 3 * 10**480 + 1
    report = classify(a, b)
    assert "disc has an unfactored part (30394057863367089983... (4323 digits)); " \
        "primes >= 5 dividing it are omitted from the report (their nu is 0 regardless)" \
        in report.warnings
    code, out, _ = run(capsys, "classify", "--a", str(a), "--b", str(b), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["warnings"] == report.warnings


def test_classify_reducible_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--a", "0", "--b", "0")
    assert code == EXIT_REDUCIBLE


def test_classify_unclassified_exit_code(capsys, monkeypatch):
    # no input reaches Unclassified; a planted gap in nu2 stands in for one
    def gap(a, b):
        raise Unclassified("planted gap")

    monkeypatch.setattr(nonic, "nu2", gap)
    code, out, err = run(capsys, "classify", "--a", "51", "--b", "122", "--json")
    assert (code, err) == (EXIT_MISMATCH, "")
    assert json.loads(out)["result"] == {"error": "unclassified", "detail": "planted gap"}
    code, out, err = run(capsys, "classify", "--a", "51", "--b", "122")
    assert (code, out, err) == (EXIT_MISMATCH, "", "unclassified: planted gap\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--a", "not-an-int", "--b", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_polygon_command(capsys):
    code, out, _ = run(capsys, "polygon", "--a", "5", "--b", "2", "--p", "2",
                       "--phi", "x-1", "--json")
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["result"]["vertices"] == [[0, 3], [1, 1], [8, 0]]
    sides = env["result"]["sides"]
    assert [s["degree"] for s in sides] == [1, 1]


def test_polygon_residual_factors(capsys):
    code, out, _ = run(capsys, "polygon", "--a", "16", "--b", "8", "--p", "2")
    assert code == EXIT_OK
    assert "y^3 + 1" in out
    assert "y^2 + y + 1" in out


def test_polygon_bad_phi(capsys):
    # b odd: x is not a factor of F mod 2
    code, _, err = run(capsys, "polygon", "--a", "2", "--b", "3", "--p", "2")
    assert code == EXIT_MISMATCH
    assert "factor" in err


def test_polygon_shifted(capsys):
    code, out, _ = run(capsys, "polygon", "--a", "183", "--b", "296", "--p", "2",
                       "--phi", "shifted", "--json")
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["result"]["regular"] is True


@pytest.mark.parametrize("a, b, p", [(183, 296, 2), (126, 40130, 3)])
def test_polygon_shifted_is_the_critical_lift(capsys, a, b, p):
    code, out, _ = run(capsys, "polygon", "--a", str(a), "--b", str(b), "--p", str(p),
                       "--phi", "shifted", "--json")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    phi = critical_lift(a, b, p)
    assert result["phi"] == list(phi)
    analysis = analyze_phi(trinomial(a, b), p, phi)
    assert result["vertices"] == [list(v) for v in analysis.polygon.vertices]
    assert (result["regular"], result["index"]) == (analysis.regular, analysis.index)


def test_verify_examples_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "examples", "--json")
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["result"]["ok"] is True
    assert env["result"]["total"] == 7
    assert env["input"]["seed"] == 1  # the default, although the suite draws nothing


def test_verify_seed_defaults_to_1(capsys):
    argv = ("verify", "--suite", "dedekind", "--prime", "2", "--modulus", "4", "--lifts", "2")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith(" seed=1")
    assert run(capsys, *argv, "--seed", "1")[1] == out
    env = json.loads(run(capsys, *argv, "--json")[1])
    assert env["input"]["seed"] == env["result"]["seed"] == 1


def test_verify_csv(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "verify", "--suite", "dedekind", "--prime", "2",
                     "--modulus", "4", "--lifts", "2", "--seed", "1",
                     "--csv", str(path))
    assert code == EXIT_OK
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["a", "b", "prime", "nu", "rule", "splitting", "status"]
    assert len(rows) == 1 + 16 * 2
    assert all(r[6] == "ok" for r in rows[1:])


def test_verify_agreement_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "agreement", "--prime", "5",
                       "--modulus", "5")
    assert code == EXIT_OK
    assert "0 mismatches" in out


def test_verify_agreement_suite_exits_on_a_planted_mismatch(capsys, monkeypatch):
    plant_wrong_engine(monkeypatch)
    code, out, _ = run(capsys, "verify", "--suite", "agreement", "--prime", "2",
                       "--modulus", "16")
    assert code == EXIT_MISMATCH
    assert "MISMATCH {" in out


def test_verify_agreement_suite_over_inert_lifts(capsys):
    # seed 1199 draws the lift (2, 6): x^9 + 2x + 6 is irreducible mod 7
    code, out, _ = run(capsys, "verify", "--suite", "agreement", "--prime", "7",
                       "--modulus", "7", "--lifts", "1", "--seed", "1199")
    assert code == EXIT_OK
    assert "0 mismatches" in out


@pytest.mark.parametrize("plant, argv", [
    (plant_wrong_dedekind, ("--suite", "dedekind", "--prime", "3", "--modulus", "9",
                            "--lifts", "2")),
    (plant_wrong_classify, ("--suite", "examples")),
    (plant_wrong_table_row, ("--suite", "tables")),
])
def test_verify_suites_exit_on_a_planted_mismatch(capsys, monkeypatch, plant, argv):
    plant(monkeypatch)
    code, out, _ = run(capsys, "verify", *argv)
    assert code == EXIT_MISMATCH
    assert "MISMATCH {" in out
