import dataclasses
import random

import pytest

from nonicindex import polygon, verify
from nonicindex.nonic import Certificate, disc, irreducibility_certificate, is_normalized
from nonicindex.verify import (
    KNOWN_EXAMPLES,
    SweepReport,
    certified_lift,
    check_examples,
    check_tables,
    order_max_predicted,
    run_suite,
    sweep_agreement,
    sweep_dedekind,
)
from reference import disc_resultant, sylvester_matrix


def test_disc_resultant_values():
    assert disc_resultant(0, 1) == 3**18
    assert disc_resultant(1, 0) == 2**24
    assert disc_resultant(1, 1) == 2**24 + 3**18
    assert disc_resultant(51, 122) == disc(51, 122)


def test_disc_resultant_matches_closed_form_random():
    rng = random.Random(42)
    for _ in range(250):
        a = rng.randrange(-10**6, 10**6 + 1)
        b = rng.randrange(-10**6, 10**6 + 1)
        assert disc_resultant(a, b) == disc(a, b)


def test_sylvester_shape():
    rows = sylvester_matrix((1, 2, 0, 1), (2, 3))  # deg 3 and deg 1
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)


def test_certified_lift_properties():
    rng = random.Random(3)
    for modulus in (9, 16, 243, 5):
        for _ in range(12):
            a0, b0 = rng.randrange(modulus), rng.randrange(modulus)
            a, b = certified_lift(a0, b0, modulus, rng)
            assert a % modulus == a0 and b % modulus == b0
            assert is_normalized(a, b)
            cert, _ = irreducibility_certificate(a, b)
            assert cert is Certificate.PROVEN


def test_order_max_predicted():
    assert order_max_predicted(51, 122, 2) is True
    assert order_max_predicted(35, 20, 2) is False
    assert order_max_predicted(1392, 768, 3) is True  # 3-Eisenstein
    assert order_max_predicted(51, 122, 3) is True


def test_sweep_dedekind_small():
    rep = sweep_dedekind(2, 4, lifts_per_class=3, seed=5)
    assert rep.ok and rep.total == 16 * 3
    rep = sweep_dedekind(3, 9, lifts_per_class=2, seed=5,
                         class_filter=lambda a, b: a % 3 == 0 and b % 3 != 0)
    assert rep.ok and rep.total == 18 * 2


def test_sweep_agreement_small():
    rep = sweep_agreement(2, 8, lifts_per_class=1, seed=2)
    assert rep.ok
    rep = sweep_agreement(3, 27, lifts_per_class=1, seed=2,
                          class_filter=lambda a, b: a % 3 == 0)
    assert rep.ok
    rep = sweep_agreement(5, 5, lifts_per_class=1, seed=2)
    assert rep.ok and not rep.skipped


def test_sweep_report_consistency():
    rep = sweep_agreement(2, 8, lifts_per_class=2, seed=11)
    assert rep.classes_checked == rep.total - len(rep.skipped) - len(rep.mismatches)
    payload = rep.to_json()
    assert payload["total"] == rep.total
    assert payload["ok"] is rep.ok
    assert isinstance(rep.to_text(), str)


def test_check_examples():
    rep = check_examples()
    assert rep.ok and rep.total == len(KNOWN_EXAMPLES) == 7


def test_check_tables():
    rep = check_tables()
    assert rep.ok
    # one "ok" row per table row, none for the partition cells
    assert len(rep.rows) == 32 and all(row[6] == "ok" for row in rep.rows)


def test_run_suite_dispatch():
    assert run_suite("examples").suite == "examples"
    assert run_suite("dedekind", prime=2, modulus=4, lifts=1).suite == "dedekind"
    # the default modulus of each prime
    assert run_suite("dedekind", prime=3, lifts=1).modulus == 9
    assert run_suite("agreement", prime=5).modulus == 5
    with pytest.raises(ValueError):
        run_suite("nope")


def test_seeded_reproducibility():
    r1 = sweep_agreement(3, 9, 2, seed=77, class_filter=lambda a, b: a % 3 == 0)
    r2 = sweep_agreement(3, 9, 2, seed=77, class_filter=lambda a, b: a % 3 == 0)
    assert r1.rows == r2.rows


POLYGON_CACHES = (polygon._power_digits, polygon._polygon_and_count)


def test_polygon_caches_change_no_sweep_row():
    assert all(cache.cache_info().maxsize for cache in POLYGON_CACHES)
    for p, modulus in ((2, 16), (3, 27)):
        for cache in POLYGON_CACHES:
            cache.cache_clear()
        cold = sweep_agreement(p, modulus, 2, seed=2111).rows
        assert all(cache.cache_info().currsize for cache in POLYGON_CACHES)
        assert sweep_agreement(p, modulus, 2, seed=2111).rows == cold


NINE = polygon.Splitting.of([(1, 1)] * 9)


def plant_wrong_engine(monkeypatch):
    """verify.engine_split answers that p splits into nine primes of degree
    1, which no p < 9 can do: F_p has only p monic linear polynomials."""
    real = verify.engine_split

    def wrong(a, b, p):
        return real(a, b, p)._replace(splitting=NINE)

    monkeypatch.setattr(verify, "engine_split", wrong)


def test_sweep_agreement_reports_a_planted_mismatch(monkeypatch):
    plant_wrong_engine(monkeypatch)
    rep = sweep_agreement(2, 16, 1, seed=1)
    assert not rep.ok
    assert rep.total == 256 and len(rep.mismatches) == 256 - len(rep.skipped)
    assert all(m.get("engine_divides") or m.get("engine_splitting") == str(NINE)
               for m in rep.mismatches)
    assert any("engine_divides" in m for m in rep.mismatches)
    assert [row[6] for row in rep.rows].count("mismatch") == len(rep.mismatches)
    rep = sweep_agreement(5, 5, 1, seed=1)
    assert len(rep.mismatches) == rep.total == 25
    assert all(m["residue_degrees_over_bound"] == [1] for m in rep.mismatches)


def plant_wrong_dedekind(monkeypatch):
    """verify.dedekind_divides answers the opposite of the criterion."""
    real = verify.dedekind_divides
    monkeypatch.setattr(verify, "dedekind_divides", lambda F, p: not real(F, p))


def plant_wrong_classify(monkeypatch):
    """verify.classify reports an exact i(K) one more than its known divisor."""
    real = verify.classify

    def wrong(a, b):
        report = real(a, b)
        return dataclasses.replace(report, i_K=report.i_K_known_divisor + 1)

    monkeypatch.setattr(verify, "classify", wrong)


PLANTED_ROW = (16, ((4, 8),), polygon.Splitting.of([(1, 1)]))


def plant_wrong_table_row(monkeypatch):
    """One more a2 row, of mass 1, on the class (4, 8) mod 16 of the first."""
    monkeypatch.setattr(verify, "_TABLE_A2", verify._TABLE_A2 + (PLANTED_ROW,))


def test_sweep_dedekind_reports_a_planted_mismatch(monkeypatch):
    plant_wrong_dedekind(monkeypatch)
    rep = sweep_dedekind(3, 9, 2, seed=1)
    assert not rep.ok
    assert len(rep.mismatches) == rep.total == 162
    assert all(m["predicted_maximal"] == m["dedekind_divides"] for m in rep.mismatches)
    assert [row[6] for row in rep.rows].count("mismatch") == 162


def test_check_examples_reports_a_planted_mismatch(monkeypatch):
    plant_wrong_classify(monkeypatch)
    rep = check_examples()
    assert not rep.ok
    assert len(rep.mismatches) == rep.total == len(KNOWN_EXAMPLES)
    assert [(m["a"], m["b"], m["expected"]) for m in rep.mismatches] == list(KNOWN_EXAMPLES)
    assert [row[6] for row in rep.rows].count("mismatch") == len(KNOWN_EXAMPLES)


def test_check_tables_reports_a_planted_row(monkeypatch):
    plant_wrong_table_row(monkeypatch)
    rep = check_tables()
    assert not rep.ok
    assert {"table": "a2", "classes": PLANTED_ROW[1], "mass": 1} in rep.mismatches
    # the cells of (4, 8) mod 16 in the 64-grid now hit two rows
    overlaps = [m for m in rep.mismatches if "hits" in m]
    assert len(overlaps) == len(rep.mismatches) - 1 == 16
    assert all(m["table"] == "a2" and (m["a"] % 16, m["b"] % 16) == (4, 8)
               and m["hits"] == [(16, ((4, 8), (12, 8))), (16, ((4, 8),))]
               for m in overlaps)
    # one "mismatch" row for the planted row's mass and one per overlapping cell
    bad = [row for row in rep.rows if row[6] == "mismatch"]
    assert len(bad) == len(rep.mismatches) == 17
    assert ("", "", 2, "", f"a2:{PLANTED_ROW[1]}", "(1,1)", "mismatch") in bad
    assert [(row[0], row[1], row[4]) for row in bad if row[0] != ""] == [
        (m["a"], m["b"], "a2:hits=2") for m in overlaps
    ]
    assert [row[6] for row in rep.rows].count("ok") == 32
