import random

import pytest

from nonicindex.nonic import Certificate, disc, irreducibility_certificate, is_normalized
from nonicindex.verify import (
    KNOWN_EXAMPLES,
    SweepReport,
    certified_lift,
    check_examples,
    check_tables,
    disc_resultant,
    order_max_predicted,
    run_suite,
    sweep_agreement,
    sweep_dedekind,
    sylvester_matrix,
)


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
