"""Acceptance suite: each criterion runs at its stated scale and budget,
printing one pass/fail line.  The checks themselves live in cmcurve.verify
so the CLI `cmcurve verify` runs exactly the same code; this module pins
the scales and the runtime ceilings.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import time

from cmcurve import verify

CFG = verify.SuiteConfig(seed=2026)


def run_criterion(number, title, check, budget_seconds, cfg=CFG):
    start = time.perf_counter()
    try:
        detail = check(cfg) or {}
        status = "PASS"
        failure = None
    except verify.CheckFailure as exc:
        status = "FAIL"
        failure = exc.detail
        detail = exc.detail
    elapsed = time.perf_counter() - start
    print(f"criterion {number:>2}: {status}  {title}  [{elapsed:.1f}s / {budget_seconds}s]  {detail}")
    assert failure is None, f"criterion {number} failed: {failure}"
    assert elapsed < budget_seconds, f"criterion {number} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_form_reduction_oracle():
    run_criterion(
        1,
        "form reduction matches exhaustive word search, |disc| <= 400",
        verify.check_reduction_oracle,
        30,
    )


def test_criterion_02_class_number_anchors():
    def both(cfg):
        d1 = verify.check_class_number_anchors(cfg)
        d2 = verify.check_cm_count_level_one(cfg)
        return {**d1, **d2}

    run_criterion(2, "class numbers h(-4)=1, h(-20)=2, h(-23)=3 and CM counts", both, 5)


def test_criterion_03_cornacchia_and_rational_solver():
    def both(cfg):
        d1 = verify.check_cornacchia_exhaustive(cfg)
        d2 = verify.check_rational_solver(cfg)
        return {**d1, **d2}

    run_criterion(3, "Cornacchia m<=30, k<=10^4 and rational solver", both, 60)


def test_criterion_04_hilbert_reciprocity():
    def both(cfg):
        d1 = verify.check_hilbert_reciprocity(cfg)
        d2 = verify.check_hilbert_brute_force(cfg)
        return {**d1, **d2}

    run_criterion(4, "Hilbert reciprocity and local brute force", both, 30)


def test_criterion_05_fixed_point_classification():
    run_criterion(
        5,
        "fixed points vs bounded rational stabilizer search, N=5,7",
        verify.check_fixed_point_oracle,
        60,
    )


def test_criterion_06_shadow_well_definedness():
    run_criterion(
        6,
        "shadow equality iff shape criterion, exhaustive mod 5",
        verify.check_shadow_well_defined,
        10,
    )


def test_criterion_07_exact_sequence():
    run_criterion(
        7,
        "branch character exact sequence at N=5, M={1,2}",
        verify.check_exact_sequence,
        30,
    )


def test_criterion_08_common_det_surjectivity():
    run_criterion(
        8,
        "common determinant surjectivity at good levels 7, 11, 13",
        verify.check_common_det_surjectivity,
        30,
    )


def test_criterion_09_goursat_and_lattices():
    def both(cfg):
        d1 = verify.check_goursat_random(cfg)
        d2 = verify.check_stable_saturated_coordinate(cfg)
        return {**d1, **d2}

    run_criterion(9, "Goursat on random subdirect products; coordinate lattices", both, 60)


def test_criterion_10_independence():
    run_criterion(
        10,
        "independence test vs subset-product-square oracle",
        verify.check_independence,
        5,
    )


def test_criterion_11_relation_equivalence_and_lift():
    def both(cfg):
        d1 = verify.check_relation_matches_search(cfg)
        d2 = verify.check_lift_round_trip(cfg)
        return {**d1, **d2}

    run_criterion(
        11,
        "relation R iff shadow search on 10^4 tuples; lift round-trips",
        both,
        120,
    )


def test_criterion_12_faithfulness():
    run_criterion(
        12,
        "no nonidentity shadow acts trivially at N=5, M={1}",
        verify.check_faithfulness,
        10,
    )


def test_criterion_13_functoriality():
    run_criterion(
        13,
        "projection 15 -> 5 commutes with the actions",
        verify.check_functoriality,
        30,
    )
