"""Acceptance criteria: one test per criterion, each printing a pass/fail
line with the measured value and its pinned tolerance.

Scenario choices per check are documented in cteskf.verify; tolerances are
asserted exactly as pinned there and here.
"""

from cteskf import verify


def report(result, budget_s):
    print(result.line())
    assert result.elapsed_s < budget_s, f"runtime {result.elapsed_s:.1f}s exceeds {budget_s}s budget"
    assert result.passed, result.line()


class TestAcceptance:
    def test_criterion_01_propagation_equivalence(self):
        r200 = verify.check_propagation_equivalence(200.0, 1e-3, seed=0)
        r2000 = verify.check_propagation_equivalence(2000.0, 1e-5, seed=0)
        elapsed = r200.elapsed_s + r2000.elapsed_s
        print(r200.line())
        print(r2000.line())
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
        assert r200.passed, r200.line()
        assert r2000.passed, r2000.line()

    def test_criterion_02_first_update_identity(self):
        report(verify.check_first_update_identity(seed=0), 5.0)

    def test_criterion_03_switch_effectiveness(self):
        report(verify.check_switch_effectiveness(200.0, 1e-8, seed=0), 10.0)

    def test_criterion_04_switch_ineffectiveness(self):
        report(verify.check_switch_ineffectiveness(60.0, 1e-12, seed=0), 10.0)

    def test_criterion_05_transform_equals_switch(self):
        report(verify.check_transform_equals_switch(200.0, 1e-10, seed=0), 15.0)

    def test_criterion_06_ct_coincidence(self):
        report(verify.check_ct_coincidence(200.0, 1e-8, 100.0, seed=0), 20.0)

    def test_criterion_07_transform_closure(self):
        report(verify.check_transform_closure(seed=0, trials=100), 1.0)

    def test_criterion_08_group_affine(self):
        report(verify.check_group_affine(seed=0, trials=100), 1.0)

    def test_criterion_09_ordering_reproduction(self):
        report(verify.check_ordering(seed=0, jobs=1, n_seeds=10), 300.0)

    def test_criterion_10_slow_propagation(self):
        report(
            verify.check_ct_coincidence(200.0, 1e-6, 2.0, seed=0, name="slow-propagation-coincidence"),
            10.0,
        )
