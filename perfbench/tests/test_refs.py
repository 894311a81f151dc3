"""The benchmark's references against hard-coded known values.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_catalan_and_narayana():
    assert [refs.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert [refs.narayana(4, k) for k in range(1, 5)] == [1, 6, 6, 1]
    assert [refs.narayana(5, k) for k in range(1, 6)] == [1, 10, 20, 10, 1]


def test_law_moment_closed_forms():
    assert refs.semicircle_moments(0, 1, 6) == [0, 1, 0, 2, 0, 5]
    assert refs.marchenko_pastur_moments(1, 5) == [1, 2, 5, 14, 42]
    assert refs.marchenko_pastur_moments(Fraction(1, 2), 2) == [Fraction(1, 2), Fraction(3, 4)]
    # kappa_2j = 2: m_6 = 2 + 6*2*2 + 5*2^3 over NC(6) with even blocks
    assert refs.commutator_ww_moments(8) == [0, 2, 0, 10, 0, 66, 0, 498]
    assert refs.semicircle_commutator_cumulants(1, 1, 6) == [0, 2, 0, 2, 0, 2]
    qc = refs.quarter_circle_moments(1.0, 4)
    assert qc[0] == pytest.approx(8 / (3 * math.pi), rel=1e-14)
    assert qc[1] == pytest.approx(1.0, rel=1e-14)
    assert qc[3] == pytest.approx(2.0, rel=1e-14)
    assert refs.beta_1a_moments(0.3, 2) == pytest.approx([0.35, 0.35 * 1.7 / 3], rel=1e-14)


def test_densities_and_edges():
    assert refs.semicircle_density(0, 1, [0.0, 2.0])[0] == pytest.approx(1 / math.pi)
    assert refs.semicircle_density(0, 1, [2.0])[0] == 0
    assert refs.marchenko_pastur_density(1, [1.0])[0] == pytest.approx(math.sqrt(3) / (2 * math.pi))
    assert refs.quarter_circle_density(1, [1.0])[0] == pytest.approx(math.sqrt(3) / math.pi)
    assert refs.commutator_ww_density([0.0])[0] == pytest.approx(1 / math.pi)
    assert refs.commutator_ww_edge() == pytest.approx(3.3302, abs=1e-4)
    assert refs.commutator_ww_density([3.34])[0] == 0
    # the verify registry's edge of (w+)^{boxplus t}: 2t - 2 sqrt(t)
    assert [refs.semicircle_left_edge(2, 1, t) for t in (0.25, 1, 4)] == [-0.5, 0, 4]
    assert refs.compound_poisson_left_edge(1, 1, 4) == 1     # MP(4): (1 - 2)^2


def test_modular_relations_accept_true_and_reject_perturbed():
    m, kappa = [0, 1, 0, 2, 0, 5], [0, 1, 0, 0, 0, 0]
    assert refs.nc_relation_holds(m, kappa)
    assert not refs.nc_relation_holds(m, [0, 1, 0, Fraction(1, 10**9), 0, 0])
    assert refs.boolean_relation_holds([0, 1, 0, 1], [0, 1, 0, 0])
    assert not refs.boolean_relation_holds([0, 1, 0, 1], [0, 1, 0, 1])
    # MP(1) x MP(1) has the Fuss-Catalan moments C(3n, n) / (2n + 1)
    mp = [1, 2, 5, 14]
    assert refs.product_relation_holds(mp, mp, [1, 3, 12, 55])
    assert not refs.product_relation_holds(mp, mp, [1, 3, 12, 56])


def test_expected_cli_outputs():
    names = ["a", "b"]
    good = ("freeconv verify  suite=x  seed=1\na  anchor  dev=0  tol=0  pass\n"
            "b  anchor  dev=0  tol=0  pass\nsummary: 2/2 checks passed\n")
    assert workloads._verify_check(0, good, names)[0]
    assert not workloads._verify_check(0, good.replace("b  anchor  dev=0  tol=0  pass",
                                                       "b  anchor  dev=1  tol=0  FAIL"), names)[0]
    table = "t,left_edge,atoms,converged\n1,0,,True\n4,4,,True\nregular evidence: yes\n"
    assert workloads._scan_table_check(0, table, 2, 1)[0]
    assert not workloads._scan_table_check(0, table.replace("4,4,", "4,4.01,"), 2, 1)[0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(19) == 25
    assert run.percentile(list(range(1, 101)), 90) == (90, 10)


def _task(label, check):
    return workloads.Task(label, None, (), check)


def test_ledger_counts_only_bounded_misses_as_known():
    label = "float.free_from_moments.20"
    worst = workloads.LEDGER[label]
    miss = _task(label, lambda out: (False, out))
    assert workloads.judge(miss, worst, None) == (False, True, worst)
    limit = workloads.LEDGER_SLACK * worst
    assert workloads.judge(miss, 1.01 * limit, None)[:2] == (False, False)
    assert workloads.judge(miss, math.inf, None)[:2] == (False, False)
    assert workloads.judge(miss, None, ValueError("x"))[:2] == (False, False)
    # a kind off the ledger never fails as known
    assert workloads.judge(_task("float.free_from_moments.8", miss.check), 1e-5, None)[:2] \
        == (False, False)


def test_known_raise_still_runs_the_route_check():
    label = "float.free_mult_both.8"
    good = _task(label, lambda out: (out is None, 1e-12))
    bad = _task(label, lambda out: (False, 1.0))
    assert workloads.judge(good, None, ArithmeticError("routes"))[:2] == (False, True)
    assert workloads.judge(bad, None, ArithmeticError("routes"))[:2] == (False, False)
    assert workloads.judge(good, None, ValueError("other"))[:2] == (False, False)


def test_float_check_misses_by_entry_and_reports_the_normwise_error():
    check = workloads._float_check(lambda: [1000.0, 1e-3], floor=0.0)
    ok, err = check([1000.0, 2e-3])     # entry 2 is off by 100%
    assert not ok and err == pytest.approx(1e-6)
    assert check([1000.0, 1e-3]) == (True, 0.0)
    assert check([math.nan, 1e-3]) == (False, math.inf)
