"""One test per acceptance criterion, at the stated tolerance and budget.

Criteria 2 and 3 share one seeded collection run (kept in a module cache);
criterion 4 re-verifies every certificate that run produced, and criterion 8
audits its genericity statistics.  Each test carries its own stated runtime
budget where one applies.
"""

import random
import time

from lrpairs.extract import (counterexample_demo, extract_filling,
                             extract_from_pair)
from lrpairs.generic import (GroupElement, MatrixPair, act,
                             check_equation_first, check_equation_second,
                             check_equation_third, corner_invariant_check,
                             genericity_stats, reset_genericity_stats,
                             verify_mu_generic)
from lrpairs.matrix import (RMatrix, det, diag_from_partition,
                            invariant_partition, invariant_partition_oracle,
                            inverse, is_mu_admissible, mat_mul,
                            minor_order_table)
from lrpairs.realize import random_filling, realize
from lrpairs.ring import ZERO, RingElem
from lrpairs.tableaux import (Partition, count_fillings, enumerate_fillings,
                              iter_partitions, random_partition,
                              validate_filling)

from golden import FILLING, LAM, MU, NU, golden_mn, golden_n

_CACHE = {}


# ---------------------------------------------------------------------------
# shared seeded run for criteria 2, 3, 4, 8


def _unit_triangular(rng, r, lower):
    rows = []
    for i in range(1, r + 1):
        row = []
        for j in range(1, r + 1):
            if i == j:
                row.append(RingElem.const(rng.choice((1, -1, 2, 3))))
            elif (i > j) == lower and i != j:
                c = rng.randint(-3, 3)
                row.append(RingElem.from_terms([(c, rng.randint(0, 1))])
                           if c else ZERO)
            else:
                row.append(ZERO)
        rows.append(row)
    return RMatrix(rows)


def _invertible(rng, r):
    return mat_mul(_unit_triangular(rng, r, lower=True),
                   _unit_triangular(rng, r, lower=False))


def _admissible_q(rng, r, mu):
    """mu-admissible Q with a unit determinant: an admissible lower factor
    times a unit upper factor (admissibility is closed under products)."""
    rows = []
    for i in range(1, r + 1):
        row = []
        for j in range(1, r + 1):
            if i == j:
                row.append(RingElem.const(rng.choice((1, -1, 2))))
            elif i > j:
                c = rng.randint(-2, 2)
                d = max(0, mu.part(j) - mu.part(i)) + rng.randint(0, 1)
                row.append(RingElem.from_terms([(c, d)]) if c else ZERO)
            else:
                row.append(ZERO)
        rows.append(row)
    return mat_mul(RMatrix(rows), _unit_triangular(rng, r, lower=False))


def _run_roundtrips(trials=200):
    rng = random.Random(8001)
    certs = []
    failures = []
    t0 = time.perf_counter()
    for trial in range(trials):
        f, mu, nu, lam = random_filling(rng)
        res = extract_from_pair(realize(f, mu).pair(), rng)
        if res.filling != f or res.nu != nu or res.lam != lam:
            failures.append((trial, f.to_json(), res.filling.to_json()))
        certs.append(res.certificate)
    return time.perf_counter() - t0, certs, failures


def _run_orbit_trials(trials=50):
    rng = random.Random(8002)
    certs = []
    failures = []
    t0 = time.perf_counter()
    for trial in range(trials):
        f, mu, nu, lam = random_filling(rng)
        pair = realize(f, mu).pair()
        r = pair.r
        before = extract_from_pair(pair, random.Random(9100 + trial))
        if trial % 2 == 0:
            g = GroupElement(_invertible(rng, r), _invertible(rng, r),
                             _invertible(rng, r))
        else:
            # stabilizer variant: Q mu-admissible and P = D_mu Q D_mu^-1,
            # so the first component stays D_mu on the nose
            q = _admissible_q(rng, r, mu)
            assert is_mu_admissible(q, mu)
            d = diag_from_partition(mu, r)
            g = GroupElement(mat_mul(d, mat_mul(q, inverse(d))), q,
                             _invertible(rng, r))
        after = extract_from_pair(act(g, pair), random.Random(9200 + trial))
        if not (before.filling == after.filling == f):
            failures.append((trial, f.to_json(), before.filling.to_json(),
                             after.filling.to_json()))
        certs.append(before.certificate)
        certs.append(after.certificate)
    return time.perf_counter() - t0, certs, failures


def _collected():
    got = _CACHE.get("run")
    if got is None:
        reset_genericity_stats()
        roundtrip = _run_roundtrips()
        orbit = _run_orbit_trials()
        stats = genericity_stats()
        got = {
            "roundtrip": roundtrip,
            "orbit": orbit,
            "stats": (stats.attempts, stats.resamples, stats.successes),
        }
        _CACHE["run"] = got
    return got


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_golden_example():
    t0 = time.perf_counter()
    real = realize(FILLING, MU)
    assert real.n == golden_n()
    assert mat_mul(real.m, real.n) == golden_mn()
    assert invariant_partition(real.n) == NU
    assert invariant_partition(mat_mul(real.m, real.n)) == LAM
    f = extract_filling(real.n, MU)
    assert f == FILLING
    assert f.entry(1, 1) == 4
    assert f.entry(1, 2) == 2
    assert f.entry(1, 3) == 1
    assert f.entry(1, 4) == 1
    assert f.entry(1, 2) + f.entry(2, 2) == 6
    assert f.entry(1, 3) + f.entry(2, 3) == 2
    assert f.entry(1, 4) + f.entry(2, 4) == 1
    assert f.entry(1, 3) + f.entry(2, 3) + f.entry(3, 3) == 5
    assert f.entry(1, 4) + f.entry(2, 4) + f.entry(3, 4) == 2
    assert sum(f.entry(i, 4) for i in range(1, 5)) == 4
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_roundtrip_200_random_fillings():
    elapsed, certs, failures = _collected()["roundtrip"]
    assert failures == []
    assert len(certs) == 200
    assert elapsed < 120.0


def test_criterion_3_orbit_invariance_50_trials():
    elapsed, certs, failures = _collected()["orbit"]
    assert failures == []
    assert len(certs) == 100
    assert elapsed < 120.0


def test_criterion_4_certificates_fully_verify():
    run = _collected()
    certs = run["roundtrip"][1] + run["orbit"][1]
    assert len(certs) == 300
    for cert in certs:
        r = cert.n_star.r
        assert verify_mu_generic(cert.n_star, cert.mu,
                                 table=cert.minor_orders).ok
        assert corner_invariant_check(cert.n_star, cert.mu).ok
        cap = cert.mu.weight() + cert.nu.weight() + 1
        u = mat_mul(mat_mul(cert.q_lower, cert.n_input), cert.t_lower)
        tab_right = minor_order_table(mat_mul(u, cert.t_upper), cap=cap)
        tab_left = minor_order_table(mat_mul(cert.q_upper, u), cap=cap)
        v = mat_mul(cert.q_hat_u, mat_mul(cert.n_input, cert.t_inv))
        tab_v = minor_order_table(v, cap=cap)
        assert check_equation_first(cert.minor_orders, tab_right,
                                    r) == ""
        assert check_equation_second(cert.minor_orders, tab_v, cert.mu,
                                     r) == ""
        assert check_equation_third(cert.minor_orders, tab_left,
                                    r) == ""


def _random_entry(rng):
    terms = [(rng.randint(-4, 4), rng.randint(0, 6))
             for _ in range(rng.randint(1, 2))]
    return RingElem.from_terms([term for term in terms if term[0]])


def test_criterion_5_smith_cross_validation_100_matrices():
    rng = random.Random(501)
    done = 0
    while done < 100:
        r = rng.randint(1, 4)
        m = RMatrix([[_random_entry(rng) for _ in range(r)] for _ in range(r)])
        if det(m).is_zero():
            continue
        assert invariant_partition(m) == invariant_partition_oracle(m)
        done += 1


def test_criterion_6_counterexample_reproduction():
    t0 = time.perf_counter()
    doc = counterexample_demo()
    assert doc["fillings_equal"] is True
    assert doc["mu_generic_reports"]["n"]["ok"] is True
    assert doc["mu_generic_reports"]["n_prime"]["ok"] is True
    assert doc["invariants_equal"] is True
    assert doc["residue_determinant"] == "-1"
    assert doc["only_trivial_solution"] is True
    assert doc["pairs_equivalent"] is False
    assert time.perf_counter() - t0 < 1.0


def test_criterion_7_combinatorial_engine():
    fillings = enumerate_fillings(MU, NU, LAM)
    assert FILLING in fillings
    for f in fillings:
        assert validate_filling(f, MU, NU, LAM).valid
    rng = random.Random(701)
    checked = 0
    positive = 0
    while checked < 20:
        mu = random_partition(rng, 4, 5)
        nu = random_partition(rng, 4, 5)
        w = mu.weight() + nu.weight()
        if w == 0:
            continue
        lams = [lam for lam in iter_partitions(w, 4, w) if lam.contains(mu)]
        if not lams:
            continue
        lam = rng.choice(lams)
        assert count_fillings(mu, nu, lam) == count_fillings(nu, mu, lam)
        if count_fillings(mu, nu, lam):
            positive += 1
        for f in enumerate_fillings(mu, nu, lam):
            assert validate_filling(f, mu, nu, lam).valid
        checked += 1
    assert positive >= 1


def test_criterion_8_genericity_robustness():
    run = _collected()
    attempts, resamples, successes = run["stats"]
    certs = run["roundtrip"][1] + run["orbit"][1]
    # every reduction call succeeded within its retry budget...
    assert successes == len(certs) == 300
    assert max(cert.attempts for cert in certs) <= 20
    # ...and the resampling log stays under five percent of attempts
    assert attempts == successes + resamples
    assert resamples / attempts < 0.05
