"""Acceptance battery: twelve verdicts, one per headline property.

Each test prints a single `criterion N PASS` line (visible under -s or -rP)
and fails loudly otherwise.  Criteria with stated time budgets assert the
measured wall-clock of the underlying run.
"""

import hashlib
import json
import time

from kirchlab import (
    consecutive_perfect_powers,
    degree_infinite,
    prime_factors,
    primes_from_order,
    run_suite,
)


def _ok(n, msg):
    print(f"criterion {n:2d} PASS — {msg}")


# sha256 of the canonical report body (sorted keys) at the default bounds.
# The first four were recorded before the order oracle's generator memo
# and the row-streamed pair scans, the other six before the descriptor came
# to store E and alpha alone, and all ten before prime sets became plain
# ascending tuples; a refactor or an optimization must keep each one
REPORT_SHA256 = {
    "pairA": "ef53a0a23fa436293c709288a80a21adbc2cdbc6e768d9bc13b6ef6cac86fb89",
    "realize": "3c93264cfb0158404095e0eec9319454da0a79b3217edd78ba1dd50c4c59a46c",
    "order": "bd13ba54bfabd14fea75e032e0bc1573e2cea8303b2fde6259cd154acb17342a",
    "classify": "74a6eae9d62459dca6e35fdb4ed9de7cf64fe5d581945e39b5d0526eebf31142",
    "closure": "451c50d97a8d61263835aa8a540965cb3e574d838a484bb904a3d6059d6fd2ef",
    "upsets": "4210681e38ad05cf4f7bb260cf3771adf975b7d238abb110cf27629096bba529",
    "gamma": "bcf7738cd272fc58f1ead37eb8d15100452b0355736a16b5fcf57a1f49405c55",
    "zsigmondy": "3b6c93121cb225d529d5e3a59d5e7dc75e2b38fda406ea6952c604b76c9ae8c4",
    "powers": "2769ecfdbd4b2995ea624f784b3eb9e8b53a3e6d936a62195e9383a515a63f4f",
    "chains": "6b2823b89da50704688ae97a1003918a12922214ce36b610445acc3a1b1f6b0c",
}


def _digest(report):
    body = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def test_criterion_01_closure_formula_vs_witness_oracle():
    r = run_suite("closure")
    assert r.bounds["a_max"] == 200 and r.bounds["b_max"] == 200
    assert r.passed, r.failures[:3]
    assert r.elapsed < 10.0, f"{r.elapsed:.2f}s"
    assert _digest(r) == REPORT_SHA256["closure"]
    _ok(
        1,
        f"closure members == witness oracle on full period windows, "
        f"{r.instances_checked} instances, {r.elapsed:.2f}s",
    )


def test_criterion_02_pair_signature_identity():
    r = run_suite("pairA")
    assert r.bounds["max_value"] == 500
    assert r.passed, r.failures[:3]
    assert r.elapsed < 5.0, f"{r.elapsed:.2f}s"
    assert _digest(r) == REPORT_SHA256["pairA"]
    _ok(
        2,
        f"pair factor formula == residue rule on all x<y<=500, "
        f"pair_A and compute_A == residue rule on {r.bounds['samples']} samples, {r.elapsed:.2f}s",
    )


def test_criterion_03_realization_round_trip():
    r = run_suite("realize")
    assert tuple(r.bounds["prime_pool"]) == (2, 3, 5, 7, 11, 13)
    assert r.passed, r.failures[:3]
    assert r.elapsed < 5.0, f"{r.elapsed:.2f}s"
    assert _digest(r) == REPORT_SHA256["realize"]
    _ok(3, f"all {r.instances_checked} admissible (A, alpha) round-trip, {r.elapsed:.2f}s")


def test_criterion_04_order_criterion_vs_generator_oracle():
    r = run_suite("order")
    assert r.bounds["max_value"] == 30 and r.bounds["random_pairs"] == 500
    assert r.passed, r.failures[:3]
    assert r.elapsed < 60.0, f"{r.elapsed:.2f}s"
    assert _digest(r) == REPORT_SHA256["order"]
    _ok(4, f"order criterion == generator oracle, {r.instances_checked} comparisons, {r.elapsed:.2f}s")


def test_criterion_05_doubleton_scan_finds_only_power_pairs():
    r = run_suite("classify")
    assert r.bounds["max_value"] == 4096
    assert r.passed, r.failures[:3]
    (finding,) = r.findings
    expected = [[2**n, 2 ** (n + 1)] for n in range(12)]  # 1..2 up to 2048..4096
    assert finding["trivial_signature_pairs"] == expected
    assert r.elapsed < 5.0, f"{r.elapsed:.2f}s"
    assert _digest(r) == REPORT_SHA256["classify"]
    _ok(
        5,
        f"FInfinity doubletons below 4096 are exactly the {len(expected)} power pairs, "
        f"{r.elapsed:.2f}s",
    )


def test_criterion_06_upset_cardinalities():
    r = run_suite("upsets")
    assert tuple(r.bounds["prime_list"]) == (3, 5, 7, 11, 13)
    assert r.bounds["instances"] == 20
    assert r.passed, r.failures[:3]
    assert _digest(r) == REPORT_SHA256["upsets"]
    _ok(6, "up-set sizes: p-1 for {p,2p}, 2 for all 20 seeded two-prime instances")


def test_criterion_07_gamma_closed_form_equals_definition():
    r = run_suite("gamma")
    assert tuple(r.bounds["prime_list"]) == (3, 5, 7, 11, 13, 17, 31)
    assert r.bounds["bound"] == 10**6
    assert r.passed, r.failures[:3]
    assert r.elapsed < 5.0, f"{r.elapsed:.2f}s"
    assert _digest(r) == REPORT_SHA256["gamma"]
    edge_count = sum(f["edges"] for f in r.findings)
    _ok(7, f"closed-form == definitional edges to 10^6 ({edge_count} edges), {r.elapsed:.2f}s")


def test_criterion_08_degree_fingerprints():
    grid = [(e2, ep) for e2 in range(20) for ep in range(1, 21)]

    assert degree_infinite(3, 3) == 4
    for e2, ep in grid:
        v = 2**e2 * 3**ep
        if v != 3:
            assert degree_infinite(3, v) >= 5, v

    for p in (5, 7, 17, 31):
        assert degree_infinite(p, p) == 2, p
        for e2, ep in grid:
            v = 2**e2 * p**ep
            if v != p:
                assert degree_infinite(p, v) >= 3, (p, v)

    for p in (11, 13):
        ones = {2**e2 * p**ep for e2, ep in grid if degree_infinite(p, 2**e2 * p**ep) == 1}
        assert ones == {p**m for m in range(1, 21)}, p

    _ok(8, "degree profile: (3)=4, Fermat/Mersenne (p)=2, degree-1 set = {p^m} otherwise")


def test_criterion_09_zsigmondy_exceptions():
    r = run_suite("zsigmondy")
    assert r.bounds["max_base"] == 30 and r.bounds["max_exponent"] == 30
    assert r.passed, r.failures[:3]
    (finding,) = r.findings
    assert finding["inclusions"] == [[2, 6], [3, 2], [7, 2], [15, 2]]
    assert r.elapsed < 10.0, f"{r.elapsed:.2f}s"
    assert _digest(r) == REPORT_SHA256["zsigmondy"]
    _ok(9, f"inclusion holds exactly on (2,6) and (2^k-1, 2), {r.elapsed:.2f}s")


def test_criterion_10_consecutive_perfect_powers():
    t0 = time.perf_counter()
    pairs = consecutive_perfect_powers(10**6)
    dt = time.perf_counter() - t0
    assert pairs == [(8, 9)]
    assert dt < 10.0, f"{dt:.2f}s"
    r = run_suite("powers")
    assert r.passed and r.findings == ({"consecutive_pairs": [[8, 9]]},)
    assert _digest(r) == REPORT_SHA256["powers"]
    _ok(10, f"only 8,9 below 10^6, {dt:.2f}s")


def test_criterion_11_power_chains():
    r = run_suite("chains")
    assert r.bounds["max_base"] == 50 and r.bounds["max_exponent"] == 5
    assert r.passed, r.failures[:3]
    nontrivial = {f["x"] for f in r.findings}
    assert nontrivial == {3, 7, 15, 31}  # exactly the 2^m - 1 shapes
    assert r.elapsed < 8.0, f"{r.elapsed:.2f}s"
    assert _digest(r) == REPORT_SHA256["chains"]
    _ok(11, f"chains: {{1}} for odd non-Mersenne bases, 1 always present, monotone, {r.elapsed:.2f}s")


def test_criterion_12_prime_recovery_from_order_relations():
    t0 = time.perf_counter()
    for x in range(3, 201):
        got = set(primes_from_order(x, x)) | {2}
        want = set(prime_factors(x)) | {2}
        assert got == want, (x, sorted(got), sorted(want))
    dt = time.perf_counter() - t0
    _ok(12, f"odd prime support of every x in [3,200] recovered from the order, {dt:.2f}s")
