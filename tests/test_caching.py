"""Checks for popularity, cache contents, and request-pair classification."""

import itertools
import math

import numpy as np
import pytest

from cachenoma.caching import (
    MAX_FILES,
    CacheCase,
    Catalog,
    case_distribution,
    zipf_popularity,
)

# mpmath references for 5 files at exponent 0.5
ZIPF_DENOM_5_HALF = 3.23167064587613123
ZIPF_Q1_5_HALF = 0.309437473548265054
ZIPF_Q5_5_HALF = 0.138384645127942743


# The tags pair by pair: the brute-force reference for case_distribution.

def populate_cache(catalog):
    """Most-popular placement: both vehicles hold files {1, ..., cache_size}."""
    return frozenset(range(1, catalog.cache_size + 1))


def classify_case(req1, req2, cache1, cache2):
    """Map one request pair to its transmission scenario tag (the definition
    that ``case_distribution`` sums in closed form)."""
    if req1 == req2:
        return CacheCase.COMMON_REQUEST
    hit1 = req1 in cache1
    hit2 = req2 in cache2
    if hit1 and hit2:
        return CacheCase.SELF_HIT_BOTH
    if hit1:
        return CacheCase.SELF_HIT_1
    if hit2:
        return CacheCase.SELF_HIT_2
    cross1 = req2 in cache1  # vehicle 1 holds what vehicle 2 wants
    cross2 = req1 in cache2  # vehicle 2 holds what vehicle 1 wants
    if cross1 and cross2:
        return CacheCase.A
    if cross1:
        return CacheCase.B
    if cross2:
        return CacheCase.C
    return CacheCase.D


def test_catalog_validation():
    with pytest.raises(ValueError):
        Catalog(num_files=0, zeta=0.5, cache_size=0)
    with pytest.raises(ValueError):
        Catalog(num_files=5, zeta=-0.1, cache_size=0)
    with pytest.raises(ValueError):
        Catalog(num_files=5, zeta=0.5, cache_size=6)
    with pytest.raises(ValueError):
        Catalog(num_files=5, zeta=0.5, cache_size=-1)
    with pytest.raises(ValueError, match="num_files"):
        Catalog(num_files=MAX_FILES + 1, zeta=0.5, cache_size=0)
    assert Catalog(num_files=MAX_FILES, zeta=0.5, cache_size=0).num_files == MAX_FILES


def test_zipf_uniform_at_zero_exponent():
    q = zipf_popularity(Catalog(num_files=5, zeta=0.0, cache_size=0))
    assert np.allclose(q, 0.2)


def test_zipf_reference_values():
    q = zipf_popularity(Catalog(num_files=5, zeta=0.5, cache_size=1))
    assert math.isclose(q[0], ZIPF_Q1_5_HALF, rel_tol=1e-12)
    assert math.isclose(q[4], ZIPF_Q5_5_HALF, rel_tol=1e-12)
    assert math.isclose(q[0], (1.0 / ZIPF_DENOM_5_HALF), rel_tol=1e-12)


def test_zipf_normalized_and_sorted():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t = int(rng.integers(1, 60))
        zeta = float(rng.uniform(0.0, 3.0))
        q = np.asarray(zipf_popularity(Catalog(num_files=t, zeta=zeta, cache_size=0)))
        assert q.shape == (t,)
        assert math.isclose(float(q.sum()), 1.0, abs_tol=1e-12)
        assert np.all(np.diff(q) <= 1e-15)


def test_populate_cache_prefix():
    assert populate_cache(Catalog(num_files=5, zeta=0.5, cache_size=0)) == frozenset()
    assert populate_cache(Catalog(num_files=5, zeta=0.5, cache_size=1)) == {1}
    assert populate_cache(Catalog(num_files=5, zeta=0.7, cache_size=3)) == {1, 2, 3}
    assert populate_cache(Catalog(num_files=5, zeta=0.5, cache_size=5)) == {1, 2, 3, 4, 5}


def test_classification_examples():
    c1 = {2}
    c2 = {1}
    assert classify_case(1, 2, c1, c2) is CacheCase.A
    assert classify_case(1, 2, {2}, set()) is CacheCase.B
    assert classify_case(1, 2, set(), {1}) is CacheCase.C
    assert classify_case(1, 2, set(), set()) is CacheCase.D
    assert classify_case(3, 3, c1, c2) is CacheCase.COMMON_REQUEST
    assert classify_case(1, 2, {1}, {2}) is CacheCase.SELF_HIT_BOTH
    assert classify_case(1, 2, {1}, set()) is CacheCase.SELF_HIT_1
    assert classify_case(1, 2, set(), {2}) is CacheCase.SELF_HIT_2


def test_classification_precedence():
    # a common request wins over everything, self hits win over cross hits
    assert classify_case(1, 1, {1}, {1}) is CacheCase.COMMON_REQUEST
    assert classify_case(1, 2, {1, 2}, {1, 2}) is CacheCase.SELF_HIT_BOTH
    assert classify_case(1, 2, {1, 2}, set()) is CacheCase.SELF_HIT_1
    assert classify_case(1, 2, {2}, {2}) is CacheCase.SELF_HIT_2


def test_classification_exhaustive_membership():
    # every membership combination maps to exactly one label
    for own1, own2, cross1, cross2 in itertools.product((False, True), repeat=4):
        cache1 = set()
        cache2 = set()
        if own1:
            cache1.add(1)
        if cross1:
            cache1.add(2)
        if own2:
            cache2.add(2)
        if cross2:
            cache2.add(1)
        got = classify_case(1, 2, cache1, cache2)
        if own1 and own2:
            expected = CacheCase.SELF_HIT_BOTH
        elif own1:
            expected = CacheCase.SELF_HIT_1
        elif own2:
            expected = CacheCase.SELF_HIT_2
        elif cross1 and cross2:
            expected = CacheCase.A
        elif cross1:
            expected = CacheCase.B
        elif cross2:
            expected = CacheCase.C
        else:
            expected = CacheCase.D
        assert got is expected


def test_distribution_sums_to_one():
    rng = np.random.default_rng(2023)
    for _ in range(100):
        t = int(rng.integers(1, 30))
        zeta = float(rng.uniform(0.0, 2.5))
        k = int(rng.integers(0, t + 1))
        dist = case_distribution(Catalog(num_files=t, zeta=zeta, cache_size=k))
        assert set(dist) == set(CacheCase)
        assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)
        assert all(v >= 0.0 for v in dist.values())


def test_distribution_empty_cache():
    dist = case_distribution(Catalog(num_files=5, zeta=0.5, cache_size=0))
    assert math.isclose(dist[CacheCase.D] + dist[CacheCase.COMMON_REQUEST], 1.0,
                        abs_tol=1e-12)
    assert dist[CacheCase.A] == 0.0
    assert dist[CacheCase.SELF_HIT_1] == 0.0


def test_distribution_full_cache():
    dist = case_distribution(Catalog(num_files=5, zeta=0.5, cache_size=5))
    total = dist[CacheCase.SELF_HIT_BOTH] + dist[CacheCase.COMMON_REQUEST]
    assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_distribution_identical_caches_kill_cross_cases():
    # both vehicles hold the same most-popular prefix, so a cross hit
    # without a self hit cannot happen
    for k in (1, 2, 3, 4):
        dist = case_distribution(Catalog(num_files=5, zeta=0.8, cache_size=k))
        assert dist[CacheCase.A] == 0.0
        assert dist[CacheCase.B] == 0.0
        assert dist[CacheCase.C] == 0.0


def test_distribution_matches_brute_force():
    # the closed-form masses against the pair-by-pair double sum, over
    # catalogs from a single file up, with the cache empty, one file, all
    # but one file and full
    rng = np.random.default_rng(7)
    catalogs = [Catalog(num_files=1, zeta=0.5, cache_size=k) for k in (0, 1)]
    for _ in range(12):
        t = int(rng.integers(2, 40))
        zeta = float(rng.uniform(0.0, 3.0))
        for k in {0, 1, t - 1, t, int(rng.integers(0, t + 1))}:
            catalogs.append(Catalog(num_files=t, zeta=zeta, cache_size=k))
    for cat in catalogs:
        q = zipf_popularity(cat)
        cache = populate_cache(cat)
        expected = {case: 0.0 for case in CacheCase}
        for i in range(1, cat.num_files + 1):
            for j in range(1, cat.num_files + 1):
                expected[classify_case(i, j, cache, cache)] += float(q[i - 1] * q[j - 1])
        dist = case_distribution(cat)
        for case in CacheCase:
            assert abs(dist[case] - expected[case]) <= 1e-14, (cat, case)


def test_distribution_exact_uniform_values():
    # zeta = 0 makes every q_t = 1/300; with 10 cached files the masses are
    # the rationals 1/300, 1/1000, 29/900 (each single self hit) and
    # 8381/9000
    dist = case_distribution(Catalog(num_files=300, zeta=0.0, cache_size=10))
    exact = {
        CacheCase.COMMON_REQUEST: 1 / 300,
        CacheCase.SELF_HIT_BOTH: 1 / 1000,
        CacheCase.SELF_HIT_1: 29 / 900,
        CacheCase.SELF_HIT_2: 29 / 900,
        CacheCase.D: 8381 / 9000,
        CacheCase.A: 0.0,
        CacheCase.B: 0.0,
        CacheCase.C: 0.0,
    }
    for case, value in exact.items():
        assert abs(dist[case] - value) <= 1e-15, case


def test_distribution_popularity_skew_grows_top_mass():
    # joint probability that both vehicles want file 1 never drops as the
    # exponent rises
    prev = -1.0
    for zeta in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
        q = zipf_popularity(Catalog(num_files=5, zeta=zeta, cache_size=0))
        top = float(q[0] * q[0])
        assert top >= prev
        prev = top
