import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fdsrank
import oracles
from conftest import blown_up_digraph, small_digraphs, sweep, unreduced_tensor, whole_factors
from fdsrank import enumeration, fds, kernels
from fdsrank import fixtures as fx
from fdsrank.digraph import Digraph, structure_stats, twin_classes, weak_components
from fdsrank.enumeration import (
    enumerate_stats,
    essential_table_count,
    family_size,
    minrank_exact,
    univariate_baseline,
)
from fdsrank.errors import IntegrityError, SizeLimitExceeded
from fdsrank.fds import make_fds


class TestFamilySize:
    def test_essential_counts_match_brute_force(self):
        for q, d in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1)):
            brute = 0
            for table in itertools.product(range(q), repeat=q ** d):
                f = make_fds(
                    d + 1,
                    q,
                    [list(range(2, d + 2))] + [[]] * d,
                    [list(table)] + [[0]] * d,
                )
                from fdsrank.fds import interaction_graph

                if len(interaction_graph(f).in_neighbors(1)) == d:
                    brute += 1
            assert essential_table_count(q, d) == brute

    def test_star_strict_count(self):
        assert family_size(fx.STAR3, 2, True) == 2000

    def test_loose_counts(self):
        assert family_size(fx.L1, 2, False) == 4
        assert family_size(fx.C3, 2, False) == 4 ** 3
        assert family_size(fx.K3, 2, False) == 16 ** 3


class TestEnumerateStats:
    def test_loop_strict(self):
        r = enumerate_stats(fx.L1, 2, strict=True)
        assert r.function_count == 2
        assert (r.rank.minimum, r.rank.maximum) == (2, 2)
        assert r.fixed_points.histogram == {0: 1, 2: 1}
        assert r.fixed_points.average == 1

    def test_single_arc_strict(self):
        r = enumerate_stats(fx.P1, 2, strict=True)
        assert r.function_count == 4
        assert r.rank.minimum == 2
        assert r.fixed_points.histogram == {1: 4}

    def test_star_strict(self):
        r = enumerate_stats(fx.STAR3, 2, strict=True)
        assert r.function_count == 2000
        assert r.rank.minimum == 5

    def test_cycle_strict(self):
        r = enumerate_stats(fx.C3, 2, strict=True)
        assert r.function_count == 8
        assert r.fixed_points.histogram == {0: 4, 2: 4}
        assert r.periodic_rank.histogram == {8: 8}

    def test_histograms_sum_to_count(self):
        r = enumerate_stats(fx.K3, 2, strict=False)
        for stats in r.quantities().values():
            assert sum(stats.histogram.values()) == r.function_count
            assert stats.minimum <= stats.average <= stats.maximum

    def test_fixed_point_free_fraction(self):
        r = enumerate_stats(fx.L1, 2, strict=True)
        assert r.fixed_point_free_fraction == Fraction(1, 2)

    def test_guard_refusal_reports_projection(self):
        dense = Digraph(3, [(u, v) for u in (1, 2, 3) for v in (1, 2, 3)])
        with pytest.raises(SizeLimitExceeded) as err:
            enumerate_stats(dense, 2, strict=False, max_funcs=1000)
        assert err.value.projected == 2 ** 24

    def test_function_guard_refuses_exactly_the_families_over_it(self):
        # the guard reads a float log2 first; near the limit it counts exactly
        checked = 0
        for n in (1, 2, 3):
            for d in small_digraphs(n):
                for q, strict in itertools.product((2, 3), (False, True)):
                    size = family_size(d, q, strict)
                    for limit in {size - 1, size, size + 1, size // 3, 3 * size, 10 ** 8}:
                        try:
                            enumeration.price_family(d, q, strict, limit, 1 << 24)
                            refused = False
                        except SizeLimitExceeded as exc:
                            refused = str(exc).startswith("family has")
                            if refused:
                                assert exc.projected == size
                        assert refused == (size > limit), (d, q, strict, limit)
                        checked += 1
        assert checked > 10_000

    def test_huge_families_are_priced_without_exact_counts(self, monkeypatch):
        def exact(*args):
            raise AssertionError("an exact count of a huge family")

        monkeypatch.setattr(enumeration, "_table_counts", exact)
        k12 = fx.complete(12)
        for strict in (False, True):
            with pytest.raises(SizeLimitExceeded) as err:
                enumeration.price_family(k12, 2, strict, 10 ** 8, 1 << 24)
            assert err.value.projected == "2^24576.0"
            # with no function guard (minimum rank), the table bytes refuse:
            # 2^2048 one-byte tables of 2^11 cells and their int64 digits
            with pytest.raises(SizeLimitExceeded, match="sweep set-up") as err:
                enumeration.price_family(k12, 2, strict, math.inf, 1 << 24)
            assert err.value.projected == f"2^{2059 + math.log2(9):.1f}"
        # states first: K30 has 2^30 states and 2^(2^29) tables a vertex
        with pytest.raises(SizeLimitExceeded, match="state space") as err:
            enumerate_stats(fx.complete(30), 2)
        assert err.value.projected == 2 ** 30

    # vertex 1 reads all four vertices, itself included: 2^16 tables of 16
    # cells in 4336 alphabet orbits; the other three range over 2 constants
    FAN_IN = Digraph(4, [(u, 1) for u in range(1, 5)])
    FAN_IN_ORBITS = 4336
    # the one-byte tables of 2^16 * 16 + 2 cells, the int64 digit matrix of
    # the largest, and the orbit step's code columns over vertex 1's tables
    # at 8 bytes a table: one for each of its 4 generators and 3 working ones
    FAN_IN_TABLES = (1 + 8) * 2 ** 20 + 2 + 8 * 2 ** 16 * (4 + 3)

    def test_byte_guard_prices_the_sweep_setup(self, monkeypatch):
        # then a one-byte padded tensor of 4 * 4336 * 16 cells and one
        # vertex's one-byte gather of 4336 * 16; the kept rows take 5 blocks,
        # so the plan sorts copies of its 4336 + 3 * 2 rows, 24 bytes each
        d, reps = self.FAN_IN, self.FAN_IN_ORBITS
        assert np.unique(enumeration._table_orbits(2, 4, group_coords(4, 0))).size == reps
        priced = self.FAN_IN_TABLES + (4 + 1) * reps * 16 + 24 * (reps + 3 * 2)
        monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", priced - 1)
        with pytest.raises(SizeLimitExceeded) as err:
            enumerate_stats(d, 2)
        assert err.value.projected == priced
        monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", priced)
        assert enumeration.price_family(d, 2, False, 10 ** 8, 2 ** 24) == (2 ** 19, 16)
        # over the cap the table step alone is priced, before any labelling
        monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", self.FAN_IN_TABLES - 1)
        enumeration._table_orbits.cache_clear()
        enumeration._orbit_leaders.cache_clear()
        with pytest.raises(SizeLimitExceeded) as err:
            enumerate_stats(d, 2)
        assert err.value.projected == self.FAN_IN_TABLES
        assert enumeration._table_orbits.cache_info().currsize == 0

    def test_the_key_labelling_is_priced_before_it_is_allocated(self, monkeypatch):
        # on the complete looped graph the key step (4 alphabet and 2 input
        # generators over 256 tables) sets the orbit peak: a cap one byte
        # under the price refuses the sweep before any key is labelled
        d = LOOPED_K3
        keyed = []
        real = enumeration._table_orbits

        def recorded(q, k, coords, swaps=()):
            keyed.append(bool(swaps))
            return real(q, k, coords, swaps)

        def smallest_cap():
            lo, hi = 1, 1 << 24
            while lo < hi:
                monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", (lo + hi) // 2)
                try:
                    enumeration.price_family(d, 2, False, math.inf, 1 << 24)
                    hi = (lo + hi) // 2
                except SizeLimitExceeded:
                    lo = (lo + hi) // 2 + 1
            return lo

        priced = smallest_cap()
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "twin_classes", lambda d: [[v] for v in d.vertices()])
            assert smallest_cap() < priced
        monkeypatch.setattr(enumeration, "_table_orbits", recorded)
        monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", priced - 1)
        with pytest.raises(SizeLimitExceeded) as err:
            enumerate_stats(d, 2)
        assert err.value.projected == priced and not any(keyed)
        monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", priced)
        enumerate_stats(d, 2)
        assert any(keyed)

    def test_a_sweep_priced_at_its_orbit_representatives_runs(self, monkeypatch):
        # under a cap the unreduced tensor (4 * 2^16 * 16 cells) would pass,
        # the sweep runs on the representatives and matches the whole product
        d = self.FAN_IN
        unreduced = self.FAN_IN_TABLES + (4 + 1) * 2 ** 20
        monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", unreduced - 1)
        report = enumerate_stats(d, 2)
        hists = sweep(*unreduced_tensor(d, 2, False), 2 ** d.n)
        for stats, hist in zip(report.quantities().values(), hists):
            assert stats.histogram == {int(v): int(c) for v, c in enumerate(hist) if c}

    def test_one_guard_prices_every_sweep(self):
        d = fx.STAR3
        priced = enumeration.price_family(d, 2, True, 10 ** 8, 2 ** 24)
        assert priced == (family_size(d, 2, True), 2 ** d.n)
        with pytest.raises(SizeLimitExceeded) as swept:
            enumerate_stats(d, 2, strict=True, max_states=2 ** d.n - 1)
        with pytest.raises(SizeLimitExceeded) as searched:
            minrank_exact(d, 2, max_states=2 ** d.n - 1)
        assert searched.value.projected == swept.value.projected == 2 ** d.n
        assert str(searched.value) == str(swept.value)

    @pytest.mark.parametrize("cap", [200, 5_000, 100_000])
    def test_digit_guard_never_refuses_a_priced_sweep(self, monkeypatch, cap):
        # a sweep's tables are digits(q, q^d); under one shared byte cap,
        # every family price_family accepts materializes them without a refusal
        monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", cap)
        monkeypatch.setattr(fds, "TABLE_BYTE_CAP", cap)
        accepted = 0
        for q in (2, 3, 4, 5):
            for d in range(4):
                for n in range(max(d, 1), d + 3):
                    g = Digraph(n, [(u, 1) for u in range(1, d + 1)])
                    for strict in (False, True):
                        try:
                            enumeration.price_family(g, q, strict, math.inf, 1 << 40)
                        except SizeLimitExceeded:
                            continue
                        accepted += 1
                        assert enumeration._all_tables.__wrapped__(q, d).shape[1] == q ** d
        assert accepted

    def test_brute_force_cross_check_tiny(self):
        # every 2-vertex loose family at q=2, by direct table product
        for d in small_digraphs(2):
            report = enumerate_stats(d, 2, strict=False)
            ins = {v: sorted(d.in_neighbors(v)) for v in d.vertices()}
            ranks = []
            fixes = []
            for t1 in itertools.product(range(2), repeat=2 ** len(ins[1])):
                for t2 in itertools.product(range(2), repeat=2 ** len(ins[2])):
                    f = make_fds(2, 2, [ins[1], ins[2]], [list(t1), list(t2)])
                    ranks.append(oracles.brute_rank(f))
                    fixes.append(len(oracles.brute_fixed_points(f)))
            assert report.function_count == len(ranks)
            assert report.rank.minimum == min(ranks)
            assert report.rank.maximum == max(ranks)
            assert report.fixed_points.average == Fraction(sum(fixes), len(fixes))

    # set-ups of at least 1 MiB: below that, Python objects and numpy's ufunc
    # buffers (a few KiB to 64 KiB, whatever the family) dominate the peak,
    # and no guard is needed there
    SETUPS = [
        (2, Digraph(4, [(u, 1) for u in range(1, 5)])),
        (2, Digraph(4, [(u, v) for u in range(1, 5) for v in (1, 2)] + [(1, 3)])),
        (3, Digraph(2, [(1, 1), (2, 1), (2, 2)])),
        (3, Digraph(3, [(1, 1), (2, 1), (1, 2)])),
        (3, Digraph(3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])),
        # twins 1, 2 read every vertex, twins 3, 4 none: the plan labels
        # every key of 2^16 tables and splits
        (2, Digraph(4, [(u, v) for u in range(1, 5) for v in (1, 2)])),
    ]

    @pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
    @pytest.mark.parametrize("q,d", SETUPS, ids=[f"{q}^{d.n}-{d.m}" for q, d in SETUPS])
    def test_priced_bytes_cover_the_setup_peak(self, monkeypatch, q, d, strict):
        # the guard prices in two steps, so check its decision: a cap one
        # byte under the measured peak refuses the sweep
        enumeration._all_tables.cache_clear()
        enumeration._essential_selector.cache_clear()
        enumeration._table_orbits.cache_clear()
        enumeration._orbit_leaders.cache_clear()
        tracemalloc.start()
        try:
            rows, _counts, _factors = enumeration._sweep_plan(d, q, strict, q ** d.n)
            enumeration._sweep_tensor(d, q, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak >= 1 << 20
        monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", peak - 1)
        with pytest.raises(SizeLimitExceeded) as err:
            enumeration.price_family(d, q, strict, math.inf, 1 << 24)
        assert err.value.projected >= peak

    def test_json_round_stable(self):
        import json

        a = enumerate_stats(fx.C3, 2, strict=True).to_json_dict()
        b = enumerate_stats(fx.C3, 2, strict=True).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _essential(table, q, k):
    """Whether a little-endian table on k inputs changes along each input."""
    return all(
        any(table[i] != table[i - (i // q ** j % q - c) * q ** j]
            for i in range(q ** k) for c in range(q))
        for j in range(k)
    )


def _oracle_stats(d, q, strict):
    """Histograms of rank, periodic rank and fixed points over the explicit table product."""
    ins = [sorted(d.in_neighbors(v)) for v in d.vertices()]
    choices = []
    for inputs in ins:
        tables = [list(t) for t in itertools.product(range(q), repeat=q ** len(inputs))]
        choices.append([t for t in tables if not strict or _essential(t, q, len(inputs))])
    hists = (Counter(), Counter(), Counter())
    for tables in itertools.product(*choices):
        f = make_fds(d.n, q, ins, tables)
        hists[0][oracles.brute_rank(f)] += 1
        hists[1][oracles.brute_periodic_rank(f)] += 1
        hists[2][len(oracles.brute_fixed_points(f))] += 1
    return hists


# every (graph, alphabet, family) with n <= 3 of at most 2000 systems
SMALL_FAMILIES = [
    (d, q, strict)
    for n in (1, 2, 3) for d in small_digraphs(n) for q in (2, 3) for strict in (False, True)
    if family_size(d, q, strict) <= 2000
]


@given(st.sampled_from(SMALL_FAMILIES))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_the_explicit_table_product(family):
    d, q, strict = family
    report = enumerate_stats(d, q, strict=strict)
    hists = _oracle_stats(d, q, strict)
    total = sum(hists[0].values())
    assert report.function_count == total
    for stats, hist in zip(report.quantities().values(), hists):
        assert stats.histogram == dict(hist)
        assert (stats.minimum, stats.maximum) == (min(hist), max(hist))
        assert stats.average == Fraction(sum(v * c for v, c in hist.items()), total)
    assert report.fixed_point_free_fraction == Fraction(hists[2][0], total)


def group_coords(k, self_pos, moved=None, output=True):
    """The coordinates ``_table_orbits`` permutes for the group that
    ``oracles.brute_table_orbits`` applies with the same arguments."""
    moved = range(k) if moved is None else sorted(moved)
    return (tuple((j, j == self_pos) for j in moved)
            + ((None, True),) * (output and self_pos is None))


# every (q, k, self_pos) with q <= 6 and at most 20000 tables on k inputs
ORBIT_CASES = [
    (q, k, self_pos)
    for q in range(2, 7) for k in range(4) if q ** (q ** k) <= 20000
    for self_pos in [None, *range(k)]
]


class TestTableOrbits:
    @pytest.mark.parametrize("q,k,self_pos", ORBIT_CASES,
                             ids=[f"q{q}-k{k}-{s}" for q, k, s in ORBIT_CASES])
    def test_matches_the_whole_group(self, q, k, self_pos):
        label = enumeration._table_orbits(q, k, group_coords(k, self_pos))
        assert label.tolist() == oracles.brute_table_orbits(q, k, self_pos)
        sizes = np.bincount(label)
        sizes = sizes[sizes > 0]
        assert sizes.sum() == q ** (q ** k)
        order = math.factorial(q) ** (k + (self_pos is None))
        assert all(order % int(s) == 0 for s in sizes)

    @pytest.mark.parametrize("q,k,self_pos", ORBIT_CASES,
                             ids=[f"q{q}-k{k}-{s}" for q, k, s in ORBIT_CASES])
    def test_matches_every_chain_group(self, q, k, self_pos):
        # a later vertex of the chain permutes only the coordinates no earlier
        # vertex claimed: any subset of its input digits, with or without its
        # output, and its own input digit exactly when its output
        for size in range(k + 1):
            for moved in itertools.combinations(range(k), size):
                for output in (False, True):
                    if self_pos is not None and (self_pos in moved) != output:
                        continue
                    if size == k and output:
                        continue  # the whole group, checked above
                    label = enumeration._table_orbits(
                        q, k, group_coords(k, self_pos, moved, output))
                    assert label.tolist() == oracles.brute_table_orbits(
                        q, k, self_pos, moved, output), (moved, output)

    @pytest.mark.parametrize("q,k,classes", [(2, 1, 2), (2, 2, 4), (2, 3, 14), (3, 1, 3),
                                             (3, 2, 84)])
    def test_key_classes_match_the_whole_key_group(self, q, k, classes):
        # every input permutation with an alphabet permutation on each input
        # and on the output: the NPN classes at q=2
        label = enumeration._table_orbits(q, k, *enumeration._key_group(k))
        assert label.tolist() == oracles.brute_table_class(q, k)
        assert np.unique(label).size == classes

    @pytest.mark.parametrize("q,k,self_pos,loose,strict", [
        (2, 3, 0, 46, 33), (2, 3, 2, 46, 33), (3, 2, None, 139, None), (3, 2, 0, 638, None),
    ])
    def test_orbit_counts(self, q, k, self_pos, loose, strict):
        reps = np.unique(enumeration._table_orbits(q, k, group_coords(k, self_pos)))
        assert reps.size == loose
        if strict is not None:
            essential = enumeration._essential_selector(q, k)
            assert np.intersect1d(reps, essential).size == strict

    def test_orbits_never_mix_essential_and_inessential_tables(self):
        for q, k, self_pos in ORBIT_CASES:
            label = enumeration._table_orbits(q, k, group_coords(k, self_pos))
            essential = np.zeros(label.size, dtype=bool)
            essential[enumeration._essential_selector(q, k)] = True
            assert np.array_equal(essential, essential[label])


# every (q, k) with q <= 6 whose q^(q^k) tables the table byte guard admits
MOVE_CASES = ([(2, k) for k in range(5)] + [(3, k) for k in range(3)]
              + [(q, k) for q in (4, 5, 6) for k in range(2)])


@pytest.mark.parametrize("q,k", MOVE_CASES, ids=[f"q{q}-k{k}" for q, k in MOVE_CASES])
def test_orbit_moves_match_the_per_cell_construction(q, k):
    # a chain group's generators are those of its coordinates, so the whole
    # groups of a vertex that reads itself at each input, or does not, hold
    # every generator of every chain group; then the key group
    groups = [(group_coords(k, self_pos), ()) for self_pos in [None, *range(k)]]
    groups.append(enumeration._key_group(k))
    for coords, swaps in groups:
        moves = enumeration._orbit_moves(q, k, coords, swaps)
        brute = oracles.brute_orbit_moves(q, k, coords, swaps)
        assert len(moves) == len(brute) == (q - 1) * len(coords) + len(swaps)
        for move, expected in zip(moves, brute):
            assert move.dtype == np.min_scalar_type(q ** (q ** k) - 1)
            assert np.array_equal(move, expected), (coords, swaps)


LOOPED_K3 = Digraph(3, [(u, v) for u in (1, 2, 3) for v in (1, 2, 3)])
DROP_LOOP_K3 = Digraph(3, LOOPED_K3.arcs - {(3, 3)})

# every (graph, alphabet, family) with n <= 3 whose unreduced sweep is quick
REDUCIBLE_FAMILIES = [
    (d, q, strict)
    for n in (1, 2, 3) for d in small_digraphs(n) for q in (2, 3) for strict in (False, True)
    if family_size(d, q, strict) <= 300_000
]


# families where the chain reduces at least two vertices: 1>2,1>3,2>2 at q=3
# (vertex 2 claims {1, 2}, vertex 3 claims {3}), and one at 81 states where
# vertices 1, 2 and 4 each keep fewer tables than they have
CHAIN_FAMILIES = [
    (Digraph(3, [(1, 2), (1, 3), (2, 2)]), 3),
    (Digraph(3, [(1, 2), (2, 3), (3, 1)]), 3),
    (Digraph(4, [(3, 1), (1, 2)]), 3),
]


def chain_histograms(d, q, strict):
    """The kernel's histograms over the chain's rows, before any total check."""
    w, counts, mult = enumeration._sweep_tensor(d, q, enumeration._chain_rows(d, q, strict))
    return sweep(w, counts, q ** d.n, mult)


def split_histograms(d, q, strict):
    """The kernel's histograms over the packed twin split, before any total
    check, and its number of sub-products.

    No block count refuses the split here.
    """
    rows, counts, factors = enumeration._twin_split(
        d, q, enumeration._chain_rows(d, q, strict), 1, math.inf)
    w, _live, mult = enumeration._sweep_tensor(d, q, rows)
    hist = sweep(w, counts, q ** d.n, mult, factors)
    return hist, math.prod(len(subs) for _, subs in factors)


def assert_chain_sweep_is_the_unreduced_sweep(d, q, strict):
    unreduced = sweep(*unreduced_tensor(d, q, strict), q ** d.n)
    assert np.array_equal(chain_histograms(d, q, strict), unreduced)
    report = enumerate_stats(d, q, strict=strict)
    for stats, hist in zip(report.quantities().values(), unreduced):
        assert stats.histogram == {int(v): int(c) for v, c in enumerate(hist) if c}


@given(st.sampled_from(REDUCIBLE_FAMILIES))
@example((LOOPED_K3, 2, False))
@example((LOOPED_K3, 2, True))
@settings(max_examples=40, deadline=None)
def test_orbit_sweep_equals_the_unreduced_sweep(family):
    assert_chain_sweep_is_the_unreduced_sweep(*family)


@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
@pytest.mark.parametrize("d,q", CHAIN_FAMILIES,
                         ids=[f"{q}^{d.n}-{d.m}" for d, q in CHAIN_FAMILIES])
def test_chain_sweep_equals_the_unreduced_sweep(d, q, strict):
    groups = enumeration._chain_groups(d, q, strict)
    kept = [enumeration._orbit_leaders(q, len(d.in_neighbors(v + 1)), g, strict)[0].size
            for v, g in enumerate(groups)]
    assert sum(k < c for k, c in zip(kept, enumeration._table_counts(d, q, strict))) >= 2
    assert_chain_sweep_is_the_unreduced_sweep(d, q, strict)


@pytest.mark.parametrize("d,q", CHAIN_FAMILIES[:1] + [(fx.C3_LOOPED, 2)],
                         ids=["3^3-3", "2^3-6"])
def test_a_wrong_weight_is_caught(monkeypatch, d, q):
    # one row's multiplicity off by one, at each vertex in turn
    real = enumeration._sweep_tensor
    unreduced = sweep(*unreduced_tensor(d, q, False), q ** d.n)
    for v in range(d.n):
        def off_by_one(*args, v=v):
            w, counts, mult = real(*args)
            mult = [m.copy() for m in mult]  # the cached multiplicities stay intact
            mult[v][-1] += 1
            return w, counts, mult

        monkeypatch.setattr(enumeration, "_sweep_tensor", off_by_one)
        assert not np.array_equal(chain_histograms(d, q, False), unreduced)
        with pytest.raises(IntegrityError):
            enumerate_stats(d, q)


def components(d):
    """Each weak component of ``d``, relabelled 1..k in increasing vertex order."""
    found = []
    for vertices in weak_components(d):
        index = {v: i for i, v in enumerate(vertices, 1)}
        found.append(Digraph(len(vertices), [(index[u], index[v]) for u, v in d.arcs
                                             if u in index]))
    return found


def test_one_kernel_call_per_sweep(monkeypatch):
    # one kernel call and one tensor a component sweep, whichever plan it
    # takes: the 4-vertex chain family has two components
    calls = Counter()
    for module, name in [(kernels, "family_histograms"), (enumeration, "_sweep_tensor")]:
        def counted(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    for d, q in CHAIN_FAMILIES + [(LOOPED_K3, 2), (DROP_LOOP_K3, 2), (fx.C3, 2)]:
        # strict first: after the loose sweep, a strict request makes no call
        swept = len(components(d))
        for strict in (True, False):
            calls.clear()
            enumerate_stats(d, q, strict=strict)
            assert calls == Counter(family_histograms=swept, _sweep_tensor=swept), (d, q, strict)
            _rows, counts, factors = enumeration._sweep_plan(d, q, strict, q ** d.n)
            assert (factors != whole_factors(counts)) == (d in (LOOPED_K3, DROP_LOOP_K3)), (
                d, q, strict)
        calls.clear()
        enumerate_stats(d, q, strict=True)
        assert calls == Counter(), (d, q)


# (graph, alphabet) with twin classes of two and three vertices and more
# than one key a class: q=2 and q=3, and 81 states
TWIN_FAMILIES = [
    (LOOPED_K3, 2),
    (DROP_LOOP_K3, 2),
    (Digraph(3, [(3, 1), (3, 2), (3, 3)]), 3),
    (Digraph(3, [(1, 1), (2, 2), (3, 3)]), 3),
    (Digraph(4, [(4, 1), (4, 2), (4, 3)]), 3),
    (Digraph(4, [(1, 1), (2, 2), (1, 2), (2, 1), (3, 1), (3, 2), (1, 4), (2, 4)]), 2),
]


@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
@pytest.mark.parametrize("d,q", TWIN_FAMILIES, ids=[f"{q}^{d.n}-{d.m}" for d, q in TWIN_FAMILIES])
def test_twin_split_equals_the_unreduced_sweep(d, q, strict):
    unreduced = sweep(*unreduced_tensor(d, q, strict), q ** d.n)
    hist, sub_products = split_histograms(d, q, strict)
    assert sub_products > 1
    assert np.array_equal(hist, unreduced)


def test_a_wrong_multinomial_weight_is_caught(monkeypatch):
    # one run's class weight off by one, for one of weight 1 and one above
    d, q = LOOPED_K3, 2
    plain = chain_histograms(d, q, False)
    real = enumeration._multinomial
    for above_one in (False, True):
        wrong = []

        def off_by_one(combo, above_one=above_one):
            weight = real(combo)
            if not wrong and (weight > 1) == above_one:
                wrong.append(combo)
                return weight + 1
            return weight

        monkeypatch.setattr(enumeration, "_multinomial", off_by_one)
        assert not np.array_equal(split_histograms(d, q, False)[0], plain)
        wrong.clear()
        with pytest.raises(IntegrityError):
            enumerate_stats(d, q)


# twin families drawn from random modules: n <= 4, q <= 3, and an unreduced
# sweep small enough to compare with
def random_twin_families(seed, count):
    """``count`` families of each kind of twin classes: one class of 2, one
    of 3, and two classes."""
    rng = random.Random(seed)
    kinds = Counter()
    families = []
    while min(kinds[kind] for kind in [(2,), (3,), (2, 2)]) < count:
        d = blown_up_digraph(rng, rng.randint(2, 4))
        q = rng.choice((2, 3))
        kind = tuple(sorted(len(c) for c in twin_classes(d) if len(c) > 1))
        if kind and kinds[kind] < count and family_size(d, q, False) <= 100_000:
            kinds[kind] += 1
            families.append((d, q))
    return families


RANDOM_TWIN_FAMILIES = random_twin_families(24, 8)


@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
def test_packed_split_equals_the_unreduced_sweep_on_random_twin_families(strict):
    sizes = Counter()
    for d, q in RANDOM_TWIN_FAMILIES:
        if family_size(d, q, strict) == 0:
            continue
        unreduced = sweep(*unreduced_tensor(d, q, strict), q ** d.n)
        assert np.array_equal(split_histograms(d, q, strict)[0], unreduced), (d.arcs, q)
        sizes[tuple(sorted(len(c) for c in twin_classes(d) if len(c) > 1))] += 1
    # classes of 2 and of 3 twins, and two classes in one graph
    assert sizes[(2,)] and sizes[(3,)] and sizes[(2, 2)], sizes


@pytest.mark.parametrize("d,q,cells", [
    (Digraph(4, [(4, 1), (4, 2), (4, 3)]), 3, 5),
    (Digraph(4, [(4, 1), (4, 2), (4, 3)]), 3, 24),
    (DROP_LOOP_K3, 2, 1000),
], ids=["3^4-5", "3^4-24", "2^3-1000"])
def test_sub_products_straddling_blocks_give_the_same_histograms(monkeypatch, d, q, cells):
    # blocks of a few columns: sub-products are cut across block boundaries,
    # inside a head and between heads, and blocks mix column classes
    for strict in (False, True):
        whole = split_histograms(d, q, strict)[0]
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "BLOCK_CELLS", cells * q ** d.n)
            assert np.array_equal(split_histograms(d, q, strict)[0], whole)


class TestSweepPlan:
    def counters(self, monkeypatch):
        """Calls to twin_classes, _key_group and _multinomial, as they happen."""
        calls = Counter()
        for name in ("twin_classes", "_key_group", "_multinomial"):
            def counted(*args, real=getattr(enumeration, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(enumeration, name, counted)
        return calls

    @pytest.mark.parametrize("strict,sub_products,systems",
                             [(False, 105, 507_980), (True, 55, 330_708)])
    def test_the_complete_looped_graph_splits_in_the_cheapest_order(
            self, strict, sub_products, systems):
        # 3,014,656 and 1,568,292 systems on the chain's rows alone; the
        # cheapest order of each key multiset, found by trying every order,
        # sweeps as many
        rows, counts, factors = enumeration._sweep_plan(LOOPED_K3, 2, strict, 8)
        (members, subs), = factors
        assert len(subs) == sub_products and counts == [systems]
        assert sum(math.prod(runs[-1][1] - runs[0][0] for runs in sub) for sub in subs) == systems
        # each sub-product counts its systems times their orbit sizes and
        # the weights of their runs
        counted = sum(
            math.prod(sum(weight * int(rows[v][1][a:b].sum()) for a, b, weight in runs)
                      for v, runs in zip(members, sub))
            for sub in subs)
        assert counted == family_size(LOOPED_K3, 2, strict)

    def test_one_block_is_swept_plain_without_keys(self, monkeypatch):
        # both families have twins, and their chain's rows fit in one block
        calls = self.counters(monkeypatch)
        for d, q in [(Digraph(3, [(3, 1), (3, 2), (3, 3)]), 2), (fx.E3, 3)]:
            n_states = q ** d.n
            rows, counts, factors = enumeration._sweep_plan(d, q, False, n_states)
            assert enumeration._kernel_blocks(math.prod(counts), kernels.BLOCK_CELLS // n_states) == 1
            assert factors == whole_factors(counts)
        assert calls == Counter()
        enumeration._sweep_plan(LOOPED_K3, 2, False, 8)
        assert calls["twin_classes"] == 1 and calls["_key_group"] == 1
        assert calls["_multinomial"] == 2 * 105 - 14  # no later keys after the last

    @pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
    def test_too_many_sub_products_exit_before_any_is_listed(self, monkeypatch, strict):
        # twins 2, 3 and 4 read nothing: one key, so the split packs into as
        # many blocks as the plain plan (5), and none of it is listed
        calls = self.counters(monkeypatch)
        d = Digraph(4, [(u, 1) for u in range(1, 5)])
        rows, counts, factors = enumeration._sweep_plan(d, 2, strict, 16)
        assert factors == whole_factors(counts)
        assert calls["_key_group"] == 1 and calls["_multinomial"] == 0
        plain = enumeration._kernel_blocks(math.prod(counts), 8192)
        split = enumeration._twin_split(d, 2, rows, 8192, math.inf)
        assert (plain, enumeration._kernel_blocks(math.prod(split[1]), 8192)) == (5, 5)

    @pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
    def test_the_split_is_taken_when_it_packs_into_fewer_blocks(self, strict):
        # dropping a loop leaves twins 1 and 2: 12 plain blocks loose, 5
        # strict, and the split's 81,952 and 36,260 systems pack into 6 and 3
        rows, counts, factors = enumeration._sweep_plan(DROP_LOOP_K3, 2, strict, 8)
        plain = enumeration._kernel_blocks(
            math.prod(codes.size for codes, *_ in enumeration._chain_rows(DROP_LOOP_K3, 2, strict)),
            16384)
        packed = enumeration._kernel_blocks(math.prod(counts), 16384)
        assert factors != whole_factors(counts)
        assert (plain, math.prod(counts), packed) == ((12, 81_952, 6) if not strict
                                                      else (5, 36_260, 3))


class TestMinrankExact:
    def test_examples(self):
        assert minrank_exact(fx.STAR3, 2) == 5
        assert minrank_exact(fx.C3, 2) == 8
        assert minrank_exact(fx.E3, 2) == 1

    def test_agrees_with_enumeration(self):
        # the search tries one table per orbit of each vertex's chain group,
        # the sweep weights them: every digraph with n <= 3 at q=2, and at
        # q=3 every digraph with n <= 3 whose loose family fits the verify
        # battery's 2M budget
        families = [(d, 2) for n in (1, 2, 3) for d in small_digraphs(n)]
        families += [(d, 3) for n in (1, 2, 3) for d in small_digraphs(n)
                     if family_size(d, 3, False) <= 2_000_000]
        for d, q in families:
            swept = enumerate_stats(d, q, strict=True, max_funcs=math.inf)
            assert minrank_exact(d, q) == swept.rank.minimum, (d, q)

    def test_the_search_agrees_with_enumeration_at_q3(self, monkeypatch):
        # with the AND network's rank replaced by q^n, the search itself
        # must find the strict sweep's minimum on the 144 q=3 families above
        families = [d for n in (1, 2, 3) for d in small_digraphs(n)
                    if family_size(d, 3, False) <= 2_000_000]
        minima = [enumerate_stats(d, 3, strict=True, max_funcs=math.inf).rank.minimum
                  for d in families]
        searched = []
        real = enumeration._sweep_tensor
        monkeypatch.setattr(enumeration, "conjunctive_rank", lambda d, max_states: 3 ** d.n)
        monkeypatch.setattr(enumeration, "_sweep_tensor",
                            lambda d, q, rows: searched.append(d) or real(d, q, rows))
        for d, minimum in zip(families, minima):
            assert minrank_exact(d, 3) == minimum, sorted(d.arcs)
        assert len(searched) == len(families) == 144

    def test_monotone_in_alphabet_on_two_vertex_graphs(self):
        for d in small_digraphs(2):
            assert minrank_exact(d, 2) >= minrank_exact(d, 3)


class TestUnivariate:
    def test_q2(self):
        b = univariate_baseline(2)
        assert b.closed_form_average_rank == Fraction(3, 2)
        assert b.enumerated_average_rank == Fraction(3, 2)
        assert b.rank_histogram == {1: 2, 2: 2}

    def test_q3(self):
        b = univariate_baseline(3)
        assert b.closed_form_average_rank == Fraction(19, 9)

    def test_fixed_point_free_counts(self):
        for q in (2, 3, 4):
            assert univariate_baseline(q).fixed_point_free_count == (q - 1) ** q

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(enumeration, "DEFAULT_MAX_FUNCS", 10)
        with pytest.raises(SizeLimitExceeded) as err:
            univariate_baseline(4)
        assert err.value.projected == 4 ** 4

    def test_wrong_enumerated_average_is_an_integrity_error(self, monkeypatch):
        real = enumeration.enumerate_stats

        def off_by_one(d, q, **kwargs):
            report = real(d, q, **kwargs)
            rank = dataclasses.replace(report.rank, average=report.rank.average + 1)
            return dataclasses.replace(report, rank=rank)

        monkeypatch.setattr(enumeration, "enumerate_stats", off_by_one)
        with pytest.raises(IntegrityError, match="closed form"):
            univariate_baseline(3)


DROP_ONE_SYSTEM = textwrap.dedent("""
    import sys
    import numpy as np
    from fdsrank import enumeration, fixtures, kernels
    from fdsrank.errors import IntegrityError

    if not sys.flags.optimize:
        sys.exit("asserts are on")
    real = kernels.family_histograms
    for which in range(3):
        def drop_one(*args):
            hists = [h.copy() for h in real(*args)]
            hists[which][np.nonzero(hists[which])[0][0]] -= 1
            return tuple(hists)
        kernels.family_histograms = drop_one
        try:
            enumeration.enumerate_stats(fixtures.C3, 2)
        except IntegrityError as exc:
            print(exc)
""")


def test_kernel_dropping_a_system_raises_typed_error_under_optimize():
    src = str(Path(fdsrank.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-O", "-c", DROP_ONE_SYSTEM], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    # the kernel weights each system by its orbit sizes inside its one call,
    # so a dropped system is one system short of the family
    assert out.splitlines() == [
        f"{name} histogram counts 63 systems, family has 64"
        for name in ("rank", "periodic rank", "fixed point")
    ]


class TestSweepProperties:
    """Whole-family laws over every digraph on up to 2 vertices."""

    def test_average_fixed_points_is_one(self):
        checked = 0
        for d in small_digraphs(2):
            for strict in (True, False):
                for q in (2, 3):
                    if family_size(d, q, strict) > 10 ** 7:
                        continue
                    r = enumerate_stats(d, q, strict=strict)
                    assert r.fixed_points.average == 1, (d, strict, q)
                    checked += 1
        assert checked > 50

    def test_min_fixed_points_acyclic_dichotomy(self):
        for d in small_digraphs(2):
            r = enumerate_stats(d, 2, strict=True)
            expect = 1 if structure_stats(d).acyclic else 0
            assert r.fixed_points.minimum == expect

    def test_loose_extremes_hit_matching_powers(self):
        from fdsrank.invariants import max_cycle_cover, max_independent_arcs

        checked = 0
        for d in small_digraphs(2):
            for q in (2, 3):
                if family_size(d, q, False) > 10 ** 7:
                    continue
                r = enumerate_stats(d, q, strict=False)
                assert r.rank.maximum == q ** max_independent_arcs(d)
                assert r.periodic_rank.maximum == q ** max_cycle_cover(d)
                checked += 1
        assert checked > 25

    def test_feedback_one_equality(self):
        from fdsrank.invariants import transversal_number

        for d in small_digraphs(2):
            tau = transversal_number(d)
            if tau <= 1:
                r = enumerate_stats(d, 2, strict=False)
                assert r.fixed_points.maximum == 2 ** tau

    def test_periodic_rank_stabilized_composition(self):
        # per(f) equals the rank of a high enough compositional power
        import numpy as np

        from fdsrank.fds import map_array, periodic_rank

        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(1, 3)
            q = rng.choice((2, 3))
            inputs = [sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
                      for _ in range(n)]
            tables = [[rng.randrange(q) for _ in range(q ** len(i))] for i in inputs]
            f = make_fds(n, q, inputs, tables)
            m = map_array(f)
            power = m.copy()
            for _ in range(q ** n):
                power = m[power]
            assert periodic_rank(f) == np.unique(power).size


# --- the strict family binned by the loose sweep ----------------------------------

def strict_reports(d, q):
    """The strict report read from the loose sweep, then swept on its own,
    each from an empty memo."""
    enumeration._component_memo.clear()
    enumerate_stats(d, q)
    assert set(enumeration._component_memo) == {(c, q) for c in components(d)}
    assert all(set(entry) == {False, True} for entry in enumeration._component_memo.values())
    shared = enumerate_stats(d, q, strict=True)
    enumeration._component_memo.clear()
    return shared.to_json_dict(), enumerate_stats(d, q, strict=True).to_json_dict()


SHARED_FAMILIES = (
    [(d, 2) for n in (1, 2, 3) for d in small_digraphs(n)]
    + [(d, 3) for n in (1, 2, 3) for d in small_digraphs(n)
       if family_size(d, 3, False) <= 2_000_000]
    + [(d, 2) for d in itertools.islice(
        (d for d in (blown_up_digraph(random.Random(seed), 4) for seed in itertools.count())
         if any(len(c) > 1 for c in twin_classes(d)) and family_size(d, 2, False) <= 4_000_000),
        12)]
)


def test_the_shared_strict_report_is_the_standalone_one():
    # every family with n <= 3 at q=2, those within 2M at q=3, and random
    # 4-vertex twin families
    for d, q in SHARED_FAMILIES:
        shared, alone = strict_reports(d, q)
        assert shared == alone, (sorted(d.arcs), q)


# plain, chain and twin-split plans
PLANNED_FAMILIES = ([(fx.C3, 2), (Digraph(2, [(1, 2), (2, 2)]), 3)]
                    + CHAIN_FAMILIES + TWIN_FAMILIES[:4])


@pytest.mark.parametrize("d,q", PLANNED_FAMILIES,
                         ids=[f"{q}^{d.n}-{d.m}" for d, q in PLANNED_FAMILIES])
def test_the_shared_strict_report_is_the_unreduced_sweep(d, q):
    unreduced = sweep(*unreduced_tensor(d, q, True), q ** d.n)
    shared, _alone = strict_reports(d, q)
    for name, hist in zip(("rank", "periodic_rank", "fixed_points"), unreduced):
        assert shared[name]["histogram"] == {str(v): int(c) for v, c in enumerate(hist) if c}


def test_a_strict_sweep_flags_every_row(monkeypatch):
    # a strict sweep keeps essential rows only, so the flagged half of each
    # histogram is the whole family's: plain, chain and twin-split plans
    halves = []
    real = kernels.family_histograms

    def split(*args):
        hists = real(*args)
        halves.append([np.split(hist, 2) for hist in hists])
        return hists

    monkeypatch.setattr(kernels, "family_histograms", split)
    for d, q in PLANNED_FAMILIES:
        enumerate_stats(d, q, strict=True)
    # one sweep a component, a repeated one swept once
    assert len(halves) == len({(c, q) for d, q in PLANNED_FAMILIES for c in components(d)})
    assert all(np.array_equal(a, b) for hists in halves for a, b in hists)


def test_the_split_shares_its_strict_family_on_random_twin_families():
    for d, q in RANDOM_TWIN_FAMILIES:
        if family_size(d, q, True) == 0:
            continue
        unreduced = sweep(*unreduced_tensor(d, q, True), q ** d.n)
        shared, alone = strict_reports(d, q)
        assert shared == alone, (d.arcs, q)
        assert shared["rank"]["histogram"] == {
            str(v): int(c) for v, c in enumerate(unreduced[0]) if c}, (d.arcs, q)


def refusal(d, q, **limits):
    with pytest.raises(SizeLimitExceeded) as err:
        enumerate_stats(d, q, strict=True, **limits)
    return str(err.value), err.value.projected


@pytest.mark.parametrize("limits", [
    {"max_funcs": family_size(LOOPED_K3, 2, True) - 1},
    {"max_funcs": 0},
    {"max_states": 7},
], ids=["funcs", "no-funcs", "states"])
def test_a_shared_strict_request_is_refused_as_a_standalone_one(limits):
    alone = refusal(LOOPED_K3, 2, **limits)
    enumerate_stats(LOOPED_K3, 2)
    assert True in enumeration._component_memo[LOOPED_K3, 2]
    assert refusal(LOOPED_K3, 2, **limits) == alone


def test_a_shared_strict_request_meets_the_byte_guard(monkeypatch):
    d, q = Digraph(2, [(1, 1), (1, 2), (2, 1)]), 3
    enumerate_stats(d, q)
    monkeypatch.setattr(enumeration, "TABLE_BYTE_CAP", 1000)
    shared = refusal(d, q)
    enumeration._component_memo.clear()
    assert refusal(d, q) == shared


def test_the_memo_holds_each_component_at_each_alphabet(monkeypatch):
    calls = []
    real = kernels.family_histograms

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(kernels, "family_histograms", counted)
    runs = {
        "loose then strict": [(fx.C3, 2, False), (fx.C3, 2, True)],
        "strict then loose": [(fx.C3, 2, True), (fx.C3, 2, False)],
        "another graph": [(fx.C3, 2, False), (fx.K3, 2, True)],
        "another alphabet": [(fx.C3, 3, False), (fx.C3, 2, True)],
        "a later loose sweep": [(fx.C3, 2, False), (fx.K3, 2, False), (fx.C3, 2, True)],
        "a shared component": [(fx.C3, 2, False), (C3_AND_LOOP, 2, True)],
        "a repeated component": [(Digraph(3, [(1, 1), (2, 2), (3, 3)]), 2, False)],
    }
    made = {}
    for name, run in runs.items():
        enumeration._component_memo.clear()
        calls.clear()
        for d, q, strict in run:
            enumerate_stats(d, q, strict=strict)
        made[name] = len(calls)
    # a strict entry is filled by a loose sweep, not the other way round,
    # and a later sweep of another graph keeps it
    assert made == {"loose then strict": 1, "strict then loose": 2, "another graph": 2,
                    "another alphabet": 2, "a later loose sweep": 2, "a shared component": 2,
                    "a repeated component": 1}


C3_AND_LOOP = Digraph(4, fx.C3.arcs | {(4, 4)})


def test_the_memo_keeps_the_components_used_last(monkeypatch):
    # 2,048 entries: a hit moves its component to the end, and a new one
    # evicts the entry used longest ago
    enumerate_stats(fx.L1, 2)
    fillers = [(Digraph(1), q) for q in range(100, 100 + 2047)]
    enumeration._component_memo.update((key, {}) for key in fillers)
    enumerate_stats(fx.L1, 2, strict=True)
    enumerate_stats(fx.C3, 2)
    memo = enumeration._component_memo
    assert len(memo) == 2048 and fillers[0] not in memo and fillers[1] in memo
    assert list(memo)[-2:] == [(fx.L1, 2), (fx.C3, 2)]


def test_chain_groups_are_kept_across_a_loose_then_a_strict_pass():
    # a loose pass over 40 graphs, then a strict pass, twice over: each
    # family's chain groups are computed once, though its guard and its
    # sweep both read them; the guard prices the graph, the loose sweep
    # reads each component's, and the strict pass reads the memo
    graphs = list(itertools.islice(small_digraphs(3), 0, 400, 10))
    for _ in range(2):
        for strict in (False, True):
            for d in graphs:
                enumerate_stats(d, 2, strict=strict)
    families = {(d, strict) for d in graphs for strict in (False, True)}
    families |= {(c, False) for d in graphs for c in components(d)}
    assert enumeration._chain_groups.cache_info().misses == len(families) > 80


@pytest.mark.parametrize("d,q,vertices", [
    (fx.C3_LOOPED, 2, range(3)),
    (CHAIN_FAMILIES[0][0], 3, [1, 2]),  # vertex 1 reads nothing: every table is essential
    # a twin split sweeps each key multiset in one order, so a non-essential
    # key at a later twin may only meet other non-essential keys there: the
    # first twin, vertex 2, meets every key ranked after its own
    (LOOPED_K3, 2, [1]),
], ids=["plain", "chain", "split"])
def test_a_wrong_flag_is_caught(monkeypatch, d, q, vertices):
    # one inessential row flagged essential: the loose family is unchanged,
    # the strict one gains systems
    real = enumeration._chain_rows
    loose = enumerate_stats(d, q).to_json_dict()
    for v in vertices:
        enumeration._component_memo.clear()  # the patched rows are swept, not read

        def one_wrong(*args, v=v):
            rows = list(real(*args))
            codes, sizes, flags = rows[v]
            flags = flags.copy()  # the cached flags stay intact
            flags[np.flatnonzero(~flags)[0]] = True
            rows[v] = codes, sizes, flags
            return rows

        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_chain_rows", one_wrong)
            assert enumerate_stats(d, q).to_json_dict() == loose
            with pytest.raises(IntegrityError, match="family has"):
                enumerate_stats(d, q, strict=True)


# --- one sweep a weak component ---------------------------------------------------

# isolated vertices, looped singletons, and a component repeated in another
# vertex order, at q=2 and q=3
DISCONNECTED_FAMILIES = [
    (Digraph(2), 3),
    (Digraph(3, [(2, 2)]), 3),
    (Digraph(3, [(1, 1), (2, 2), (3, 3)]), 2),
    (Digraph(4, [(1, 3), (4, 2)]), 3),
    (Digraph(4, [(1, 3), (2, 4), (3, 3), (4, 4)]), 2),
    (Digraph(5, [(1, 2), (2, 1), (3, 3), (5, 4), (4, 5)]), 2),
    (Digraph(4, [(2, 1), (3, 3), (4, 4)]), 3),
    (C3_AND_LOOP, 2),
]


def test_a_disconnected_family_is_the_product_of_its_components(monkeypatch):
    # strict, then loose, then strict again, graph after graph: each report
    # is the unreduced sweep's, and a component is swept only when the memo
    # lacks its family, so components repeat within and across graphs
    swept = []
    real = kernels.family_histograms
    monkeypatch.setattr(kernels, "family_histograms",
                        lambda *args: swept.append(args[2]) or real(*args))
    held = 0
    for d, q in DISCONNECTED_FAMILIES:
        parts = components(d)
        assert len(parts) > 1
        for strict in (True, False, True):
            kept = {c for c in parts if strict in enumeration._component_memo.get((c, q), {})}
            held += len(kept)
            swept.clear()
            report = enumerate_stats(d, q, strict=strict)
            assert sorted(swept) == sorted(q ** c.n for c in set(parts) - kept), (d, q, strict)
            unreduced = sweep(*unreduced_tensor(d, q, strict), q ** d.n)
            for stats, hist in zip(report.quantities().values(), unreduced):
                assert stats.histogram == {int(v): int(c) for v, c in enumerate(hist) if c}
            assert report.fixed_point_free_fraction == Fraction(int(unreduced[2][0]),
                                                                family_size(d, q, strict))
    assert held > 2 * len(DISCONNECTED_FAMILIES)


def test_a_wrong_component_weight_or_flag_is_caught(monkeypatch):
    # one component of a disconnected graph swept with an orbit size off by
    # one, or with an inessential row flagged essential: the total check on
    # the product catches either, and a failed check keeps nothing
    d, q = Digraph(4, [(1, 2), (3, 3), (4, 3)]), 2
    _first, second = components(d)
    loose = enumerate_stats(d, q).to_json_dict()
    enumeration._component_memo.clear()
    real_tensor, real_rows = enumeration._sweep_tensor, enumeration._chain_rows

    def heavier(c, q, rows):
        w, counts, mult = real_tensor(c, q, rows)
        if c == second:
            mult = [m.copy() for m in mult]  # the cached orbit sizes stay intact
            mult[0][-1] += 1
        return w, counts, mult

    def flagged(c, q, strict):
        rows = list(real_rows(c, q, strict))
        if c == second:
            codes, sizes, flags = rows[0]
            flags = flags.copy()
            flags[np.flatnonzero(~flags)[0]] = True
            rows[0] = codes, sizes, flags
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_sweep_tensor", heavier)
        with pytest.raises(IntegrityError, match="family has"):
            enumerate_stats(d, q)
        assert enumeration._component_memo == {}
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_chain_rows", flagged)
        assert enumerate_stats(d, q).to_json_dict() == loose
        with pytest.raises(IntegrityError, match="family has"):
            enumerate_stats(d, q, strict=True)
