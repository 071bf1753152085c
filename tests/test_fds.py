import random

import numpy as np
import pytest

import oracles
from fdsrank import fixtures as fx
from fdsrank.digraph import Digraph
from fdsrank.errors import (
    GraphFormatError,
    ShapeMismatch,
    SizeLimitExceeded,
    ValueOutOfRange,
)
from fdsrank.fds import (
    TABLE_BYTE_CAP,
    digits,
    fixed_points,
    format_fds,
    index_to_state,
    interaction_graph,
    make_fds,
    map_array,
    nilpotency_class,
    parse_fds,
    periodic_rank,
    rank,
)


def random_fds(rng, n_max=3, q_choices=(2, 3)):
    n = rng.randint(1, n_max)
    q = rng.choice(q_choices)
    inputs = []
    tables = []
    for _ in range(n):
        ins = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        inputs.append(ins)
        tables.append([rng.randrange(q) for _ in range(q ** len(ins))])
    return make_fds(n, q, inputs, tables)


class TestMakeFds:
    def test_identity(self):
        f = make_fds(1, 2, [[1]], [[0, 1]])
        assert f.tables[0].tolist() == [0, 1]

    def test_value_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            make_fds(1, 2, [[1]], [[0, 2]])

    def test_bad_declared_input(self):
        with pytest.raises(ShapeMismatch):
            make_fds(2, 2, [[5], []], [[0, 1], [0]])

    def test_wrong_table_size(self):
        with pytest.raises(ShapeMismatch):
            make_fds(1, 2, [[1]], [[0, 1, 1]])

    def test_repeated_input(self):
        with pytest.raises(ShapeMismatch):
            make_fds(2, 2, [[1, 1], []], [[0, 1, 1, 0], [0]])

    def test_alphabet_too_small(self):
        with pytest.raises(ValueOutOfRange):
            make_fds(1, 1, [[]], [[0]])


class TestStateSerialization:
    def test_little_endian(self):
        assert index_to_state(5, 3, 2) == (1, 0, 1)

    def test_roundtrip(self):
        for idx in range(27):
            x = index_to_state(idx, 3, 3)
            assert sum(c * 3 ** v for v, c in enumerate(x)) == idx

    def test_digit_rows_are_the_states(self):
        for q, k in ((2, 1), (2, 4), (3, 3), (4, 2)):
            x = digits(q, k)
            assert x.shape == (q ** k, k) and x.dtype == np.int64
            assert [tuple(row) for row in x] == [index_to_state(i, k, q) for i in range(q ** k)]
        assert digits(3, 0).shape == (1, 0)

    def test_digit_matrix_is_priced_before_it_is_made(self):
        # 10^10 rows: refused with the byte count, 8 a cell, nothing allocated
        with pytest.raises(SizeLimitExceeded) as err:
            digits(10 ** 5, 2)
        assert err.value.projected == 8 * 2 * 10 ** 10 > TABLE_BYTE_CAP
        assert digits(2, 16).shape == (2 ** 16, 16)


class TestInteractionGraph:
    def test_swap(self):
        f = make_fds(2, 2, [[2], [1]], [[0, 1], [0, 1]])
        assert interaction_graph(f) == Digraph(2, [(2, 1), (1, 2)])

    def test_constant_network(self):
        f = make_fds(2, 2, [[1], [2]], [[0, 0], [1, 1]])
        assert interaction_graph(f) == Digraph(2, [])

    def test_declared_but_inessential_input_dropped(self):
        f = make_fds(2, 2, [[1, 2], []], [[0, 0, 1, 1], [0]])
        assert interaction_graph(f) == Digraph(2, [(2, 1)])

    def test_matches_brute_oracle(self):
        rng = random.Random(3)
        for _ in range(40):
            f = random_fds(rng)
            assert set(interaction_graph(f).arcs) == oracles.brute_interaction_arcs(f)

    def test_subgraph_of_declared(self):
        rng = random.Random(4)
        for _ in range(30):
            f = random_fds(rng)
            assert interaction_graph(f).arcs <= f.declared_graph().arcs


class TestWholeSpaceScans:
    def test_rank_of_bijection(self):
        from fdsrank.constructions import maxper_witness

        assert rank(maxper_witness(fx.C3, 2)) == 8

    def test_fixed_points_of_shift(self):
        from fdsrank.constructions import maxper_witness

        assert fixed_points(maxper_witness(fx.C3, 2)) == [(0, 0, 0), (1, 1, 1)]

    def test_no_fixed_points_for_negation(self):
        f = make_fds(1, 2, [[1]], [[1, 0]])
        assert fixed_points(f) == []

    def test_quantities_match_oracles(self):
        rng = random.Random(9)
        for _ in range(50):
            f = random_fds(rng)
            assert rank(f) == oracles.brute_rank(f)
            assert periodic_rank(f) == oracles.brute_periodic_rank(f)
            # implementation orders by serialized index, oracle by tuple
            assert sorted(fixed_points(f)) == oracles.brute_fixed_points(f)

    def test_ordering_invariant(self):
        rng = random.Random(10)
        for _ in range(40):
            f = random_fds(rng)
            assert len(fixed_points(f)) <= periodic_rank(f) <= rank(f)

    def test_guard(self):
        f = make_fds(2, 2, [[], []], [[0], [0]])
        with pytest.raises(SizeLimitExceeded):
            rank(f, max_states=3)


class TestNilpotency:
    def test_constant_class_one(self):
        f = make_fds(2, 2, [[], []], [[0], [1]])
        assert nilpotency_class(f) == (True, 1)

    def test_class_two_witness(self):
        from fdsrank.constructions import nilpotent_class_two

        assert nilpotency_class(nilpotent_class_two(fx.C3, 3)) == (True, 2)

    def test_bijection_not_nilpotent(self):
        from fdsrank.constructions import maxper_witness

        assert nilpotency_class(maxper_witness(fx.C3, 2)) == (False, None)

    def test_acyclic_class_at_most_n(self):
        rng = random.Random(12)
        checked = 0
        for _ in range(80):
            f = random_fds(rng)
            from fdsrank.digraph import structure_stats

            if not structure_stats(interaction_graph(f)).acyclic:
                continue
            nil, cls = nilpotency_class(f)
            assert nil and cls <= f.n
            checked += 1
        assert checked > 10


class TestTextFormat:
    def test_roundtrip(self):
        rng = random.Random(13)
        for _ in range(20):
            f = random_fds(rng)
            g = parse_fds(format_fds(f))
            assert g.n == f.n and g.q == f.q
            assert g.inputs == f.inputs
            assert all(np.array_equal(a, b) for a, b in zip(g.tables, f.tables))

    def test_header_error(self):
        with pytest.raises(GraphFormatError):
            parse_fds("fds n 1\nv 1 inputs table 0\n")

    def test_missing_vertex(self):
        with pytest.raises(GraphFormatError):
            parse_fds("fds n 2 q 2\nv 1 inputs table 0\n")

    def test_duplicate_vertex(self):
        with pytest.raises(GraphFormatError):
            parse_fds("fds n 1 q 2\nv 1 inputs table 0\nv 1 inputs table 1\n")


def test_fixed_points_are_the_one_step_returns():
    rng = random.Random(15)
    for _ in range(20):
        f = random_fds(rng)
        fixes = set(fixed_points(f))
        for x, y in oracles.eval_map(f).items():
            assert (y == x) == (x in fixes)


def test_map_array_matches_dict_oracle():
    rng = random.Random(14)
    for _ in range(20):
        f = random_fds(rng)
        m = map_array(f)
        dict_map = oracles.eval_map(f)
        for x_tuple, y_tuple in dict_map.items():
            xi = sum(c * f.q ** v for v, c in enumerate(x_tuple))
            assert index_to_state(int(m[xi]), f.n, f.q) == y_tuple
