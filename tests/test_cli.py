import json
import time

import pytest

from fdsrank import canonical, cli, enumeration, kernels, ratlp
from fdsrank import fixtures as fx
from fdsrank.cli import main
from fdsrank.digraph import Digraph, format_digraph
from fdsrank.errors import SizeLimitExceeded
from fdsrank.fds import parse_fds


@pytest.fixture
def star3_file(tmp_path):
    path = tmp_path / "star3.graph"
    path.write_text(format_digraph(fx.STAR3))
    return str(path)


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.graph"
    path.write_text(format_digraph(fx.FIG1))
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestAnalyze:
    def test_star_document(self, capsys, star3_file):
        rc, doc = run_json(capsys, ["analyze", star3_file, "--q", "2", "--strict"])
        assert rc == 0
        assert doc["minrank"]["lower"] == 4 and doc["minrank"]["upper"] == 4
        assert doc["canonical"]["L"] == 4 and doc["canonical"]["U"] == 4
        assert doc["conjunctive_rank"]["value"] == 8
        assert doc["enumeration"]["rank"]["min"] == 5
        assert doc["enumeration"]["function_count"] == 2000

    def test_two_level_fixture_document(self, capsys, fig1_file):
        rc, doc = run_json(capsys, ["analyze", fig1_file, "--q", "2"])
        assert rc == 0
        assert doc["canonical"] == {
            "A_size": 3, "B_size": 4, "L": 4, "Lp": 6, "U": 8,
            "status": "ok", "tight": False,
        }
        assert doc["conjunctive_rank"]["value"] == 7

    def test_empty_graph_document(self, capsys, tmp_path):
        path = tmp_path / "e3.graph"
        path.write_text(format_digraph(fx.E3))
        rc, doc = run_json(capsys, ["analyze", str(path), "--q", "2"])
        assert rc == 0
        assert doc["minrank"]["classification"] == "one"
        assert doc["enumeration"]["rank"]["max"] == 1

    def test_sink_cap_is_per_component(self, capsys, tmp_path):
        # 21 sinks in all, one per component: under the 20-sink cap of each
        path = tmp_path / "arcs21.graph"
        path.write_text(format_digraph(Digraph(42, [(2 * i + 1, 2 * i + 2) for i in range(21)])))
        rc, doc = run_json(capsys, ["analyze", str(path), "--q", "2"])
        assert rc == 0
        assert doc["canonical"]["status"] == "ok"
        assert doc["canonical"]["L"] == 22 and doc["canonical"]["Lp"] == 2 ** 21

    @staticmethod
    def zigzag_file(tmp_path, k):
        # sink i reads sources i and i + 1: one component of k + 1 sources, k sinks
        path = tmp_path / f"zigzag{k}.graph"
        path.write_text(format_digraph(
            Digraph(2 * k + 1, [(i + s, k + 1 + i) for i in range(1, k + 1) for s in (0, 1)])))
        return str(path)

    def test_each_bound_answers_or_is_skipped_on_its_own(self, capsys, tmp_path):
        # 17 sinks: past the product bound's cap of 16, within the chain's 20
        rc, doc = run_json(capsys, ["analyze", self.zigzag_file(tmp_path, 17), "--q", "2"])
        assert rc == 0
        canonical = doc["canonical"]
        assert canonical["L"] == 18 and canonical["U"] == 4181
        assert canonical["Lp"]["status"] == "skipped(size)"
        assert canonical["Lp"]["projected"] == 17
        assert canonical["tight"] is False
        assert doc["minrank"]["lower"] == 18 and doc["minrank"]["upper"] == 4181

    def test_refused_bounds_are_refused_at_once(self, capsys, tmp_path):
        # 31 sources and 30 sinks: the chain, product and conjunctive counts refuse
        start = time.perf_counter()
        rc, doc = run_json(capsys, ["analyze", self.zigzag_file(tmp_path, 30), "--q", "2"])
        assert time.perf_counter() - start < 1
        assert rc == 0
        assert doc["conjunctive_rank"]["status"] == "skipped(size)"
        assert doc["conjunctive_rank"]["projected"] == 31
        canonical = doc["canonical"]
        assert canonical["tight"] == canonical["L"] and canonical["L"]["projected"] == 30
        assert isinstance(canonical["U"], int)

    def test_sections_marked_skipped_not_absent(self, capsys, star3_file):
        rc, doc = run_json(
            capsys, ["analyze", star3_file, "--q", "2", "--max-funcs", "10"]
        )
        assert rc == 0
        assert doc["enumeration"]["status"] == "skipped(size)"
        assert doc["enumeration"]["projected"] > 10

    def test_byte_stable_output(self, capsys, star3_file):
        main(["analyze", star3_file, "--q", "2"])
        first = capsys.readouterr().out
        main(["analyze", star3_file, "--q", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_table_format(self, capsys, star3_file):
        rc = main(["analyze", star3_file, "--q", "2", "--format", "table"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "canonical.U: 4" in out


def count_calls(monkeypatch, fn, modules):
    """Count the calls to ``fn`` through the given modules."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


class TestAnalyzeSharesTheCanonicalGraph:
    def test_one_canonical_graph_and_one_product_bound(self, capsys, monkeypatch, fig1_file):
        # the canonical and minrank sections; conjunctive_rank canonicalizes
        # on its own, and nothing else computes a product bound
        canonicalized = count_calls(monkeypatch, canonical.canonicalize, [cli, canonical])
        bounded = count_calls(monkeypatch, canonical.product_bound, [cli, canonical, enumeration])
        rc, doc = run_json(capsys, ["analyze", fig1_file, "--q", "2"])
        assert rc == 0 and len(canonicalized) == len(bounded) == 1
        bounds = canonical.absolute_minrank_bounds(fx.FIG1)
        assert doc["canonical"]["Lp"] == bounds.lower
        assert (doc["minrank"]["lower"], doc["minrank"]["upper"]) == (bounds.lower, bounds.upper)

    def test_one_conjunctive_rank_per_component(self, capsys, monkeypatch, fig1_file):
        # the conjunctive rank section and the minrank upper bound share one
        # count per weak component of the canonical graph
        counted = count_calls(monkeypatch, canonical._conjunctive_piece_rank, [canonical])
        rc, doc = run_json(capsys, ["analyze", fig1_file, "--q", "2"])
        assert rc == 0
        assert len(counted) == len(canonical._pieces(canonical.canonicalize(fx.FIG1)))
        assert doc["conjunctive_rank"]["value"] == canonical.conjunctive_rank_of_canonical(
            canonical.canonicalize(fx.FIG1))

    def test_a_refused_product_bound_falls_back_to_the_chain_bound(
            self, capsys, monkeypatch, fig1_file):
        def refused(c):
            raise SizeLimitExceeded("product bound refused", projected=99)

        monkeypatch.setattr(cli, "product_bound", refused)
        rc, doc = run_json(capsys, ["analyze", fig1_file, "--q", "2"])
        assert rc == 0
        assert doc["canonical"]["Lp"]["status"] == "skipped(size)"
        assert doc["minrank"]["lower"] == doc["canonical"]["L"]
        assert doc["minrank"]["status"] == "ok"


class TestExitCodes:
    def test_parse_error_is_two(self, capsys, tmp_path):
        path = tmp_path / "broken.graph"
        path.write_text("n 2\n1 2\n1 2\n")
        rc = main(["analyze", str(path), "--q", "2"])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_is_two(self, capsys):
        assert main(["analyze", "/nonexistent/xyz.graph", "--q", "2"]) == 2

    def test_guard_refusal_is_three(self, capsys, star3_file):
        rc = main(["enum", star3_file, "--q", "2", "--max-funcs", "10"])
        assert rc == 3
        assert "refused by guard" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [12, 16])
    def test_a_huge_family_is_refused_in_one_line(self, capsys, tmp_path, n):
        # 2^(2^(n-1)) tables a vertex: the exact family size has thousands of
        # digits, more than Python prints, so the refusal gives its log2
        path = tmp_path / "complete.graph"
        path.write_text(format_digraph(fx.complete(n)))
        for strict in ([], ["--strict"]):
            assert main(["enum", str(path), "--q", "2"] + strict) == 3
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: refused by guard: family has 2^{n * 2 ** (n - 1)}.0 "
                           f"systems, over the guard 100000000"]

    @pytest.mark.parametrize("n", [12, 16])
    def test_analyze_reports_a_huge_family_as_skipped(self, capsys, tmp_path, n):
        path = tmp_path / "complete.graph"
        path.write_text(format_digraph(fx.complete(n)))
        rc = main(["analyze", str(path), "--q", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert rc in (0, 3)
        assert doc["enumeration"]["status"] == "skipped(size)"
        assert doc["enumeration"]["projected"] == f"2^{n * 2 ** (n - 1)}.0"

    def test_bad_q_is_two(self, capsys, star3_file):
        assert main(["enum", star3_file, "--q", "1"]) == 2

    def test_failed_integrity_check_is_one(self, capsys, monkeypatch, star3_file):
        real = kernels.family_histograms

        def drop_one(*args):
            rank, periodic, fixed = real(*args)
            return rank - (rank == rank.max()), periodic, fixed

        monkeypatch.setattr(kernels, "family_histograms", drop_one)
        assert main(["enum", star3_file, "--q", "2"]) == 1
        assert "internal check failed" in capsys.readouterr().err

    def test_uncertified_entropy_program_is_skipped(self, capsys, monkeypatch, tmp_path):
        # HiGHS finds no optimum: the program is refused with its size, and
        # the bounds report goes on without the entropy bound
        from scipy import optimize

        monkeypatch.setattr(optimize, "linprog", lambda *a, **k: optimize.OptimizeResult(
            status=4, success=False, message="patched"))
        # C5sym is the one fixture whose integer ends (2 and 3) leave a program
        path = tmp_path / "c5.graph"
        path.write_text(format_digraph(fx.C5_SYM))
        rc, doc = run_json(capsys, ["bounds", str(path), "--q", "2"])
        assert rc == 0
        # C5sym's entropy dual: 21 rows x 85 columns
        assert doc["entropy_detail"] == {
            "status": "skipped(size)",
            "projected": 1785,
            "reason": "linear program of 21 rows x 85 columns refused: "
                      "HiGHS reported no optimum (status 4)",
        }
        assert doc["skipped"]["entropy"] == "size(1785)"
        assert doc["entropy_exponent"] is None


class TestSharedParser:
    def test_consecutive_calls_do_not_leak_options(self, capsys, monkeypatch, tmp_path,
                                                   star3_file):
        # one parser serves every call in the process; each call starts from
        # the defaults again
        cli.build_parser.cache_clear()
        calls = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
        assert run_json(capsys, ["bounds", star3_file, "--strict"])[1]["strict"] is True
        assert run_json(capsys, ["bounds", star3_file])[1]["strict"] is False
        out = tmp_path / "w.fds"
        assert main(["witness", "maxper", star3_file, "-o", str(out)]) == 0
        assert capsys.readouterr().out == "" and out.read_text()
        assert main(["witness", "maxper", star3_file]) == 0
        assert capsys.readouterr().out == out.read_text()
        assert main(["bounds", star3_file, "--q", "1"]) == 2
        assert main(["bounds", star3_file]) == 0
        # six calls, one build
        assert len(calls) == 6
        assert real.cache_info().misses == 1


class TestEnum:
    def test_json(self, capsys, star3_file):
        rc, doc = run_json(capsys, ["enum", star3_file, "--q", "2", "--strict"])
        assert rc == 0
        assert doc["function_count"] == 2000
        assert doc["fixed_points"]["average"] == "1"

    def test_table(self, capsys, star3_file):
        rc = main(["enum", star3_file, "--q", "2", "--strict", "--format", "table"])
        out = capsys.readouterr().out
        assert rc == 0 and "functions: 2000" in out


class TestCanonical:
    def test_provenance_comments(self, capsys, star3_file):
        rc = main(["canonical", star3_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("# provenance") == 7
        assert "n 7" in out


class TestBounds:
    def test_triangle(self, capsys, tmp_path):
        path = tmp_path / "k3.graph"
        path.write_text(format_digraph(fx.K3))
        rc, doc = run_json(capsys, ["bounds", str(path), "--q", "2"])
        assert rc == 0
        assert doc["best_lower"] == doc["best_upper"] == 4
        assert doc["consistent"]

    def test_one_entropy_solve_for_loose_and_strict(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "c5.graph"
        path.write_text(format_digraph(fx.C5_SYM))
        calls = []
        real = ratlp.solve_exact
        monkeypatch.setattr(ratlp, "solve_exact", lambda *a, **k: calls.append(a) or real(*a, **k))
        for strict in ([], ["--strict"]):
            assert main(["bounds", str(path), "--q", "2", *strict]) == 0
            assert json.loads(capsys.readouterr().out)["entropy_detail"]["value"] == "5/2"
        assert len(calls) == 1

    @pytest.mark.parametrize("d, value", [(fx.directed_cycle(10), "1"), (fx.complete(11), "10")],
                             ids=["C10", "K11"])
    def test_cores_past_the_entropy_cap_are_answered_at_once(self, capsys, monkeypatch,
                                                             tmp_path, d, value):
        # the integer ends meet, so no program is solved
        monkeypatch.setattr(ratlp, "solve_exact", None)
        path = tmp_path / "big.graph"
        path.write_text(format_digraph(d))
        start = time.perf_counter()
        rc, doc = run_json(capsys, ["bounds", str(path), "--q", "2"])
        assert time.perf_counter() - start < 1
        assert rc == 0
        assert doc["entropy_exponent"] == value
        assert doc["entropy_detail"]["method"] == "exact-dual"

    def test_cores_past_the_entropy_cap_are_refused_with_a_reason(self, capsys, tmp_path):
        path = tmp_path / "s11.graph"
        path.write_text(format_digraph(fx.symmetric_cycle(11)))
        rc, doc = run_json(capsys, ["bounds", str(path), "--q", "2"])
        assert rc == 0
        assert doc["skipped"]["entropy"] == "size(11)"
        assert doc["entropy_detail"] == {
            "status": "skipped(size)",
            "projected": 11,
            "reason": "entropy program capped at 9 core vertices, "
                      "and its integer ends do not meet",
        }
        assert doc["entropy_exponent"] is None


class TestWitness:
    def test_star(self, capsys):
        rc = main(["witness", "star", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        f = parse_fds(out)
        assert f.n == 4 and f.q == 2

    def test_conjunctive_to_file(self, tmp_path, star3_file):
        out = tmp_path / "w.fds"
        rc = main(["witness", "conjunctive", star3_file, "-o", str(out)])
        assert rc == 0
        f = parse_fds(out.read_text())
        from fdsrank.fds import interaction_graph

        assert interaction_graph(f) == fx.STAR3

    def test_maxper_with_q(self, capsys, star3_file):
        rc = main(["witness", "maxper", star3_file, "--q", "3"])
        out = capsys.readouterr().out
        f = parse_fds(out)
        from fdsrank.fds import periodic_rank

        assert periodic_rank(f) == 27

    def test_packing_plus_one_explicit_packing(self, capsys, tmp_path):
        path = tmp_path / "c3o.graph"
        path.write_text(format_digraph(fx.C3_LOOPED))
        rc = main(["witness", "packing-plus-one", str(path), "--packing", "1;2;3"])
        out = capsys.readouterr().out
        f = parse_fds(out)
        from fdsrank.fds import fixed_points

        assert len(fixed_points(f)) >= 4

    def test_modular(self, capsys):
        rc = main(["witness", "modular", "3", "2"])
        f = parse_fds(capsys.readouterr().out)
        from fdsrank.fds import fixed_points

        assert len(fixed_points(f)) == 4

    def test_unknown_witness(self, capsys, star3_file):
        assert main(["witness", "bogus", star3_file]) == 2

    def test_canonical_upper_without_sinks_is_two(self, capsys, tmp_path):
        path = tmp_path / "e3.graph"
        path.write_text(format_digraph(fx.E3))
        assert main(["witness", "canonical-upper", str(path)]) == 2
        assert "no sinks" in capsys.readouterr().err

    def test_modular_on_one_vertex_is_two(self, capsys):
        assert main(["witness", "modular", "1", "2"]) == 2
        assert "at least 2 vertices" in capsys.readouterr().err

    def test_star_without_number_is_two(self, capsys):
        assert main(["witness", "star"]) == 2
        assert "needs 1 integer" in capsys.readouterr().err

    def test_modular_with_non_integer_is_two(self, capsys):
        assert main(["witness", "modular", "3", "x"]) == 2
        assert "needs 2 integer" in capsys.readouterr().err

    def test_modular_over_the_table_cap_is_three(self, capsys):
        # 30^29 digit rows: refused before numpy is asked for them
        assert main(["witness", "modular", "30", "30"]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "digit matrix" in err

    def test_class_two_over_the_table_cap_is_three(self, capsys, tmp_path):
        # 10^10 rows of 2 digits would be 149 GiB of int64
        path = tmp_path / "k3.graph"
        path.write_text(format_digraph(fx.K3))
        assert main(["witness", "class-two", str(path), "--q", "100000"]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "digit matrix" in err


class TestFixture:
    def test_known(self, capsys):
        rc = main(["fixture", "C3"])
        assert rc == 0
        assert "n 3" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert main(["fixture", "NOPE"]) == 2
