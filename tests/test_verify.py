import dataclasses

import pytest

from fdsrank import fixtures as fx
from fdsrank import verify
from fdsrank.cli import main
from fdsrank.constructions import conjunctive
from fdsrank.enumeration import enumerate_stats
from fdsrank.fds import make_fds
from fdsrank.invariants import transversal_number
from fdsrank.verify import VerifySuite


def test_quick_battery_all_green():
    results = VerifySuite(quick=True).run()
    assert len(results) == 17
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_check_lines_carry_expected_and_actual():
    suite = VerifySuite(quick=True)
    name, ok, expected, actual = suite.check_figure_values()
    assert ok and expected == str((8, 7)) == actual


def test_cli_verify_quick_exits_zero(capsys):
    assert main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 17
    assert "17/17 checks passed" in out


def test_cli_verify_reports_broken_build(capsys, monkeypatch):
    # simulate a corrupted build: one check coming back wrong
    def broken(self):
        return "independent-set bound", False, "(8, 7)", "(7, 7)"

    monkeypatch.setattr(VerifySuite, "check_figure_values", broken)
    rc = main(["verify", "--quick"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.out
    assert "failed: independent-set bound" in captured.err


# --- each lemma check fails when the code it guards is broken on purpose ----

def _drop_last_table_entry(real):
    return lambda f: real(f).rstrip("\n").rsplit(" ", 1)[0] + "\n"


def _constant_last_table(real):
    # the last vertex ignores its inputs: the extension loses that vertex's arcs
    def extend(f):
        g = real(f)
        return make_fds(g.n, g.q, g.inputs, g.tables[:-1] + (g.tables[-1] * 0,))
    return extend


def _strict_upper_one_short(real):
    # the strict bracket's upper end one below the enumerated maximum
    def report(d, q, strict=False):
        rep = real(d, q, strict=strict)
        if strict:
            rep.best_upper = enumerate_stats(d, q, strict=True).fixed_points.maximum - 1
        return rep
    return report


@pytest.mark.parametrize("check, name, broken, symptom", [
    pytest.param("check_alphabet_monotonicity", "minrank_exact",
                 lambda real: lambda d, q: real(d, q) + 1, "search", id="minrank-off-by-one"),
    pytest.param("check_alphabet_monotonicity", "extend_alphabet", _constant_last_table,
                 "extension", id="extension-drops-arcs"),
    pytest.param("check_entropy_bracket", "fractional_cycle_packing",
                 lambda real: lambda d: transversal_number(d) + 1, "violations",
                 id="packing-above-transversal"),
    pytest.param("check_entropy_bracket", "_integer_pin", lambda real: transversal_number,
                 "wrong pins [(", id="pin-ignores-the-lower-end"),
    pytest.param("check_witness_conformance", "format_fds", _drop_last_table_entry,
                 "text round trip", id="text-drops-an-entry"),
    pytest.param("check_witness_conformance", "packing_plus_one_witness",
                 lambda real: lambda d, packing: conjunctive(d),
                 "packing-plus-one fixed points", id="packing-witness-is-conjunctive"),
    pytest.param("check_bounds_sandwich", "fix_bounds_report", _strict_upper_one_short,
                 "'strict'", id="strict-upper-below-the-maximum"),
])
def test_lemma_checks_catch_a_broken_build(monkeypatch, check, name, broken, symptom):
    monkeypatch.setattr(verify, name, broken(getattr(verify, name)))
    _, ok, _, actual = getattr(VerifySuite(quick=True), check)()
    assert not ok and symptom in actual


def test_alphabet_check_catches_a_rise_at_q3(monkeypatch):
    suite = VerifySuite(quick=True)
    real = suite.stats

    def stats(d, q, strict):
        report = real(d, q, strict)
        if q == 3:
            rank = dataclasses.replace(report.rank, minimum=q ** d.n)
            report = dataclasses.replace(report, rank=rank)
        return report

    monkeypatch.setattr(suite, "stats", stats)
    _, ok, _, actual = suite.check_alphabet_monotonicity()
    assert not ok and not actual.startswith("0 rises")


def test_nilpotency_check_catches_a_false_verdict(monkeypatch):
    # the directed 3-cycle's strict systems are bijections: a verdict there is wrong
    suite = VerifySuite(quick=True)
    monkeypatch.setattr(suite, "sweep_graphs", lambda: [fx.C3])
    monkeypatch.setattr(verify, "nilpotent_sufficiency", lambda d: "loop")
    _, ok, _, actual = suite.check_nilpotent_sufficiency()
    assert not ok and actual.startswith("1 counterexamples")
