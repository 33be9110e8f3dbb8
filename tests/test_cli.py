"""End-to-end tests of the command-line interface (in-process)."""

import decimal
import json
import time

import pytest

from sfpa.cli import main
from helpers import FIG1_TEXT, HUGE_EXPONENTS, fig2, long_digits_text
from sfpa import oracle_unreliability, parse_ft, serialize_ft


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.dft"
    path.write_text(FIG1_TEXT)
    return path


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.dft"
    path.write_text(serialize_ft(fig2()))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_default_algorithm(self, capsys, fig1_file):
        code, out, _ = run(capsys, "solve", fig1_file)
        assert code == 0
        report = json.loads(out)
        assert report["algo"] == "sfpa2"
        assert report["unreliability"] == pytest.approx(0.412, abs=1e-12)
        assert report["substitutions"] == 1

    def test_plain_algorithm(self, capsys, fig2_file):
        code, out, _ = run(capsys, "solve", fig2_file, "--algo", "sfpa")
        report = json.loads(out)
        assert code == 0
        assert report["unreliability"] == pytest.approx(0.3125, abs=1e-12)

    def test_exact_mode_reports_a_fraction(self, capsys, fig2_file):
        code, out, _ = run(capsys, "solve", fig2_file, "--exact")
        report = json.loads(out)
        assert code == 0
        assert report["exact"] is True
        assert report["unreliability"] == "5/16"

    @pytest.mark.parametrize("prec", [None, 5])
    @pytest.mark.parametrize("shared,algo", [(True, "sfpa2"), (True, "sfpa"),
                                             (False, "treelike")])
    def test_exact_mode_keeps_every_digit(self, capsys, tmp_path, prec,
                                          shared, algo):
        # the exact answer has hundreds of digits: a rounding anywhere
        # between reading and the JSON would change the ratio printed
        text = long_digits_text(shared)
        path = tmp_path / "long.dft"
        path.write_text(text)
        expected = oracle_unreliability(parse_ft(text, exact=True).with_exact_probs())
        with decimal.localcontext() as ctx:
            if prec:
                ctx.prec = prec
            code, out, _ = run(capsys, "solve", "--exact", "--algo", algo, path)
        assert code == 0
        report = json.loads(out)
        ratio = "%d/%d" % (expected.numerator, expected.denominator)
        assert report["raw_unreliability"] == report["unreliability"] == ratio

    @pytest.mark.parametrize("algo", ["sfpa2", "sfpa", "treelike"])
    def test_exact_answer_past_the_int_digit_limit(self, capsys, tmp_path,
                                                   algo):
        # 1e-5000 = 1/10**5000, whose denominator has more digits than
        # str(int) writes by default
        path = tmp_path / "tiny.dft"
        path.write_text('toplevel "top";\n"top" and "a" "b" "c" "d" "e";\n'
                        + "".join('"%s" prob=1e-1000;\n' % b for b in "abcde"))
        code, out, err = run(capsys, "solve", "--exact", "--algo", algo, path)
        assert (code, err) == (0, "")
        report = json.loads(out)
        ratio = "1/1" + "0" * 5000
        assert report["raw_unreliability"] == report["unreliability"] == ratio

    def test_treelike_rejects_shared_node(self, capsys, fig1_file):
        code, _, err = run(capsys, "solve", fig1_file, "--algo", "treelike")
        assert code == 2
        assert "nofuel" in err

    @pytest.mark.parametrize("algo,name", [("sfpa", "solve_sfpa"),
                                           ("sfpa2", "solve_sfpa2"),
                                           ("treelike", "solve_treelike")])
    def test_solver_is_looked_up_at_call_time(self, capsys, monkeypatch,
                                              tmp_path, algo, name):
        # replacing a solver in sfpa.cli (as a tracing wrapper does) must
        # reach every command that runs it
        import sfpa.cli

        calls = []
        original = getattr(sfpa.cli, name)
        monkeypatch.setattr(sfpa.cli, name,
                            lambda *a: calls.append(a) or original(*a))
        tree = tmp_path / "tree.dft"
        tree.write_text('toplevel "g";\n"g" or "a" "b";\n"a" prob=0.5;\n'
                        '"b" prob=0.5;\n')
        assert run(capsys, "solve", "--algo", algo, tree)[0] == 0
        assert len(calls) == 1

    def test_no_option_carries_over_to_the_next_call(self, capsys, fig2_file):
        # main builds its parser once and parses every call with it
        exact = json.loads(run(capsys, "solve", "--exact", fig2_file)[1])
        plain = json.loads(run(capsys, "solve", fig2_file)[1])
        assert exact["exact"] is True
        assert plain["exact"] is False
        assert plain["unreliability"] == pytest.approx(0.3125, abs=1e-12)

    def test_parse_and_build_are_called_where_a_tracer_patches_them(
            self, capsys, monkeypatch, fig2_file):
        # the per-layer trace wraps sfpa.cli.parse_ft and sfpa.galileo.FaultTree;
        # a call that bypassed either would leave its span empty
        import sfpa.cli
        import sfpa.galileo

        calls = []
        parse, build = sfpa.cli.parse_ft, sfpa.galileo.FaultTree

        def counted_parse(*args, **kwargs):
            calls.append("parse")
            return parse(*args, **kwargs)

        def counted_build(*args, **kwargs):
            calls.append("build")
            return build(*args, **kwargs)

        monkeypatch.setattr(sfpa.cli, "parse_ft", counted_parse)
        monkeypatch.setattr(sfpa.galileo, "FaultTree", counted_build)
        code, out, _ = run(capsys, "solve", fig2_file)
        assert code == 0
        assert json.loads(out)["unreliability"] == pytest.approx(0.3125, abs=1e-12)
        assert sorted(calls) == ["build", "parse"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", tmp_path / "nope.dft")
        assert code == 1
        assert "error" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.dft"
        bad.write_text('toplevel "b";\n"b" prob=2;\n')
        code, _, err = run(capsys, "solve", bad)
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("literal", HUGE_EXPONENTS)
    def test_huge_exponent_is_refused_at_once(self, capsys, tmp_path, literal):
        bad = tmp_path / "bad.dft"
        bad.write_text('toplevel "b";\n"b" prob=%s;\n' % literal)
        start = time.perf_counter()
        code, _, err = run(capsys, "solve", "--exact", bad)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "bad probability" in err


class TestCheck:
    def test_single_file_passes(self, capsys, fig1_file):
        code, out, _ = run(capsys, "check", fig1_file)
        assert code == 0
        assert "PASS" in out

    def test_directory(self, capsys, fig1_file, fig2_file):
        code, out, _ = run(capsys, "check", fig1_file.parent)
        assert code == 0
        assert out.count("PASS") == 2

    def test_corrupted_file_reports_error(self, capsys, tmp_path):
        (tmp_path / "bad.dft").write_text("not a fault tree\n")
        code, out, _ = run(capsys, "check", tmp_path)
        assert code == 1
        assert "ERROR" in out

    def test_cap_causes_skip(self, capsys, fig1_file):
        code, out, _ = run(capsys, "check", fig1_file, "--cap", "2")
        assert code == 0
        assert "SKIP" in out

    def test_empty_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", tmp_path)
        assert code == 1
        assert "no .dft files" in err


class TestGen:
    def test_stdout_is_parseable_and_deterministic(self, capsys):
        code, out1, _ = run(capsys, "gen", "--seed", "7", "--bes", "5",
                            "--gates", "4", "--multiparent", "2")
        assert code == 0
        code, out2, _ = run(capsys, "gen", "--seed", "7", "--bes", "5",
                            "--gates", "4", "--multiparent", "2")
        assert out1 == out2
        from sfpa import parse_ft

        t = parse_ft(out1)
        assert len(t.basic_events()) == 5
        assert len(t.multiparent_nodes()) == 2

    def test_corpus_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        code, out, _ = run(capsys, "gen", "--seed", "1", "--count", "3",
                           "--out", out_dir)
        assert code == 0
        assert len(list(out_dir.glob("*.dft"))) == 3
        assert (out_dir / "manifest.csv").exists()

    def test_infeasible_config(self, capsys):
        code, _, err = run(capsys, "gen", "--bes", "0")
        assert code == 2
        assert "basic event" in err


class TestBench:
    def test_bench_over_generated_corpus(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        run(capsys, "gen", "--seed", "3", "--count", "2", "--multiparent", "2",
            "--out", out_dir)
        csv_out = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", out_dir / "manifest.csv",
                         "--algos", "sfpa,sfpa2,oracle", "--repeats", "2",
                         "--out", csv_out)
        assert code == 0
        import csv as csv_mod

        rows = list(csv_mod.DictReader(csv_out.open()))
        assert len(rows) == 6
        by_file = {}
        for row in rows:
            by_file.setdefault(row["file"], {})[row["algo"]] = float(row["value"])
        for values in by_file.values():
            assert values["sfpa"] == pytest.approx(values["oracle"], abs=1e-9)
            assert values["sfpa2"] == pytest.approx(values["oracle"], abs=1e-9)


class TestMcs:
    def test_shared_event_is_the_answer(self, capsys, fig1_file):
        code, out, _ = run(capsys, "mcs", fig1_file)
        assert code == 0
        assert out.strip() == "nofuel"

    def test_cap(self, capsys, tmp_path):
        names = ['"b%02d"' % i for i in range(17)]
        text = 'toplevel "top";\n"top" or %s;\n' % " ".join(names)
        text += "".join("%s prob=0.5;\n" % n for n in names)
        path = tmp_path / "big.dft"
        path.write_text(text)
        code, _, err = run(capsys, "mcs", path)
        assert code == 2
        assert "17" in err


class TestDom:
    def test_fig2_map(self, capsys, fig2_file):
        code, out, _ = run(capsys, "dom", fig2_file)
        assert code == 0
        lines = dict(line.split(" -> ") for line in out.strip().splitlines())
        assert lines["b"] == "f"
        assert lines["f"] == "h"
