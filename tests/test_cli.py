import dataclasses
import json
import math
import pathlib
import subprocess
import sys

import pytest

from ecometab import stats
from ecometab.cli import (
    FIGURE_IDS,
    Report,
    ReportConfig,
    emit_figure_data,
    main,
    render_report_text,
    render_table,
    report_to_json,
    run_report,
)
from ecometab.errors import DomainError, EcometabError
from ecometab.ledger import Series
from ecometab.report import load_ledger
from ecometab.stats import RegressionFit, ols_fit
from helpers import (
    ledger_of,
    lira_text,
    power_law_ledger,
    random_ledger,
    record,
    write_ledger_file,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ecometab", *args], capture_output=True, text=True
    )


@pytest.fixture
def ledger_file(tmp_path):
    return write_ledger_file(tmp_path / "ledger.csv", random_ledger(seed=21))


@pytest.fixture
def report(ledger_file):
    return run_report(ReportConfig(input_path=ledger_file))


class TestRunReport:
    def test_power_law_ledger_hits_the_expected_exponent(self, tmp_path):
        path = write_ledger_file(tmp_path / "power.csv", power_law_ledger())
        report = run_report(ReportConfig(input_path=path))
        assert report.allometric_table.exponent == pytest.approx(1.61, abs=1e-9)
        assert report.allometric_table.classification.value == "positive_allometric"

    def test_constant_cost_items(self, tmp_path):
        records = [
            record(1997 + i, revenue=100.0 + 3.0 * i, personnel=40.0,
                   total_cost=70.0, other_costs=30.0)
            for i in range(19)
        ]
        path = write_ledger_file(tmp_path / "const.csv", ledger_of(records))
        report = run_report(ReportConfig(input_path=path))
        for item in ("cost_of_personnel", "total_cost"):
            assert report.growth_table[item].r_per_year == 0.0
            assert report.growth_table[item].cumulative == 0.0
            assert report.trend_table[item].slope == 0.0
            assert report.trend_table[item].degenerate
        assert report.crossings == ()

    def test_failures_name_the_analysis(self, tmp_path):
        records = [record(1997 + i, revenue=100.0 + i, personnel=40.0, total_cost=70.0)
                   for i in range(19)]  # other_costs never reported
        path = write_ledger_file(tmp_path / "noother.csv", ledger_of(records))
        with pytest.raises(EcometabError, match=r"metabolism\[other_costs\]"):
            run_report(ReportConfig(input_path=path))

    def test_default_window_trims_wider_data(self, tmp_path):
        path = write_ledger_file(
            tmp_path / "wide.csv", random_ledger(seed=13, n_years=21, first_year=1996)
        )
        report = run_report(ReportConfig(input_path=path))
        years = [p.year for p in report.metabolism_series]
        assert years[0] == 1997 and years[-1] == 2015

    def test_config_validation(self, tmp_path):
        with pytest.raises(DomainError):
            ReportConfig(input_path=tmp_path / "x.csv", period=(2015, 1997))
        with pytest.raises(DomainError):
            ReportConfig(input_path=tmp_path / "x.csv", alpha=1.0)

    @pytest.mark.parametrize("delimiter", ["", ";;", "\t\t"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        with pytest.raises(DomainError, match="delimiter must be one character"):
            ReportConfig(input_path=tmp_path / "x.csv", delimiter=delimiter)

    class _PathLike:
        def __init__(self, path):
            self.path = path

        def __fspath__(self):
            return self.path

    @pytest.mark.parametrize("kind", [str, pathlib.Path, _PathLike])
    @pytest.mark.parametrize("path, organization", [
        ("ledger.csv", "ledger"),
        ("ledger.", "ledger."),
        (".hidden", ".hidden"),
        ("a.b.csv", "a.b"),
        ("sub/x.csv", "x"),
    ])
    def test_organization_is_the_file_stem(self, tmp_path, monkeypatch, kind, path, organization):
        (tmp_path / "sub").mkdir()
        write_ledger_file(tmp_path / path, random_ledger(seed=21))
        monkeypatch.chdir(tmp_path)
        assert load_ledger(ReportConfig(input_path=kind(path))).organization == organization


class TestRenderTable:
    def fit_with_p(self, p_slope):
        years = tuple(range(2000, 2010))
        fit = ols_fit(Series(years, tuple(float(y) for y in years)),
                      Series(years, tuple(2.0 * y + ((-1) ** y) * 40.0 for y in years)))
        return RegressionFit(**{**fit.__dict__, "p_slope": p_slope})

    def test_stars_for_significant_slope(self):
        text = render_table({"item_a": self.fit_with_p(0.0004)})
        assert "***" in text

    def test_no_stars_for_insignificant_slope(self):
        fit = self.fit_with_p(0.2)
        text = render_table({"item_a": fit})
        slope_cell = text.splitlines()[1]
        assert "*" not in slope_cell


class TestReportJson:
    def test_reparsed_json_matches_report_bit_for_bit(self, report):
        payload = json.loads(report_to_json(report))
        fit = report.trend_table["cost_of_personnel"]
        loaded = payload["trend"]["cost_of_personnel"]
        assert loaded["slope"] == fit.slope
        assert loaded["se_slope"] == fit.se_slope
        assert loaded["p_slope"] == fit.p_slope
        assert loaded["residuals"] == list(fit.residuals)
        allometric = payload["allometric"]
        assert allometric["exponent"] == report.allometric_table.exponent
        assert allometric["classification"] == report.allometric_table.classification.value
        points = payload["metabolism"]["points"]
        assert points[0]["share_percent"] == report.metabolism_series[0].share_percent
        growth = payload["growth"]["total_revenue"]
        assert growth["cumulative"] == report.growth_table["total_revenue"].cumulative

    def test_infinite_f_statistic_survives_round_trip(self, tmp_path):
        path = write_ledger_file(tmp_path / "power.csv", power_law_ledger())
        report = run_report(ReportConfig(input_path=path))
        assert math.isinf(report.allometric_table.f_statistic)
        payload = json.loads(report_to_json(report))
        assert payload["allometric"]["f_statistic"] == math.inf


class TestReportText:
    def test_sections_present(self, report):
        text = render_report_text(report)
        for heading in ("Trend regressions", "Arithmetic growth rates",
                        "Allometric relation", "Cost share of total_revenue",
                        "Share crossovers", "Mean cost profile", "Cross-checks",
                        "Validation findings"):
            assert heading in text

    def test_growth_headers_show_both_interpretations(self, report):
        text = render_report_text(report)
        assert "r_per_year" in text
        assert "cumulative_pct" in text

    def test_cross_check_prints_reference_ratio(self, report):
        assert "1.2247" in render_report_text(report)


class TestFigures:
    def test_fig4_identity_ledger_is_all_100(self, tmp_path):
        records = [record(1997 + i, revenue=50.0 + i, personnel=50.0 + i,
                          total_cost=60.0, other_costs=10.0) for i in range(19)]
        path = write_ledger_file(tmp_path / "ident.csv", ledger_of(records))
        report = run_report(ReportConfig(input_path=path))
        out = emit_figure_data(report, "fig4", tmp_path)
        lines = out.read_text().splitlines()
        assert lines[0] == "year,m_personnel_percent,m_other_costs_percent"
        assert all(line.split(",")[1] == "100.0" for line in lines[1:])

    def test_fig1_two_point_mean(self, tmp_path):
        # Figure emission only needs the profile, so a 2-record ledger is
        # enough here even though the regression tables require 3 points.
        from ecometab.metabolism import mean_cost_profile

        records = [
            record(1997, revenue=10.0, personnel=4.0, total_cost=9.0, services=1.0,
                   other_costs=1.0),
            record(1998, revenue=10.0, personnel=4.0, total_cost=9.0, services=3.0,
                   other_costs=1.0),
        ]
        ledger = ledger_of(records)
        report = Report(
            trend_table={}, growth_table={}, allometric_table=None,
            metabolism_series=(), other_costs_share=(), crossings=(),
            mean_costs=mean_cost_profile(ledger),
            validation_findings=(), ledger=ledger, window=ledger,
            config=ReportConfig(input_path=tmp_path / "two.csv", period=(1997, 1998)),
        )
        out = emit_figure_data(report, "fig1", tmp_path)
        assert "services,2.0" in out.read_text().splitlines()

    def test_fig2_row_count_matches_period_length(self, report, tmp_path):
        out = emit_figure_data(report, "fig2", tmp_path)
        lines = out.read_text().splitlines()
        assert lines[0] == "year,total_revenue,cost_of_personnel"
        assert len(lines) - 1 == len(report.ledger)

    def test_all_figures_written_with_expected_headers(self, report, tmp_path):
        expected_headers = {
            "fig1": "item,mean",
            "fig2": "year,total_revenue,cost_of_personnel",
            "fig3": "year,total_revenue,total_cost",
            "fig4": "year,m_personnel_percent,m_other_costs_percent",
            "figA2": "year,salary,social_security_taxes,severance_pay,personnel_other_costs",
            "figA3": "year,cost_of_personnel,other_costs",
        }
        for figure_id in FIGURE_IDS:
            path = emit_figure_data(report, figure_id, tmp_path)
            assert path.name == f"{figure_id}.csv"
            header = path.read_text().splitlines()[0]
            if figure_id in expected_headers:
                assert header == expected_headers[figure_id]
            else:  # figA1 carries the main cost items present in every record
                assert header.startswith("year,cost_of_personnel")

    def test_unknown_figure_id(self, report, tmp_path):
        with pytest.raises(DomainError, match="unknown figure id"):
            emit_figure_data(report, "fig9", tmp_path)

    def test_unwritable_directory_leaves_nothing_behind(self, report, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        blocker = work / "not_a_dir"
        blocker.write_text("occupied")
        with pytest.raises(OSError):
            emit_figure_data(report, "fig2", blocker)
        assert [p.name for p in work.iterdir()] == ["not_a_dir"]


class TestCommandLine:
    def test_report_json_is_byte_identical_across_runs(self, ledger_file):
        first = run_cli("report", "--input", str(ledger_file), "--format", "json")
        second = run_cli("report", "--input", str(ledger_file), "--format", "json")
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == ""

    def test_malformed_input_names_row_and_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "year,currency,total_revenue,cost_of_personnel,total_cost,salary\n"
            "1997,EUR,1.0,0.5,1.0,0.3\n"
            "1998,EUR,1.0,0.5,1.0,oops\n"
        )
        result = run_cli("report", "--input", str(bad))
        assert result.returncode != 0
        assert "row 3" in result.stderr
        assert "salary" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_missing_file_is_a_single_line_error(self, tmp_path):
        result = run_cli("report", "--input", str(tmp_path / "nope.csv"))
        assert result.returncode == 1
        assert result.stderr.startswith("error:")

    def test_non_convergence_is_a_single_line_error(self, ledger_file, monkeypatch, capsys):
        monkeypatch.setattr(stats, "_BETA_MAX_ITER", 1)
        assert main(["report", "--input", str(ledger_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "did not converge" in err

    def test_trend_subcommand_text(self, ledger_file):
        result = run_cli("trend", "--input", str(ledger_file))
        assert result.returncode == 0
        assert "total_revenue" in result.stdout
        assert "std.coef" in result.stdout

    def test_trend_single_item(self, ledger_file):
        result = run_cli("trend", "--input", str(ledger_file), "--item", "services")
        assert result.returncode == 0
        assert "services" in result.stdout
        assert "total_revenue" not in result.stdout

    def test_growth_subcommand_json(self, ledger_file):
        result = run_cli("growth", "--input", str(ledger_file), "--format", "json")
        payload = json.loads(result.stdout)
        assert set(payload["growth"]) == {"total_revenue", "cost_of_personnel", "total_cost"}

    def test_metabolism_subcommand_csv(self, ledger_file):
        result = run_cli("metabolism", "--input", str(ledger_file), "--format", "csv")
        lines = result.stdout.splitlines()
        assert lines[0] == "year,share_percent"
        assert len(lines) == 20

    def test_allometric_subcommand(self, ledger_file):
        result = run_cli("allometric", "--input", str(ledger_file), "--format", "json")
        payload = json.loads(result.stdout)
        assert "exponent" in payload["allometric"]

    def test_crossover_subcommand(self, ledger_file):
        result = run_cli("crossover", "--input", str(ledger_file))
        assert result.returncode == 0

    def test_validate_subcommand(self, tmp_path):
        ledger = ledger_of([record(1999, 1.0, 1.0, 1.0, other_costs=0.5),
                            record(2001, 1.0, 1.0, 1.0, other_costs=0.5)])
        path = write_ledger_file(tmp_path / "gap.csv", ledger)
        result = run_cli("validate", "--input", str(path))
        assert result.returncode == 0
        assert "year_gap" in result.stdout

    USER_DOTFILES = {".fig1.csv.bak": "MINE", ".fig2.csv.tmp": "TMP"}

    def test_figures_subcommand_writes_all(self, ledger_file, tmp_path):
        out_dir = tmp_path / "figs"
        out_dir.mkdir()
        (out_dir / "fig1.csv").write_text("OLD")  # replaced, leaving no backup
        for name, text in self.USER_DOTFILES.items():  # not the run's, so left alone
            (out_dir / name).write_text(text)
        result = run_cli("figures", "--input", str(ledger_file),
                         "--out-dir", str(out_dir))
        assert result.returncode == 0
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == sorted([*(f"{f}.csv" for f in FIGURE_IDS), *self.USER_DOTFILES])
        assert (out_dir / "fig1.csv").read_text().startswith("item,mean\n")
        assert all((out_dir / name).read_text() == text
                   for name, text in self.USER_DOTFILES.items())
        assert all(str(out_dir) in line for line in result.stdout.splitlines())

    def test_figures_selection(self, ledger_file, tmp_path):
        out_dir = tmp_path / "figs"
        out_dir.mkdir()
        result = run_cli("figures", "--input", str(ledger_file),
                         "--out-dir", str(out_dir), "--figure", "fig2")
        assert result.returncode == 0
        assert [p.name for p in out_dir.iterdir()] == ["fig2.csv"]

    def test_figures_leave_the_directory_as_it_was_on_failure(self, ledger_file, tmp_path):
        out_dir = tmp_path / "figs"
        (out_dir / "fig3.csv").mkdir(parents=True)  # blocks the third rename
        (out_dir / "fig1.csv").write_text("OLD")  # renamed over before the failure
        for name, text in self.USER_DOTFILES.items():
            (out_dir / name).write_text(text)
        result = run_cli("figures", "--input", str(ledger_file), "--out-dir", str(out_dir))
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error:")
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["fig1.csv", "fig3.csv", *self.USER_DOTFILES])
        assert (out_dir / "fig1.csv").read_text() == "OLD"
        assert all((out_dir / name).read_text() == text
                   for name, text in self.USER_DOTFILES.items())
        assert list((out_dir / "fig3.csv").iterdir()) == []

    @pytest.mark.parametrize("out_dir, prefix", [
        (None, ""), ("figs", "figs/"), ("figs//", "figs/"), ("./figs", "figs/"),
        ("./figs/./", "figs/"),
    ])
    def test_figures_print_each_path_normalized(self, ledger_file, tmp_path, monkeypatch, capsys,
                                                 out_dir, prefix):
        (tmp_path / "figs").mkdir()
        monkeypatch.chdir(tmp_path)
        argv = ["figures", "--input", str(ledger_file), "--figure", "fig2", "--figure", "fig1"]
        assert main(argv + (["--out-dir", out_dir] if out_dir else [])) == 0
        assert capsys.readouterr().out == f"{prefix}fig2.csv\n{prefix}fig1.csv\n"

    def test_period_flags(self, ledger_file):
        result = run_cli("metabolism", "--input", str(ledger_file),
                         "--from", "2000", "--to", "2005", "--format", "csv")
        lines = result.stdout.splitlines()
        assert len(lines) == 7
        assert lines[1].startswith("2000,")

    def test_exit_zero_on_success(self, ledger_file):
        assert run_cli("report", "--input", str(ledger_file)).returncode == 0

    @pytest.mark.parametrize("command", ["report", "figures"])
    def test_extreme_magnitude(self, tmp_path, monkeypatch, capsys, command):
        # The squares of 1e200 overflow unless the descriptives scale it first.
        records = list(random_ledger(seed=21).records)
        records[4] = dataclasses.replace(records[4], services=1e200)
        path = write_ledger_file(tmp_path / "big.csv", ledger_of(records))
        monkeypatch.chdir(tmp_path)
        assert main([command, "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestHostileInputOnTheCommandLine:
    """Each bad input ends in exit 1 and exactly one ``error:`` line."""

    def assert_one_error_line(self, result, *fragments):
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        for fragment in fragments:
            assert fragment in lines[0]

    def test_byte_order_mark_gives_the_same_report(self, tmp_path):
        text = lira_text(random_ledger(seed=21))
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        plain = tmp_path / "plain" / "ledger.csv"
        bom = tmp_path / "bom" / "ledger.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text("\ufeff" + text, encoding="utf-8")
        expected = run_cli("report", "--input", str(plain), "--format", "json")
        result = run_cli("report", "--input", str(bom), "--format", "json")
        assert result.returncode == expected.returncode == 0
        assert result.stderr == ""
        assert result.stdout == expected.stdout

    def test_latin1_byte(self, tmp_path):
        path = tmp_path / "latin1.csv"
        text = lira_text(random_ledger(seed=21)).replace("EUR", "EUR\u00e9", 1)
        path.write_bytes(text.encode("latin-1"))
        self.assert_one_error_line(run_cli("report", "--input", str(path)), "not valid utf-8")

    def test_field_over_the_csv_size_limit(self, tmp_path):
        path = tmp_path / "huge.csv"
        lines = lira_text(random_ledger(seed=21)).splitlines()
        lines[3] = lines[3].replace(",", "," + "9" * 200_000, 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assert_one_error_line(run_cli("report", "--input", str(path)),
                                   "row 4", "field larger than field limit")

    @pytest.mark.parametrize("argv", [
        ["report", "--input", "x.csv", "--format", "xml"],
        ["report", "--input", "x.csv", "--from", "abc"],
        ["report"],
        ["summary", "--input", "x.csv"],
        ["report", "--input", "x.csv", "extra\nargument"],
    ], ids=["format", "year", "no-input", "command", "unrecognized"])
    def test_usage_error(self, argv):
        self.assert_one_error_line(run_cli(*argv))

    @pytest.mark.parametrize("flag", ["--input", "--out-dir"])
    def test_nul_byte_in_a_path(self, ledger_file, capsys, flag):
        # A shell cannot pass a NUL byte, so this calls main in-process.
        argv = ["figures", "--input", str(ledger_file), "--out-dir", "."]
        argv[argv.index(flag) + 1] = "a\0b"
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: argument") and "NUL byte" in err

    @pytest.mark.parametrize("command", ["metabolism", "report"])
    def test_share_that_overflows(self, tmp_path, command):
        records = list(random_ledger(seed=21).records)
        records[0] = dataclasses.replace(records[0], total_revenue=1e-300, cost_of_personnel=5e10)
        path = write_ledger_file(tmp_path / "tiny.csv", ledger_of(records))
        result = run_cli(command, "--input", str(path), "--format", "json")
        self.assert_one_error_line(result, "not finite in 1997")

    def test_help_still_exits_zero(self):
        result = run_cli("report", "--help")
        assert result.returncode == 0
        assert "--input" in result.stdout

    def test_year_beyond_9999(self, tmp_path):
        text = lira_text(random_ledger(seed=21)).replace("\n2015,", f"\n{10**200},")
        path = tmp_path / "far.csv"
        path.write_text(text, encoding="utf-8")
        self.assert_one_error_line(run_cli("report", "--input", str(path)),
                                   "column 'year'", "outside 1-9999")

    def test_newline_in_a_column_name(self, tmp_path):
        path = tmp_path / "ledger.csv"
        text = lira_text(random_ledger(seed=21))
        path.write_text('"ye\nar"' + text[len("year"):], encoding="utf-8")
        self.assert_one_error_line(run_cli("report", "--input", str(path)), "unknown column")

    def test_newline_in_an_item_name(self, ledger_file):
        result = run_cli("metabolism", "--input", str(ledger_file), "--numerator", "a\nb")
        self.assert_one_error_line(result, "unknown item 'a\\nb'")

    def test_two_character_delimiter(self, ledger_file):
        result = run_cli("report", "--input", str(ledger_file), "--delimiter", ";;")
        self.assert_one_error_line(result, "delimiter must be one character")

    @pytest.mark.parametrize("delimiter", ["\n", "\r", '"'])
    def test_delimiter_the_csv_module_refuses(self, ledger_file, delimiter):
        # Python 3.13's csv.reader raises ValueError on these; older ones read no columns.
        result = run_cli("report", "--input", str(ledger_file), "--delimiter", delimiter)
        self.assert_one_error_line(result)
