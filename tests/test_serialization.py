"""Differential test of the JSON and CSV emitters against a deep-copy reference.

The emitters read result fields in place. The reference below serializes the
same results through ``dataclasses.asdict``, which copies every field (a fit's
residuals included), and must produce the same bytes, for the full report and
for each single-analysis command, on ledgers with lira years and defects, one
of them 2000 rows long. Each command's JSON, CSV and text must be its
section of the full report's. The JSON writer itself must match
``json.dumps`` with ``indent=2`` on any tree of dicts, lists and tuples.
"""

import csv
import io
import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecometab.cli import (
    TREND_ITEMS,
    ReportConfig,
    _json,
    main,
    render_report_text,
    report_to_csv,
    report_to_json,
    run_report,
)
from ecometab.ledger import Series, extract_series, parse_ledger, validate_ledger
from ecometab.metabolism import (
    allometric_fit,
    arithmetic_growth,
    crossover_years,
    metabolism_index,
    trend_fit,
)
from helpers import VARIANT_KINDS, lira_text, variant_ledger

FIT_FIELDS = ("n", "intercept", "slope", "se_intercept", "se_slope",
              "standardized_slope", "r_squared", "f_statistic",
              "p_slope", "p_f", "degenerate", "exact_fit")

# (first-year offset, last-year offset from the end, alpha)
WINDOWS = ((0, 0, 0.05), (2, 3, 0.01), (5, 0, 0.10))


def dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def rows_csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def allometric_dict(fit):
    payload = asdict(fit)
    payload["classification"] = fit.classification.value
    return payload


def reference_json(report):
    return dumps({
        "trend": {item: asdict(fit) for item, fit in report.trend_table.items()},
        "growth": {item: asdict(rate) for item, rate in report.growth_table.items()},
        "allometric": allometric_dict(report.allometric_table),
        "metabolism": {
            "numerator": report.config.numerator_item,
            "denominator": report.config.denominator_item,
            "points": [asdict(p) for p in report.metabolism_series],
            "other_costs_points": [asdict(p) for p in report.other_costs_share],
        },
        "crossings": [asdict(c) for c in report.crossings],
        "mean_costs": {
            "items": {item: asdict(d) for item, d in report.mean_costs.by_item.items()},
            "omitted": list(report.mean_costs.omitted),
        },
        "validation": [asdict(f) for f in report.validation_findings],
    })


def reference_csv(report):
    numerator = report.config.numerator_item
    rows = []
    for item, fit in report.trend_table.items():
        rows += [["trend", item, field, repr(value)]
                 for field, value in asdict(fit).items() if field != "residuals"]
    for item, rate in report.growth_table.items():
        rows += [["growth", item, field, repr(value)] for field, value in asdict(rate).items()]
    rows += [["allometric", numerator, field, repr(value)]
             for field, value in allometric_dict(report.allometric_table).items()]
    rows += [["metabolism", numerator, str(p.year), repr(p.share_percent)]
             for p in report.metabolism_series]
    rows += [["metabolism", "other_costs", str(p.year), repr(p.share_percent)]
             for p in report.other_costs_share]
    rows += [["crossings", f"{c.start_year}-{c.end_year}", "crossing_year",
              repr(c.crossing_year)] for c in report.crossings]
    for item, d in report.mean_costs.by_item.items():
        rows += [["mean_costs", item, field, repr(value)] for field, value in asdict(d).items()]
    rows += [["validation", f.kind, str(f.year), f.message] for f in report.validation_findings]
    return rows_csv(["section", "item", "field", "value"], rows)


def reference_commands(ledger, period, alpha):
    """Expected stdout of each single-analysis command, by (command, format)."""
    window = ledger.window(period)
    fits = {item: trend_fit(window, item) for item in TREND_ITEMS}
    growth = {}
    for item in TREND_ITEMS:
        series = extract_series(window, item)
        growth[item] = arithmetic_growth(series, series.years[0], series.years[-1])
    points = metabolism_index(window, "cost_of_personnel", "total_revenue")
    other = metabolism_index(window, "other_costs", "total_revenue")
    fit = allometric_fit(window, "cost_of_personnel", "total_revenue", alpha=alpha)
    findings = validate_ledger(ledger)  # the whole file, as in the report
    crossings = crossover_years(
        Series(tuple(p.year for p in points), tuple(p.share_percent for p in points)),
        Series(tuple(p.year for p in other), tuple(p.share_percent for p in other)),
    )
    return {
        ("trend", "json"): dumps({"trend": {i: asdict(f) for i, f in fits.items()}}),
        ("trend", "csv"): rows_csv(["item", "field", "value"], [
            [item, field, repr(getattr(f, field))]
            for item, f in fits.items() for field in FIT_FIELDS
        ]),
        ("growth", "json"): dumps({"growth": {i: asdict(g) for i, g in growth.items()}}),
        ("growth", "csv"): rows_csv(["item", "field", "value"], [
            [item, field, repr(value)]
            for item, g in growth.items() for field, value in asdict(g).items()
        ]),
        ("metabolism", "json"): dumps({"metabolism": {
            "numerator": "cost_of_personnel",
            "denominator": "total_revenue",
            "points": [asdict(p) for p in points],
        }}),
        ("metabolism", "csv"): rows_csv(["year", "share_percent"],
                                        [[p.year, repr(p.share_percent)] for p in points]),
        ("allometric", "json"): dumps({"allometric": allometric_dict(fit)}),
        ("allometric", "csv"): rows_csv(["field", "value"], [
            [field, repr(value)] for field, value in allometric_dict(fit).items()
        ]),
        ("crossover", "json"): dumps({"crossings": [asdict(c) for c in crossings]}),
        ("crossover", "csv"): rows_csv(["start_year", "end_year", "crossing_year"], [
            [c.start_year, c.end_year, repr(c.crossing_year)] for c in crossings
        ]),
        ("validate", "json"): dumps({"validation": [asdict(f) for f in findings]}),
        ("validate", "csv"): rows_csv(["kind", "year", "message"], [
            [f.kind, str(f.year), f.message] for f in findings
        ]),
    }


# (seed, kind, years, window); the 2000-year ledger has 82 share crossings.
CASES = [
    (seed, kind, 24, window)
    for seed in (31, 32)
    for kind in VARIANT_KINDS
    for window in WINDOWS
] + [(31, "mismatch", 2000, WINDOWS[0])]


def case_id(seed, kind, years, window):
    return f"{kind}{seed}{'' if years == 24 else f'x{years}'}-w{WINDOWS.index(window)}"


@pytest.fixture(params=CASES, ids=[case_id(*c) for c in CASES])
def case(request, tmp_path):
    seed, kind, years, (head, tail, alpha) = request.param
    path = tmp_path / f"{kind}{seed}.csv"
    path.write_text(lira_text(variant_ledger(seed, kind, n_years=years, first_year=1992)),
                    encoding="utf-8")
    with open(path, encoding="utf-8", newline="") as stream:
        ledger = parse_ledger(stream, organization=path.stem)
    period = (ledger.years[head], ledger.years[-1 - tail])
    return path, ledger, period, alpha


def test_report_emitters_match_the_deep_copy_reference(case):
    path, ledger, period, alpha = case
    report = run_report(ReportConfig(input_path=path, period=period, alpha=alpha))
    assert any(r.year < 2002 for r in report.ledger.records)
    assert report_to_json(report) == reference_json(report)
    assert report_to_csv(report) == reference_csv(report)


def test_command_outputs_match_the_deep_copy_reference(case, capsys):
    path, ledger, period, alpha = case
    expected = reference_commands(ledger, period, alpha)
    for (command, output_format), text in expected.items():
        code = main([command, "--input", str(path), "--from", str(period[0]),
                     "--to", str(period[1]), "--alpha", repr(alpha),
                     "--format", output_format])
        out, err = capsys.readouterr()
        assert (command, output_format, code, err) == (command, output_format, 0, "")
        assert out == text, (command, output_format)


# Each single-analysis command: its section's JSON key and text title in the
# report, and how many leading cells (section, item) of the report's CSV rows
# it leaves out.
SECTION_OF = {
    "trend": ("trend", "Trend regressions (OLS on calendar year)", 1),
    "growth": ("growth", "Arithmetic growth rates", 1),
    "allometric": ("allometric", "Allometric relation", 2),
    "metabolism": ("metabolism", "Cost share of total_revenue (percent)", 2),
    "crossover": ("crossings", "Share crossovers", None),
    "validate": ("validation", "Validation findings", 1),
}


def text_sections(text):
    """A text report's section bodies by title: the indented lines under it."""
    sections = {}
    for line in text.splitlines(keepends=True)[1:]:
        if line.startswith("  "):
            sections[title] += line
        elif line.strip():
            title = line.rstrip("\n")
            sections[title] = ""
    return sections


def test_each_command_prints_its_section_of_the_report(case, capsys):
    path, _, period, alpha = case
    flags = ["--input", str(path), "--from", str(period[0]), "--to", str(period[1]),
             "--alpha", repr(alpha)]

    def run(command, output_format):
        assert main([command, *flags, "--format", output_format]) == 0
        return capsys.readouterr().out

    report_json = json.loads(run("report", "json"))
    del report_json["metabolism"]["other_costs_points"]  # the report's alone
    report_rows = list(csv.reader(io.StringIO(run("report", "csv"))))[1:]
    report_text = text_sections(run("report", "text"))
    for command, (key, title, left_out) in SECTION_OF.items():
        assert run(command, "json") == dumps({key: report_json[key]}), command
        section = [row for row in report_rows if row[0] == key]
        if command == "metabolism":
            section = [row for row in section if row[1] == "cost_of_personnel"]
        if command == "crossover":  # the README's mapping of the columns
            expected = [[*row[1].split("-"), row[3]] for row in section]
        else:
            expected = [row[left_out:] for row in section]
        assert list(csv.reader(io.StringIO(run(command, "csv"))))[1:] == expected, command
        text = run(command, "text")
        if command == "metabolism":  # one share column where the report has two
            assert ([line.split() for line in text.splitlines()[1:]]
                    == [line.split()[:2] for line in report_text[title].splitlines()[1:]])
        else:
            assert text == report_text[title], command


def test_rendering_leaves_the_results_as_they_were(tmp_path):
    # The emitters hand each result's own __dict__ to the encoder, not a copy.
    path = tmp_path / "mismatch31.csv"
    path.write_text(lira_text(variant_ledger(31, "mismatch", n_years=24, first_year=1992)),
                    encoding="utf-8")
    report = run_report(ReportConfig(input_path=path, period=(1992, 2015)))
    assert report.crossings and report.validation_findings
    before = asdict(report)
    renderers = (report_to_json, report_to_csv, render_report_text)
    first = [render(report) for render in renderers]
    assert [render(report) for render in renderers] == first
    assert asdict(report) == before


# The JSON writer against json.dumps itself, on trees the reports never build.

EDGE_PAYLOADS = [
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
     "-0.0": -0.0, "tiny": 5e-324, "big": 10**30},
    {}, [], (), {"empty": [{}, [], ()]},
    (1.5, (2, ("three",)), [None, True, False]),
    {"text": ["},\n{", "}],\n  [{", "caf\u00e9 \u4e2d \U0001f600", 'q"}\\'],
     "records": [{"a": "},\n    {", "b": None}, {"a": "}\n", "c": float("nan")}]},
    [1, "a", None, {"k": [1, {"m": (2, 3)}]}, [], {}, [{"a": 1}, {"b": 2}]],
    [{"a": 1}, {}], [{"a": 1}, {"b": {"c": 1}}], [{"a": 1}, [1, 2]], [[1, 2], [3]],
    {10: {"x": (1,)}, 2: [{"a": 1}, [3]], -1: "int keys, sorted as numbers"},
    "text", -7, None, 0.1,
]


@pytest.mark.parametrize("payload", EDGE_PAYLOADS)
def test_json_writer_matches_json_dumps_on_edge_payloads(payload):
    assert _json(payload) == dumps(payload)


@pytest.mark.parametrize("payload", [
    {"a": {1, 2}}, [object()], {"a": [{"b": 1}, {"c": {1}}]}, {(1, 2): [1]}, {(1, 2): 1},
])
def test_json_writer_rejects_what_json_rejects(payload):
    with pytest.raises(TypeError):
        dumps(payload)
    with pytest.raises(TypeError):
        _json(payload)


_leaves = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8))
_records = st.dictionaries(st.text(max_size=6), _leaves, min_size=1, max_size=4)
_trees = st.recursive(
    _leaves | _records,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=5)
        | st.lists(_records, min_size=1, max_size=5)
        | st.lists(_records | children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_json_writer_matches_json_dumps_on_random_trees(payload):
    assert _json(payload) == dumps(payload)
