"""Output checks applied to every op, outside its timed interval.

Each check returns ``None`` when the output is right and a one-line reason
when it is not; the benchmark counts every op with a reason as failed.
The expectations come from the generated inputs and from arithmetic
identities of the analyses, not from the program under test, except where
a check compares the CLI with the same program's in-process renderer.
"""

import csv
import io
import json

IDENTITY_RTOL = 1e-12


def _close(a, b):
    return abs(a - b) <= IDENTITY_RTOL * max(abs(a), abs(b))


def check_report_json(text, case):
    """The JSON report parses, covers the window and keeps two identities.

    * every growth rate has ``cumulative == r_per_year * t_years``;
    * the share/growth identity ``M(last)/M(first) == (1+g_num)/(1+g_den)``.
    """
    try:
        payload = json.loads(text)
        growth = payload["growth"]
        metabolism = payload["metabolism"]
        points = metabolism["points"]
        g_num = growth[metabolism["numerator"]]["cumulative"]
        g_den = growth[metabolism["denominator"]]["cumulative"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"report JSON unreadable: {exc!r}"
    if [p["year"] for p in points] != list(case.years):
        return "metabolism points do not cover the window's years"
    for item, rate in growth.items():
        if not _close(rate["cumulative"], rate["r_per_year"] * rate["t_years"]):
            return f"growth[{item}]: cumulative != r_per_year * t_years"
    share_ratio = points[-1]["share_percent"] / points[0]["share_percent"]
    if not _close(share_ratio, (1.0 + g_num) / (1.0 + g_den)):
        return "share/growth identity M(last)/M(first) = (1+g_num)/(1+g_den) fails"
    return None


def check_report_text(text):
    if not text.startswith("Ledger: ") or "Cross-checks" not in text:
        return "text report lacks its header or its cross-check section"
    return None


def check_report_csv(text, case):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["section", "item", "field", "value"]:
        return "CSV report lacks its header"
    metabolism = [r for r in rows if r[:2] == ["metabolism", "cost_of_personnel"]]
    if len(metabolism) != len(case.years):
        return "CSV report has the wrong number of metabolism rows"
    return None


def check_report_outputs(outputs, case):
    """``outputs`` is the (json, text, csv) triple of one in-process op."""
    json_text, report_text, csv_text = outputs
    return (check_report_json(json_text, case)
            or check_report_text(report_text)
            or check_report_csv(csv_text, case))


def check_cli(result, expected, case):
    """A cold CLI run exits 0, writes nothing to stderr, prints exactly what
    the in-process renderer gives for the same configuration, and that
    output passes the check of its format."""
    returncode, stdout, stderr = result
    if returncode != 0:
        return f"exit code {returncode}: {stderr.decode(errors='replace').strip()}"
    if stderr:
        return f"unexpected stderr: {stderr.decode(errors='replace').strip()}"
    if stdout != expected:
        return "stdout differs from the in-process renderer"
    text = stdout.decode()
    if case.output_format == "json":
        return check_report_json(text, case)
    if case.output_format == "csv":
        return check_report_csv(text, case)
    return check_report_text(text)
