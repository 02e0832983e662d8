"""Output checks of the explore benchmark.

Every check returns the set of variant names it found wrong, so that each
mismatch counts once in the failed share (`failed` / `attempted` in the
result line, and `ok_frac`). A failure that concerns a whole run, such as a
cold run that measured nothing, marks every variant of the run.
"""

import csv
import io
import math

SIM_KEY = "variant"


def read_rows(text):
    """Parses a campaign CSV (as written by CampaignCsvSink) into a header and
    a list of row dicts. '#' preamble lines are skipped."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    rows = list(reader)
    if not rows:
        return [], []
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:] if r]


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def check_sim_rows(expected, actual):
    """Compares the rows of a sim run with the recorded cycle-by-cycle
    (--sim-exact) rows, as sets keyed by variant: rows stream in completion
    order, so their order means nothing. Returns {variant: reason}."""
    bad = {}
    by_name = {}
    for row in actual:
        name = row.get(SIM_KEY, "")
        if name in by_name:
            bad[name] = "duplicate row"
        by_name[name] = row
    want = {row[SIM_KEY]: row for row in expected}
    for name, row in want.items():
        got = by_name.get(name)
        if got is None:
            bad[name] = "missing row"
            continue
        diff = [k for k in row if got.get(k) != row[k]]
        if diff:
            bad[name] = "differs in " + ",".join(diff)
    for name in by_name:
        if name not in want:
            bad[name] = "unexpected row"
    for name, row in by_name.items():
        if name in bad:
            continue
        lo = _float(row.get("pred_cpi_lo"))
        measured = _float(row.get("cycles_per_iteration_min"))
        if not (lo <= measured):
            bad[name] = "pred_cpi_lo %s > cycles_per_iteration_min %s" % (
                row.get("pred_cpi_lo"), row.get("cycles_per_iteration_min"))
    return bad


def check_native_rows(names, actual):
    """Every generated variant has exactly one ok row with finite, positive
    cycles. Returns {variant: reason}."""
    bad = {}
    by_name = {}
    for row in actual:
        name = row.get(SIM_KEY, "")
        if name in by_name:
            bad[name] = "duplicate row"
        by_name[name] = row
    for name in names:
        row = by_name.get(name)
        if row is None:
            bad[name] = "missing row"
            continue
        if row.get("status") != "ok":
            bad[name] = "status " + row.get("status", "")
            continue
        cycles = _float(row.get("cycles_per_iteration_min"))
        if not (math.isfinite(cycles) and cycles > 0):
            bad[name] = "cycles %s" % row.get("cycles_per_iteration_min")
    for name in by_name:
        if name not in names:
            bad[name] = "unexpected row"
    return bad


def check_reports(cold, warm):
    """The warm ranked report (bytes) must equal the cold one. Returns
    {variant: reason} for the variants on differing lines."""
    if cold == warm:
        return {}
    bad = {}
    cold_lines = cold.decode(errors="replace").splitlines()
    warm_lines = warm.decode(errors="replace").splitlines()
    for i in range(max(len(cold_lines), len(warm_lines))):
        a = cold_lines[i] if i < len(cold_lines) else ""
        b = warm_lines[i] if i < len(warm_lines) else ""
        if a == b:
            continue
        for line in (a, b):
            cells = line.split(",")
            name = cells[1] if len(cells) > 1 else "<report line %d>" % i
            bad[name] = "warm report differs from cold report"
    return bad


def check_guards(summary, variants):
    """No-op guards of one process: the cold run, if it made one, measured
    every variant and hit nothing; every warm run measured nothing, hit every
    variant, opened no record file and never loaded a kernel. Returns a list
    of problems."""
    problems = []
    cold = summary.get("cold")
    if cold and cold["generated"] != variants:
        problems.append("cold run generated %d variants, want %d" %
                        (cold["generated"], variants))
    if cold and (cold["measured"] != variants or cold["hits"] != 0):
        problems.append("cold run measured %d and hit %d, want %d and 0" %
                        (cold["measured"], cold["hits"], variants))
    for i, warm in enumerate(summary["warm"]):
        if (warm["measured"] != 0 or warm["hits"] != variants or
                warm["record_file_reads"] != 0 or warm["backend_used"] != 0):
            problems.append(
                "warm run %d measured %d, hit %d, read %d record files, "
                "used the backend %d; want 0, %d, 0, 0" %
                (i, warm["measured"], warm["hits"], warm["record_file_reads"],
                 warm["backend_used"], variants))
    return problems


def failed_variants(variants, names, bad_sets, run_problems):
    """Folds the per-variant verdicts of one iteration into the number of
    failed variants: a run-level problem fails them all."""
    if run_problems:
        return variants
    bad = set()
    for b in bad_sets:
        bad |= set(b)
    return min(len(bad), variants) if names else variants
