"""Output checks of one workload command.

At any seed a command passes when it exits 0, prints at least one PASS
line and no FAIL line, and writes a summary file in its (fresh, empty)
output directory whose assertion lines all PASS.  At the reference seed its
output files must also match the stored reference within a stated
tolerance: bit equality would reject harmless reassociation.
"""

from __future__ import annotations

import math
import os

# Stated tolerance per compared file: |value - reference| <= ATOL + RTOL*|reference|.
# A relative change of 1e-15 in the initial heat field moves the monitor and
# action columns by less than 1e-12 and the identity residuals by about
# 5e-8: residuals difference snapshots in time and take up to six grid
# derivatives, which amplifies last-bit changes of the flow.
TOLERANCES = {
    "monitors.csv": (1e-6, 1e-9),
    "action.csv": (1e-6, 1e-9),
    "identities.csv": (1e-4, 1e-9),
}
# The identity table is printed to four significant digits; each printed
# number may differ from the reference by one unit in its last digit.


def assertion_lines(text):
    return [line for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]


def command_problems(returncode, stdout, out_dir, summary_name):
    """Why a finished command fails the check at any seed (empty if it passes)."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    lines = assertion_lines(stdout)
    if not any(line.startswith("PASS") for line in lines):
        problems.append("no PASS line on stdout")
    problems += [f"stdout: {line}" for line in lines if line.startswith("FAIL")]
    summary = os.path.join(out_dir, summary_name)
    if not os.path.isfile(summary):
        problems.append(f"no {summary_name} written")
    else:
        with open(summary, encoding="utf-8") as fh:
            lines = assertion_lines(fh.read())
        if not lines:
            problems.append(f"{summary_name} has no assertion line")
        problems += [f"{summary_name}: {line}" for line in lines if line.startswith("FAIL")]
    return problems


def _close(value, ref, rtol, atol):
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= atol + rtol * abs(ref)


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _last_digit_unit(token):
    """One unit in the last printed digit of a decimal token such as 6.671e+01 or 16.59."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def compare_csv(path, ref_path, rtol, atol):
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    with open(ref_path, encoding="utf-8") as fh:
        refs = [line.split(",") for line in fh.read().splitlines()]
    name = os.path.basename(path)
    if len(rows) != len(refs) or rows[:1] != refs[:1]:
        return [f"{name}: {len(rows)} lines vs {len(refs)} in the reference, or another header"]
    problems = []
    for lineno, (row, ref) in enumerate(zip(rows, refs), start=1):
        if len(row) != len(ref):
            problems.append(f"{name}:{lineno}: {len(row)} cells vs {len(ref)}")
            continue
        for col, (cell, want) in enumerate(zip(row, ref)):
            a, b = _number(cell), _number(want)
            ok = cell == want if a is None or b is None else _close(a, b, rtol, atol)
            if not ok:
                problems.append(f"{name}:{lineno}: {refs[0][col]} = {cell}, reference {want}")
    return problems


def table_lines(text):
    return [line for line in text.splitlines() if line.strip() and not line.startswith(("PASS", "FAIL"))]


def compare_table(path, ref_path):
    """Printed table against the reference, one unit in the last digit per number."""
    with open(path, encoding="utf-8") as fh:
        lines = table_lines(fh.read())
    with open(ref_path, encoding="utf-8") as fh:
        refs = table_lines(fh.read())
    name = os.path.basename(path)
    if len(lines) != len(refs):
        return [f"{name}: {len(lines)} table lines vs {len(refs)} in the reference"]
    problems = []
    for line, ref in zip(lines, refs):
        tokens, wants = line.replace(",", " ").split(), ref.replace(",", " ").split()
        ok = len(tokens) == len(wants)
        for token, want in zip(tokens, wants):
            a, b = _number(token), _number(want)
            if a is None or b is None:
                ok = ok and token == want
            else:
                ok = ok and _close(a, b, 0.0, _last_digit_unit(want) * (1 + 1e-9))
        if not ok:
            problems.append(f"{name}: {line.strip()!r}, reference {ref.strip()!r}")
    return problems


def reference_problems(out_dir, ref_dir, files):
    """Differences of the compared output files from the stored reference."""
    problems = []
    for name in files:
        path, ref_path = os.path.join(out_dir, name), os.path.join(ref_dir, name)
        if not os.path.isfile(ref_path):
            problems.append(f"no reference {name}")
        elif not os.path.isfile(path):
            problems.append(f"{name} not written")
        elif name in TOLERANCES:
            problems += compare_csv(path, ref_path, *TOLERANCES[name])
        else:
            problems += compare_table(path, ref_path)
    return problems
