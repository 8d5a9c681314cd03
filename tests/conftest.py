"""Shared reporting for the acceptance suite.

Each acceptance test records a one-line verdict; they are echoed in the
terminal summary so the pass/fail status of every criterion is visible
even when output capture is on.  At the end of the session the verdicts,
with the wall time of each test's call, are also written to
``acceptance_criteria.json`` in the rootdir.
"""

import json
import os

CRITERIA_FILE = "acceptance_criteria.json"

_CRITERIA = {}  # test node id -> criterion number, status, detail, line
_CALL_SECONDS = {}  # test node id -> duration of its call phase


def record_criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:2d}: {status}  {detail}"
    # "<node id> (call)" while the test body runs.
    node = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
    _CRITERIA[node] = {"criterion": number, "status": status, "detail": detail, "line": line}
    print(line)
    return ok


def pytest_runtest_logreport(report):
    if report.when == "call":
        _CALL_SECONDS[report.nodeid] = report.duration


def pytest_terminal_summary(terminalreporter):
    if _CRITERIA:
        terminalreporter.section("acceptance criteria")
        for row in sorted(_CRITERIA.values(), key=lambda r: r["criterion"]):
            terminalreporter.write_line(row["line"])


def pytest_sessionfinish(session):
    if not _CRITERIA:
        return
    rows = [
        {"criterion": row["criterion"], "status": row["status"], "detail": row["detail"],
         "test": node, "wall_s": _CALL_SECONDS.get(node)}
        for node, row in sorted(_CRITERIA.items(), key=lambda item: item[1]["criterion"])
    ]
    path = session.config.rootpath / CRITERIA_FILE
    path.write_text(json.dumps({"criteria": rows}, indent=1) + "\n")
