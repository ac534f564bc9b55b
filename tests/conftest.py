"""Shared test plumbing: one summary line per acceptance criterion."""

import pytest

# The shared helpers hold plain asserts; rewrite them as in a test module,
# so that they still fail under python -O.
pytest.register_assert_rewrite("helpers")

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"{status} criterion {number}: {detail}"


@pytest.fixture
def criterion():
    return record_criterion


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])
