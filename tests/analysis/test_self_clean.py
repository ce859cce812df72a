"""Tier-1 pin: the shipped package passes its own static analysis.

This is the contract that keeps the checker and the codebase mutually
honest: every rule stays active, and any new violation inside
``src/repro`` — a page/byte mix-up, an impure cost formula, an uncharged
read — fails the suite until it is fixed or explicitly suppressed with a
justification.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.analysis.engine import analyze_paths
from repro.analysis.rules import default_rules

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def report():
    """One whole-package analysis shared by every assertion below."""
    return analyze_paths([PACKAGE_ROOT], default_rules())


class TestSelfClean:
    def test_zero_unsuppressed_findings(self, report):
        assert report.clean, "\n".join(
            f"{f.location}: {f.rule_id}: {f.message}" for f in report.findings
        )

    def test_at_least_twelve_active_rules(self, report):
        assert len(report.rule_ids) >= 12

    def test_program_rules_are_active(self, report):
        # The whole-program families must run in the self-check: a clean
        # report with them disabled would be vacuous.
        for rule_id in ("RA-PAR-SAFE", "RA-STREAM", "RA-STALE-SUPPRESS"):
            assert rule_id in report.rule_ids

    def test_no_stale_suppressions_in_tree(self, report):
        # Every in-tree suppression must absorb a live finding; the
        # stale-suppress rule would report any that rotted.
        stale = [f for f in report.findings if f.rule_id == "RA-STALE-SUPPRESS"]
        assert stale == []

    def test_analyzes_the_whole_package(self, report):
        # the package is 80+ modules; a collapsed run would be a test bug
        assert report.n_files >= 70

    def test_every_suppression_is_justified(self, report):
        # A suppression must say why: "# repro: ignore[ID] -- reason".
        assert report.suppressed, "expected the documented in-tree suppressions"
        pattern = re.compile(r"#\s*repro:\s*ignore\[[^\]]+\]\s*--\s*\S")
        for finding in report.suppressed:
            line = Path(finding.path).read_text().splitlines()[finding.line - 1]
            assert pattern.search(line), (
                f"{finding.location}: suppression without justification: {line!r}"
            )
