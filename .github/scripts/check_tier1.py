"""Fail when a tier-1 test failed or errored, other than the two acceptance
criteria that are red by design (README, "Tests and acceptance suite").

Usage: python .github/scripts/check_tier1.py JUNIT_XML

JUNIT_XML is the report of ``pytest --junitxml``.  Prints each unexpected
failure or error, and each red-by-design test that passed (``RED_BY_DESIGN``
is then stale), and exits 1 when there is one, or when the report is
missing or holds no test; exits 0 otherwise.
"""

import sys
import xml.etree.ElementTree as ET

RED_BY_DESIGN = {
    ("tests.test_acceptance", "test_criterion_2_pulsed_optima_table"),
    ("tests.test_acceptance", "test_criterion_8_tolerance_band"),
}


def main(path: str) -> int:
    try:
        cases = list(ET.parse(path).iter("testcase"))
    except (OSError, ET.ParseError) as exc:
        print(f"no readable test report: {exc}")
        return 1
    if not cases:
        print(f"{path} holds no test")
        return 1
    unexpected = [
        f"{case.get('classname')}::{case.get('name')} ({outcome.tag})"
        for case in cases
        for outcome in case
        if outcome.tag in ("failure", "error")
        and (case.get("classname"), case.get("name")) not in RED_BY_DESIGN
    ]
    passed = [
        f"{case.get('classname')}::{case.get('name')} (red by design)"
        for case in cases
        if (case.get("classname"), case.get("name")) in RED_BY_DESIGN
        and not any(outcome.tag in ("failure", "error", "skipped") for outcome in case)
    ]
    for line in unexpected:
        print(f"unexpected: {line}")
    for line in passed:
        print(f"unexpected pass: {line}")
    print(f"{len(cases)} tests, {len(unexpected)} unexpected failures or errors, "
          f"{len(passed)} unexpected passes")
    return 1 if unexpected or passed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
