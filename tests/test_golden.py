"""Every preset run writes the recorded bytes: stdout, stderr, exit code and files.

The golden files live in ``tests/golden/``; ``tests/golden/record.py``
rewrites them.  On a mismatch the failure names, per numeric column, how
many rows moved and the largest move, so a change that moves results can
list its moves.
"""

import json

import pytest

from golden.record import CASES, GOLDEN, describe_mismatch, environment, record, recorded, run_case


@pytest.mark.parametrize("case", sorted(CASES))
def test_preset_run_matches_its_golden_files(case, tmp_path):
    want = recorded(case)
    assert want, f"no golden files for {case}; run tests/golden/record.py"
    got = run_case(case, tmp_path)
    problems = [f"{name} is new" for name in sorted(set(got) - set(want))]
    problems += [f"{name} was not written" for name in sorted(set(want) - set(got))]
    problems += [describe_mismatch(n, want[n], got[n]) for n in sorted(set(want) & set(got)) if want[n] != got[n]]
    if problems:
        then = json.loads((GOLDEN / "environment.json").read_text())
        now = environment()
        where = "the recorded environment" if then == now else f"recorded on {then}, running on {now}"
        pytest.fail(f"{case} moved ({where}):\n" + "\n".join(problems), pytrace=False)


def test_an_unknown_case_id_records_nothing():
    before = {case: recorded(case) for case in CASES}
    with pytest.raises(SystemExit, match="unknown golden case no-such-case"):
        record(["tomography-fig5", "no-such-case"])
    assert {case: recorded(case) for case in CASES} == before
