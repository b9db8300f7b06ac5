"""The fast families of tools/answers.py as a contract: no wrong certified
verdict, and no more indeterminate answers than the ceilings below; and
the first runs of the contract family within their ceiling of CLI contract
breaks.

Counts, not digests: the digests depend on the number of BLAS threads.
"""

import collections
import importlib
import sys
from pathlib import Path

import pytest

import helpers
import projspec
import projspec.cli  # noqa: F401  (the contract family runs projspec.cli)
from helpers import answers_module

# Indeterminate answers per family (reports with `indeterminate` set, or
# raised exceptions); lower is better, and a rise is a regression.
INDETERMINATE_CEILING = {"criterion1": 0, "sweep": 23, "clustered": 0}


def _reports(value):
    """value and, for a tuple report, each of its pair reports."""
    yield value
    yield from (report for _, report in getattr(value, "reports", ()))


@pytest.mark.parametrize("family", sorted(INDETERMINATE_CEILING))
def test_answers_family_is_consistent(family):
    records = list(getattr(answers_module(), family)({"helpers": helpers, "projspec": projspec}))
    assert records
    wrong = [key for key, value in records for r in _reports(value) if getattr(r, "consistent", None) is False]
    assert wrong == []
    indeterminate = [
        key
        for key, value in records
        if isinstance(value, BaseException) or getattr(value, "indeterminate", None) is not None
    ]
    assert len(indeterminate) <= INDETERMINATE_CEILING[family], indeterminate


def test_detpoly_lines_subset_is_never_notlines():
    # every input is a union of lines, so a notlines verdict is wrong; the
    # ceiling is the count measured at n = 36 (2 of 6) and n = 48 (5 of 6)
    records = list(answers_module().detpoly_lines({"helpers": helpers, "projspec": projspec}, ns=(36, 48)))
    assert len(records) == 12 + 56
    assert [key for key, value in records if getattr(value, "is_lines", None) is False] == []
    indeterminate = [key for key, value in records if isinstance(value, BaseException)]
    assert len(indeterminate) <= 7, indeterminate


# Exceptions of the riesz family's non-normal copies per kind over rounds
# 0-2, as measured: lemma34_solver's z ramp does not settle on any of them
# (NoConvergence, 6 per round). No normal record may raise.
RIESZ_ROUNDS = 3
RIESZ_NONNORMAL_CEILING = {"lemma34_solver": 6 * RIESZ_ROUNDS}


def test_riesz_family_admits_every_normal_contour(monkeypatch):
    # the benchmark's own contours: a margin refusal of a normal A there
    # would be a false one
    monkeypatch.syspath_prepend(str(Path(helpers.__file__).resolve().parent.parent / "perfbench"))
    env = {"helpers": helpers, "projspec": projspec, "bench": importlib.import_module("bench_workloads")}
    records = list(answers_module().riesz(env, rounds=RIESZ_ROUNDS))
    # 6 sizes, 4 kinds, a normal and a non-normal record each
    assert len(records) == 48 * RIESZ_ROUNDS
    raised = collections.Counter(
        (key.split()[-1], key.split()[4]) for key, value in records if isinstance(value, BaseException)
    )
    assert [kind for (copy, kind) in raised if copy == "normal"] == []
    for (copy, kind), count in raised.items():
        assert count <= RIESZ_NONNORMAL_CEILING.get(kind, 0), (kind, count)


# Runs of the contract family per subcommand in Tier-1 (the script runs 100),
# and the breaks of the CLI contract allowed among them.
CONTRACT_RUNS = 10
CONTRACT_BREAK_CEILING = 0


def test_contract_family_keeps_the_cli_contract():
    answers = answers_module()
    records = list(answers.contract({"projspec": projspec}, count=CONTRACT_RUNS))
    assert len(records) == CONTRACT_RUNS * len(answers.CONTRACT_SUBCOMMANDS)
    breaks = {key: answers.contract_breaks(record) for key, record in records}
    broken = {key: found for key, found in breaks.items() if found}
    assert len(broken) <= CONTRACT_BREAK_CEILING, broken


def test_family_flag_takes_several_names_and_repeats(monkeypatch, capsys):
    # main puts the checkout's directories on sys.path; keep ours
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert answers_module().main(["--family", "formats", "edges", "--family", "formats"]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["formats", "edges", "formats", "all"]
