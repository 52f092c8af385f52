"""Callers hold no engine-selection logic (the refactor's invariant).

``advisor.py``, ``__main__.py``, ``service/budget.py`` and
``service/runner.py`` are thin over the planner: they build a
:class:`~repro.engine.problem.Problem`, call ``plan_and_run``, and
render the result.  Any direct core-engine call or method-literal
branching in them is a regression — this test greps for the patterns
that the refactor removed.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

THIN_CALLERS = [
    SRC / "advisor.py",
    SRC / "__main__.py",
    SRC / "service" / "budget.py",
    SRC / "service" / "runner.py",
]

#: Method-literal dispatch, which belongs in repro/engine/ only.
METHOD_DISPATCH = [
    r"""method\s*==\s*["'](exact|montecarlo|symbolic|bruteforce)["']""",
    r"""\.method\s+in\s*\(""",
]

#: Direct engine entry points and method-literal dispatch, none of which
#: belong outside repro/engine/ and repro/core/.
FORBIDDEN = [
    r"\bric_exact\s*\(",
    r"\bric_montecarlo\s*\(",
    r"\binf_k_symbolic\s*\(",
    r"\binf_k_bruteforce\s*\(",
    r"from\s+repro\.core\.measure\s+import",
    r"from\s+repro\.core\.symbolic\s+import",
    r"from\s+repro\.core\.bruteforce\s+import",
] + METHOD_DISPATCH


def strip_comments_and_docstrings(text: str) -> str:
    text = re.sub(r'"""[\s\S]*?"""', "", text)
    text = re.sub(r"'''[\s\S]*?'''", "", text)
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


@pytest.mark.parametrize(
    "path", THIN_CALLERS, ids=[p.name for p in THIN_CALLERS]
)
def test_caller_contains_no_engine_dispatch(path):
    code = strip_comments_and_docstrings(path.read_text(encoding="utf-8"))
    violations = [
        pattern for pattern in FORBIDDEN if re.search(pattern, code)
    ]
    assert not violations, (
        f"{path.relative_to(SRC.parent.parent)} still dispatches engines "
        f"directly: {violations}"
    )


def test_callers_import_the_planner_not_the_engines():
    # The positive side of the invariant: each thin caller reaches the
    # engines only through repro.engine.
    for path in (SRC / "advisor.py", SRC / "service" / "runner.py"):
        code = path.read_text(encoding="utf-8")
        assert "from repro.engine import" in code, path


def test_only_the_engine_package_dispatches_on_method_names():
    # One method dispatcher: the planner.  No other module, the core
    # measure API included, branches on method strings.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "engine":
            continue
        code = strip_comments_and_docstrings(path.read_text(encoding="utf-8"))
        if any(re.search(pattern, code) for pattern in METHOD_DISPATCH):
            offenders.append(str(path.relative_to(SRC)))
    assert not offenders, f"method dispatch outside repro.engine: {offenders}"
