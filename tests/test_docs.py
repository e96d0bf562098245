"""The `>>>` examples of README.md and of the package docstring run as
written."""

import doctest
from pathlib import Path

import skewfrac

README = Path(__file__).resolve().parents[1] / "README.md"


def _failures(text: str, name: str, filename: str) -> int:
    test = doctest.DocTestParser().get_doctest(text, {}, name, filename, 0)
    assert test.examples, f"no examples found in {name}"
    return doctest.DocTestRunner().run(test).failed


def test_readme_examples():
    # Only the fenced blocks count.  Every other line, the fences
    # included, is blanked, so a closing fence ends an example's expected
    # output and line numbers in failure reports stay the README's.  The
    # blocks build on each other (t, HFRAC), so they share one namespace.
    lines, inside = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            inside = not inside
            line = ""
        lines.append(line if inside else "")
    assert _failures("\n".join(lines), "README.md", str(README)) == 0


def test_package_docstring_examples():
    assert _failures(skewfrac.__doc__, "skewfrac", skewfrac.__file__) == 0
