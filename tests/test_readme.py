"""Every ``rodbilliard`` example in README's sh blocks runs through
``cli_io.main`` with its documented exit code: 3 for the full stop, 0 for
every other line.  A ``> file`` redirect is dropped, the JSON example
must reload equal to ``simulate``'s record, and the full-stop example
must be a member of the full-stop set that ``first_impact`` calls
degenerate.  The python quick start runs as written and prints its
first row unchanged, and the package's line count is the one stated."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from rodbilliard import (DEGENERATE, SimConfig, first_impact,
                         in_degenerate_set, simulate)
from rodbilliard.cli_io import main, record_from_json

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv without the program name, the comment above it) per example."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        comment = ""
        for line in block.splitlines():
            if line.startswith("#"):
                comment = line
            elif line.startswith("rodbilliard "):
                line = re.sub(r"\s*>\s*\S+\s*$", "", line)
                examples.append((shlex.split(line)[1:], comment))
    return examples


EXAMPLES = readme_examples()


def test_examples_found():
    assert len(EXAMPLES) >= 6
    assert sum("full-stop" in comment for _, comment in EXAMPLES) == 1


@pytest.mark.parametrize("argv,comment", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, comment):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == (3 if "full-stop" in comment else 0)

    def flag(name):
        """The value of ``--name V`` or ``--name=V``."""
        for k, arg in enumerate(argv):
            if arg == name:
                return argv[k + 1]
            if arg.startswith(name + "="):
                return arg[len(name) + 1:]

    z0, v0 = (complex(*map(float, flag(name).split(",")))
              for name in ("--z0", "--v0"))
    if "full-stop" in comment:
        assert in_degenerate_set(z0, v0 - 1j * z0)[0]
        assert first_impact(z0, v0).kind == DEGENERATE
    if "json" in argv:
        record = simulate(z0, v0, SimConfig(n_max=int(flag("--n-max"))))
        assert record_from_json(out) == record


FIRST_ROW = ("ImpactEvent(n=1, t=0.8603335890193797, r=1.3191565048905178, "
             "zdot_in=(0.652184623909187-2.0772166715899907j), "
             "zdot_out=(0.652184623909187+2.0772166715899907j), "
             "kind='transversal')")


def test_library_quick_start():
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    lines = out.getvalue().splitlines()
    assert lines[0] == FIRST_ROW
    assert [line.split()[0] for line in lines[1:]] == ["100", "1000", "10000"]


def test_line_count_is_the_package_size():
    # "The package holds N lines." counts src/rodbilliard/*.py
    package = README.parent / "src" / "rodbilliard"
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in package.glob("*.py"))
    stated = re.findall(r"The package holds (\d+) lines\.",
                        README.read_text(encoding="utf-8"))
    assert stated == [str(lines)]
