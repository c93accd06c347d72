"""The README's examples run as written.

The "Library sketch" block is executed, and every ``optoepr`` line of the
"Command line" block goes through ``optoepr.cli.main`` with its ``--out``
file in a temporary directory; ``[--numeric]`` stands for both variants.
"""

import pathlib
import shlex

import pytest

from optoepr import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(heading, language):
    """The first ``language`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def commands():
    for line in block("Command line", "sh").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] != ["optoepr"]:
            continue
        if "[--numeric]" in words:
            words.remove("[--numeric]")
            yield words + ["--numeric"]
        yield words


COMMANDS = list(commands())


def test_every_command_is_found():
    assert [argv[1] for argv in COMMANDS] == ["derive", "optimum", "optimum", "spectrum", "sweep",
                                              "verify", "occupation"]


def test_library_sketch_runs():
    exec(compile(block("Library sketch", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[1:]))
def test_command_line_example_exits_0(argv, tmp_path, capsys):
    argv = [str(tmp_path / word) if before == "--out" else word
            for before, word in zip([None] + argv, argv)]
    assert cli.main(argv[1:]) == 0
