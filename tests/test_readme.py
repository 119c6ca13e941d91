"""The README's examples, run as written: a drifted example fails here."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from witnesslab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_block(section: str, lang: str) -> list[str]:
    """The lines of the first ```lang block under the '## section' heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return body.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


def _cli_examples() -> list[tuple[str, str]]:
    """(command, output) for each `witnesslab ...` line followed by `# ...` lines."""
    examples, lines = [], _code_block("CLI", "sh")
    for i, line in enumerate(lines):
        if line.startswith("witnesslab "):
            output = []
            for follow in lines[i + 1 :]:
                if not follow.startswith("# "):
                    break
                output.append(follow[2:] + "\n")
            if output:
                examples.append((line, "".join(output)))
    return examples


def _library_examples() -> tuple[str, list[tuple[str, str]]]:
    """The block's imports, and (expression, repr) for each expression line:
    the repr is the first word of its trailing comment, or the whole
    comment line that follows it."""
    lines = _code_block("Library", "python")
    source = "\n".join(lines)
    imports, examples = [], []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(ast.get_source_segment(source, node))
            continue
        expr = ast.get_source_segment(source, node)
        comment = lines[node.end_lineno - 1][node.end_col_offset :].strip()
        if comment.startswith("#"):
            examples.append((expr, re.match(r"#\s*([^\s,]+)", comment).group(1)))
        elif lines[node.end_lineno].startswith("# "):
            examples.append((expr, lines[node.end_lineno][2:]))
    return "\n".join(imports), examples


CLI_EXAMPLES = _cli_examples()


def test_the_readme_has_examples_to_check():
    assert [command for command, _ in CLI_EXAMPLES] == [
        "witnesslab test 341 --seed 5",
        "witnesslab count 35 --ell fixed:3",
    ]
    assert len(_library_examples()[1]) == 6


@pytest.mark.parametrize("command,output", CLI_EXAMPLES, ids=[command for command, _ in CLI_EXAMPLES])
def test_readme_cli_example(command, output, capsys, monkeypatch):
    monkeypatch.delenv("WITNESSLAB_SEED", raising=False)
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == output


def test_readme_library_examples():
    imports, examples = _library_examples()
    namespace = {}
    exec(imports, namespace)
    for expr, expected in examples:
        assert repr(eval(expr, namespace)) == expected, expr
