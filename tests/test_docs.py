"""Docs job: the runnable snippets in ``docs/serving.md`` must execute.

Two layers, mirroring what the CI docs job runs:

* the Python snippets are doctests (``python -m doctest docs/serving.md``);
* every CLI command documented in a ```bash fence is smoke-run in-process
  through :func:`repro.cli.main`, with ``--requests 6`` appended so the
  documented flags are exercised on a tiny trace (argparse lets a later
  occurrence of an option override an earlier one).

A documented command that stops parsing, raises, or exits non-zero fails
the suite — broken examples cannot ship.
"""

import argparse
import doctest
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

DOCS = Path(__file__).resolve().parent.parent / "docs"
SERVING_MD = DOCS / "serving.md"
ARCHITECTURE_MD = DOCS / "ARCHITECTURE.md"
PERFORMANCE_MD = DOCS / "performance.md"
DEVELOPMENT_MD = DOCS / "development.md"
README = Path(__file__).resolve().parent.parent / "README.md"


def _documented_cli_commands():
    """CLI invocations inside ```bash fences of the serving-facing docs."""
    commands = []
    for doc in (SERVING_MD, PERFORMANCE_MD):
        text = doc.read_text()
        for fence in re.findall(r"```bash\n(.*?)```", text, flags=re.DOTALL):
            for line in fence.splitlines():
                line = line.strip()
                if line.startswith("PYTHONPATH=src python -m repro.cli"):
                    argv = shlex.split(line)[3:]  # drop env + python -m ...
                    commands.append(argv[1:])     # drop the module path
    return commands


def test_docs_exist_and_are_linked_from_readme():
    assert SERVING_MD.is_file()
    assert ARCHITECTURE_MD.is_file()
    assert PERFORMANCE_MD.is_file()
    readme = README.read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/serving.md" in readme
    assert "docs/performance.md" in readme


def test_performance_md_cross_links():
    """performance.md is reachable from the architecture overview and
    names the artifacts it cites, so the numbers stay auditable."""
    assert "performance.md" in ARCHITECTURE_MD.read_text()
    text = PERFORMANCE_MD.read_text()
    assert "BENCH_serving_perf.json" in text
    assert "test_bench_perf.py" in text
    assert "--metrics-mode streaming" in text


def test_serving_md_doctests():
    results = doctest.testfile(str(SERVING_MD), module_relative=False)
    assert results.attempted > 0
    assert results.failed == 0


def _serving_flags():
    """Every long option of the ``serve`` and ``sweep`` subcommands, read
    from the parser itself so a new flag cannot ship undocumented."""
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return sorted({option
                   for name in ("serve", "sweep")
                   for action in subcommands.choices[name]._actions
                   for option in action.option_strings
                   if option.startswith("--") and option != "--help"})


def test_serving_md_documents_every_serve_surface():
    """Every ``serve``/``sweep`` flag appears in the serving-facing docs
    (``serving.md``, ``performance.md``, ``development.md``)."""
    text = "".join(doc.read_text()
                   for doc in (SERVING_MD, PERFORMANCE_MD, DEVELOPMENT_MD))
    flags = _serving_flags()
    assert "--compare-router" in flags and "--grid" in flags
    missing = [flag for flag in flags if flag not in text]
    assert not missing, ("the serving-facing docs must document "
                         f"{', '.join(missing)}")


@pytest.mark.parametrize("argv", _documented_cli_commands(),
                         ids=lambda argv: " ".join(argv))
def test_documented_cli_commands_run(argv, capsys):
    assert argv[0] in ("serve", "sweep"), \
        "the serving-facing docs document the serve/sweep subcommands"
    exit_code = main(argv + ["--requests", "6"])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.err
    assert captured.out.strip(), "documented command printed nothing"


def test_documented_commands_were_found():
    """Guard the extractor itself: if the fences are reformatted and no
    commands are collected, the smoke test above would silently vanish."""
    assert len(_documented_cli_commands()) >= 5
