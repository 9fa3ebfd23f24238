"""The README runs and documents what the package does: the library quick
start and the minimal manifest run as printed, the quick start shows what
it claims, and the CLI flags it lists are the ones the CLI takes."""

import argparse
import re
from pathlib import Path

from tamperscan import fit_width, score_counties
from tamperscan.cli import _parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_the_three_most_anomalous_counties(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    lines = capsys.readouterr().out.splitlines()
    resid = namespace["resid"]
    top = score_counties(resid, fit_width(resid))[:3]
    assert [line.rsplit(" ", 2)[0] for line in lines] == [s.key.name for s in top]


def test_common_flags_name_every_subcommand_option():
    """README's "Common flags" names exactly the long options every
    subcommand takes besides --manifest and --help."""
    (paragraph,) = re.findall(r"^Common flags:.*?(?=\n\n)", README.read_text(), re.S | re.M)
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    (subparsers,) = (
        a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in subparsers.choices.items():
        options = {
            opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")
        }
        assert options - {"--manifest", "--help"} == documented, name


def test_minimal_manifest_runs_as_printed(tmp_path, monkeypatch):
    """The README's minimal manifest needs nothing else: synth writes the
    dataset where fit, blind and sweep read it."""
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    (tmp_path / "run.ini").write_text(block)
    monkeypatch.chdir(tmp_path)
    for command in ("synth", "fit", "blind", "sweep"):
        assert main([command, "--manifest", "run.ini"]) == 0, command
    assert (tmp_path / "out" / "sweep_GA.csv").exists()
