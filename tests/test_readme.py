"""README.md examples that must work as written."""

import os
import re
import shlex

import pytest

from copesim.cli import build_parser
from copesim.config import ExperimentConfig, parse_config

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks(lang):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def test_readme_ini_example_is_the_default_config():
    # the example claims to show every key at its default
    [ini] = _blocks("ini")
    assert parse_config(ini) == ExperimentConfig()


def _copesim_commands():
    """The arguments of every command line of README's sh blocks that calls
    copesim, without its trailing comment."""
    commands = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "copesim":
                commands.append(words[1:])
    return commands


def test_readme_copesim_commands_parse():
    # each copesim command README shows is one the CLI accepts as written;
    # they are parsed, not run
    commands = _copesim_commands()
    assert {argv[0] for argv in commands} >= {"run", "figures", "verify"}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"copesim {shlex.join(argv)} exits {exc.code}")


def test_readme_cites_only_bench_files_that_exist():
    with open(README, encoding="utf-8") as fh:
        cited = set(re.findall(r"BENCH_[\w-]+\.json", fh.read()))
    assert cited
    for name in sorted(cited):
        assert os.path.isfile(os.path.join(os.path.dirname(README), name)), \
            name
