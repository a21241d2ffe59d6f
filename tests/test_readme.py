"""README.md examples that must work as written."""

import json
import os
import re
import shlex

import pytest

from copesim.cli import build_parser
from copesim.config import ExperimentConfig, parse_config

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", _text(), re.M | re.S)


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
    cited = set(re.findall(r"BENCH_[\w-]+\.json", _text()))
    assert cited
    for name in sorted(cited):
        assert os.path.isfile(os.path.join(os.path.dirname(README), name)), \
            name


def test_readme_python_example_runs(capsys):
    # one line per (mechanism, N) cell, in the format the example prints
    [code] = _blocks("python")
    exec(compile(code, README, "exec"), {"__name__": "readme_example"})
    cells = [re.fullmatch(r"(\S+) +N=([ \d]\d)  [+-]\d\.\d{4} "
                          r"\(se \d\.\d{4}\)", line)
             for line in capsys.readouterr().out.splitlines()]
    assert all(cells)
    assert sorted((m[1], int(m[2])) for m in cells) == [
        ("centralized", 5), ("centralized", 10),
        ("cope-linear", 5), ("cope-linear", 10)]


def _bench(name):
    with open(os.path.join(os.path.dirname(README), name),
              encoding="utf-8") as fh:
        return json.load(fh)


def _quoted(value, quoted):
    """value rounded to as many decimals as quoted has."""
    decimals = len(quoted.partition(".")[2])
    return f"{value:.{decimals}f}"


def test_readme_times_are_the_cited_bench_files():
    # the headline walls: the sum, then each family
    text = _text()
    total, name, linear, quadratic = re.search(
        r"about ([\d.]+) seconds on one core.*?`(BENCH_[\w-]+\.json)`:\s+"
        r"linear family ([\d.]+) s, quadratic ([\d.]+) s", text, re.S).groups()
    head = _bench(name)["headline"]
    walls = head["linear"]["elapsed_s"], head["quadratic"]["elapsed_s"]
    assert _quoted(walls[0], linear) == linear
    assert _quoted(walls[1], quadratic) == quadratic
    assert _quoted(sum(walls), total) == total
    # the Tier-1 suite's wall, from pytest's summary line
    suite, name = re.search(r"whole suite ([\d.]+) s\s+\(`(BENCH_[\w-]+"
                            r"\.json)` records the suite\)", text).groups()
    summary = _bench(name)["tier1"]["summary"]
    wall = float(re.search(r" in ([\d.]+)s\b", summary)[1])
    assert _quoted(wall, suite) == suite
