"""README.md examples that must work as written."""

import os
import re

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
