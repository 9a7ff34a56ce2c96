"""The README's library quick start and config example work as written."""

import contextlib
import io
import json
import pathlib
import re

import pytest

from weakmeas.cli import ExperimentConfig

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def fenced(lang):
    """The README's one fenced block of the given language."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)
    assert len(blocks) == 1, lang
    return blocks[0]


def test_quick_start_prints_what_its_comments_say():
    code = fenced("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = [float(v) for v in out.getvalue().split()]
    # each print's comment opens with the value it prints ("~0" is 0)
    claimed = [float(c.lstrip("~"))
               for c in re.findall(r"^print\(.*\)\s+# (\S+)", code, re.M)]
    assert len(printed) == len(claimed) == 5
    assert printed == pytest.approx(claimed, abs=1e-9)


def test_config_example_parses():
    cfg = ExperimentConfig.from_dict(json.loads(fenced("json")))
    assert cfg.scenario == "weak-value"
    assert cfg.meter.rho == 50.0
