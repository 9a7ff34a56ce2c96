"""Every demo script still runs against the current API."""

import pathlib
import runpy

import pytest

from weakmeas import meters

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_reads_meters_through_their_calls(path, capsys, monkeypatch):
    # no dense P or G is built, and no matrix is read off an operator
    def refuse(*args):
        raise AssertionError("a demo built a dense grid operator")

    monkeypatch.setattr(meters, "_momentum_matrix", refuse)
    assert ".entries" not in path.read_text()
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
