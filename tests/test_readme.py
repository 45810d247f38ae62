"""The README's library example runs as written, and its exit-code table
holds the codes the error classes declare."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from socbench import cli, errors
from socbench.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--profile", "random", "--duration", "299",
                 "--sample-period-s", "1.0", "--out", "mix.csv"]) == 0
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["soc_pred"].shape == (300,)
    assert np.isfinite(namespace["soc_pred"]).all()


EXIT_CODES = {
    errors.SocBenchError: 1,
    errors.IngestionError: 1,
    errors.DataError: 1,
    errors.ConfigError: 2,
    errors.InputError: 2,
    errors.NumericError: 3,
    errors.TrainingDivergedError: 3,
    errors.ModelMismatchError: 4,
}


def test_exit_codes_of_the_error_classes_and_the_readme_table():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SocBenchError)}
    assert {cls: cls.exit_code for cls in classes} == EXIT_CODES
    section = README.read_text(encoding="utf-8").split("\n## Exit codes\n")[1]
    table = section.split("\n## ")[0]
    codes = {int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)}
    assert codes == {0, *EXIT_CODES.values(), cli.EXIT_INTERRUPTED}


@pytest.mark.parametrize("cls", [*EXIT_CODES, OSError], ids=lambda cls: cls.__name__)
def test_main_exits_with_the_code_of_the_error(monkeypatch, capsys, cls):
    error = cls("failed")

    def fail(cfg):
        raise error

    _, schema, summary = cli.COMMANDS["generate"]
    monkeypatch.setitem(cli.COMMANDS, "generate", (fail, schema, summary))
    assert main(["generate", "--profile", "random", "--duration", "1",
                 "--out", "x.csv"]) == EXIT_CODES.get(cls, 1)
    assert capsys.readouterr().err == f"error: {error}\n"
