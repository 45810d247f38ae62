"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

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
