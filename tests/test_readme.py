"""The README's "Library use" examples run as written, and the dataset format it states is gen's."""

import pathlib
import re

from clusterseg.cli import main
from clusterseg.dataset import DATASET_FORMAT

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_use_blocks():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_library_use_examples_print_a_perfect_ap(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--count", "2", "--res", "32x32", "--seed", "3", "--out", "ds"]) == 0
    assert main(["infer", "--dataset", "ds", "--out", "segs"]) == 0
    capsys.readouterr()
    blocks = _library_use_blocks()
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["1.0", "1.0"]


def test_the_stated_dataset_format_is_the_current_one():
    text = README.read_text(encoding="utf-8")
    stated = (re.findall(r'"format": (\d+)', text)
              + re.findall(r"`format` is missing or not (\d+)", text))
    assert len(stated) == 2
    assert {int(n) for n in stated} == {DATASET_FORMAT}
