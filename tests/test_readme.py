"""The README's "Library use" examples run as written, and the formats it states are current."""

import pathlib
import re

from clusterseg.cli import main
from clusterseg.dataset import DATASET_FORMAT, SEGMENTATION_FORMAT

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


def _stated_format(manifest, whose):
    """Every format README states for `manifest` and for a `whose` ... `format` is missing.

    README states the dataset and the segmentation format twice each, and
    no format elsewhere.
    """
    text = README.read_text(encoding="utf-8")
    assert len(re.findall(r'"format": \d+|`format` is missing or not \d+', text)) == 4
    return [int(n) for n in
            re.findall(rf'`{manifest}` \(the manifest: `"format": (\d+)`', text)
            + re.findall(rf"{whose} whose\s+`format` is missing or not (\d+)", text)]


def test_the_stated_dataset_format_is_the_current_one():
    assert _stated_format("dataset.json", "A dataset") == [DATASET_FORMAT] * 2


def test_the_stated_segmentation_format_is_the_current_one():
    assert _stated_format("segs.json", "a `segs.json`") == [SEGMENTATION_FORMAT] * 2
