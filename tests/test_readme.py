"""The README's list of public names is the package's ``__all__``, its
library quick start runs as its comments say, and its documented CLI
pipeline runs, rebuilding its truth rather than parsing it."""

import re
import shlex
from pathlib import Path

import svls
from svls import cli, matio

README = Path(__file__).resolve().parents[1] / "README.md"
LEAD = "The public names are those in `svls.__all__`:"


def readme_public_names():
    """The backquoted names of the README paragraph that lists ``__all__``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(LEAD) + len(LEAD)
    paragraph = text[start : text.index("\n\n", start)]
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", paragraph)


def test_readme_lists_exactly_the_public_names():
    names = readme_public_names()
    assert len(names) == len(set(names)), "a name is listed twice"
    assert sorted(names) == sorted(svls.__all__)


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library quick start")) + len("```python\n")
    namespace = {}
    exec(compile(text[start : text.index("```", start)], "README.md", "exec"), namespace)
    error, shapes = capsys.readouterr().out.splitlines()
    # what the block's comments promise
    assert float(error) < 1e-10
    assert shapes == "(50, 3) (50, 3)"
    assert namespace["x_hat"].shape == (50, 50)


PIPELINE = ("gen-matrix", "gen-design", "measure", "recover")


def readme_pipeline():
    """The argv of each documented ``svls gen-matrix → gen-design → measure
    → recover`` line of the README's "CLI pipelines" block."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```", text.index("## CLI pipelines"))
    block = text[start + 3 : text.index("```", start + 3)]
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    return [argv[1:] for argv in lines if argv[0] == "svls" and argv[1] in PIPELINE]


def test_readme_pipeline_runs_on_the_certified_truth(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    truths, parsed = [], []
    read_truth, read_matrix = matio.read_truth, matio.read_matrix
    monkeypatch.setattr(matio, "read_truth", lambda p: truths.append(p) or read_truth(p))
    monkeypatch.setattr(matio, "read_matrix", lambda p: parsed.append(p) or read_matrix(p))
    steps = readme_pipeline()
    assert [argv[0] for argv in steps] == list(PIPELINE)
    for argv in steps:
        assert cli.main(argv) == 0, argv
    # measure --x and recover --truth each rebuild the gen-matrix truth
    x = steps[0][steps[0].index("--out") + 1]
    assert truths == [x, x]
    assert Path(x) not in parsed
