"""The README's Library example runs against the current public API, its CLI
examples run through ``cli.main``, and its flags are the CLI parser's."""

import re
import shlex
from pathlib import Path

import numpy as np

from wavekernel import cli, gen_synthetic

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    series = gen_synthetic("markov_functional", 30, 12, 0.25, seed=1)
    scope = {"series": series}
    exec(compile(code, str(README), "exec"), scope)
    np.testing.assert_array_equal(scope["scores"], scope["same"])
    assert scope["band"].lower.shape == scope["result"].curve.shape == (12,)


def test_cli_examples_run(tmp_path, monkeypatch):
    # each `wavekernel ...` line of the CLI block, continuations joined, on a
    # series.csv in a fresh directory; it must exit 0 and write the files the
    # README names: cv.csv and summary.json for cv, prediction.csv,
    # plotdata.csv and summary.json for the others
    block = re.search(r"```sh\n(.*?)```", README.read_text().split("## CLI", 1)[1],
                      re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("wavekernel ")]
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    cli.write_series("series.csv", gen_synthetic("seasonal_ar", 40, 12, 0.5, seed=1))
    for i, line in enumerate(lines):
        argv = shlex.split(line)[1:]
        argv[argv.index("--output-dir") + 1] = out = f"out{i}"
        assert cli.main(argv) == 0, line
        written = {"cv.csv"} if argv[0] == "cv" else {"prediction.csv", "plotdata.csv"}
        assert {p.name for p in Path(out).iterdir()} == written | {"summary.json"}, line


def test_readme_names_every_flag_of_the_parser_and_no_other():
    # a flag deleted from the parser cannot stay documented, nor a new one
    # go undocumented; pip's own flags are no concern of the parser
    flag = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
    text = "\n".join(line for line in README.read_text().splitlines()
                     if "pip install" not in line)
    assert set(flag.findall(text)) == set(flag.findall(cli._build_parser().format_help()))
