"""The README's Library example runs against the current public API, and its
flags are the CLI parser's."""

import re
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


def test_readme_names_every_flag_of_the_parser_and_no_other():
    # a flag deleted from the parser cannot stay documented, nor a new one
    # go undocumented; pip's own flags are no concern of the parser
    flag = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
    text = "\n".join(line for line in README.read_text().splitlines()
                     if "pip install" not in line)
    assert set(flag.findall(text)) == set(flag.findall(cli._build_parser().format_help()))
