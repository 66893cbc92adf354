"""The README's Library example runs against the current public API."""

import re
from pathlib import Path

import numpy as np

from wavekernel import gen_synthetic

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    series = gen_synthetic("markov_functional", 30, 12, 0.25, seed=1)
    scope = {"series": series}
    exec(compile(code, str(README), "exec"), scope)
    np.testing.assert_array_equal(scope["scores"], scope["same"])
    assert scope["band"].lower.shape == scope["result"].curve.shape == (12,)
