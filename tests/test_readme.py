"""The README's Python examples run as written and print what they promise."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_quick_start_and_dp_cross_check_run():
    blocks = python_blocks()
    assert len(blocks) == 2   # quick start, DP cross-check
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert abs(namespace["res"].value.value - 1.0 / (2.0 * math.log(2.0))) <= 2e-3
    assert namespace["surface"].value_near(1.0, 1.0).is_finite
