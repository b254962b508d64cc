"""The README's library quick start runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_gradients_agree():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["dj_rev"] == pytest.approx(namespace["dj_fwd"], rel=1e-8)
