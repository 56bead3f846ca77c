"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    assert namespace["bits"] > 0
