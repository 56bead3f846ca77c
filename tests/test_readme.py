"""README's library example runs as written, and its configuration table
states the defaults that ``PipelineConfig`` has."""

import re
from pathlib import Path

from contourcodec.config import _KEYS, PipelineConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    assert namespace["bits"] > 0


def test_configuration_table_states_the_defaults():
    section = README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\S+) \|", section, re.M)
    assert [key for key, _ in rows] == list(_KEYS)
    assert parse_config("".join(f"{key} = {default.strip('`')}\n" for key, default in rows)) == PipelineConfig()
