import re
import types
from pathlib import Path

import infoflow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_exactly_the_public_names():
    namespace = {}
    exec("from infoflow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(infoflow.__all__)
    public = {
        name
        for name, value in vars(infoflow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(infoflow.__all__)


def test_readme_public_api_section_lists_exactly_all():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    # The bulleted list names the public API; prose after it may name
    # module-level helpers.
    bullets = section[section.index("\n* "):].split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`", bullets)
    assert sorted(listed) == sorted(infoflow.__all__)
    assert len(listed) == len(set(listed))
