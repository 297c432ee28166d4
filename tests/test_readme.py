"""The README's list of public names is the package's ``__all__``."""

import re
from pathlib import Path

import svls

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
