"""Every name a module exports resolves, and the package and its metadata
name one version."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dcbound

MODULES = ["dcbound"] + [f"dcbound.{m.name}"
                         for m in pkgutil.iter_modules(dcbound.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_version_matches_pyproject():
    # read with a pattern: Python 3.10 has no tomllib
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, re.M)
    assert declared == [dcbound.__version__]
