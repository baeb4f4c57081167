"""Every function the benchmark's tracer wraps still exists under its name.

`perfbench.tracer.Tracer.patched` resolves each (module, attribute) of
`SITES` to `owner.__dict__[leaf]` and replaces it; a rename or removal in
`src/` would otherwise surface only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracer import SITES  # noqa: E402


@pytest.mark.parametrize("module_name, attr", [site[:2] for site in SITES])
def test_site_resolves_to_a_callable(module_name, attr):
    owner = importlib.import_module(module_name)
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert leaf in owner.__dict__, f"{module_name}.{attr} is gone"
    assert callable(owner.__dict__[leaf])
