"""The package root exports what README documents, and nothing moved away from the tracer."""

import importlib
import importlib.util
import re
from pathlib import Path

import netbrain

ROOT = Path(__file__).resolve().parents[1]

# Names the package root no longer exports, by the module that defines them.
MODULE_ONLY = {
    "gen_er": "generators",
    "gen_ba": "generators",
    "gen_cm": "generators",
    "gen_ws": "generators",
    "gen_waxman": "generators",
    "gen_sbm": "generators",
    "sbm_intra_probability": "generators",
    "waxman_beta": "generators",
    "build_graph_reported": "graph",
    "is_connected": "graph",
}


def readme_library_names() -> dict[str, str]:
    """README's Library list: public name -> defining module."""
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library", 1)[1]
    names = {}
    for item in re.findall(r"^- `(netbrain[\w.]*)`: (.*?)(?=^\S|\Z)", library, re.M | re.S):
        module, listing = item
        for name in re.findall(r"`(\w+)`", listing):
            names[name] = module
    return names


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_surface_matches_readme_and_tracer():
    documented = readme_library_names()
    assert sorted(documented) == sorted(netbrain.__all__)
    assert len(set(netbrain.__all__)) == len(netbrain.__all__)
    for name, module in documented.items():
        assert getattr(importlib.import_module(module), name) is getattr(netbrain, name), name
    for name, module in MODULE_ONLY.items():
        assert name not in netbrain.__all__ and not hasattr(netbrain, name), name
        assert callable(getattr(importlib.import_module(f"netbrain.{module}"), name)), name
    # The tracer rebinds these by name, in the namespaces of their call sites.
    for module, func, sites in load_tracing().PATCHES:
        original = getattr(importlib.import_module(f"netbrain.{module}"), func)
        for site in sites:
            assert getattr(importlib.import_module(f"netbrain.{site}"), func) is original, (site, func)
