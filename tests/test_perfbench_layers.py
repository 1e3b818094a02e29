"""The traced benchmark run's layer table resolves against the library.

``perfbench/layers.py`` names, per layer, the functions a traced run
(``python3 perfbench/run.py --trace 1``) wraps.  A table entry whose
function was renamed or deleted only fails when that run patches it, so
this test loads the module by path (perfbench is only read here, never
imported as a package) and enters and exits one :class:`LayerTracer`.
"""

import importlib.util

from repro.analysis.lint.engine import REPO_ROOT

LAYERS_PATH = REPO_ROOT / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers_under_test", LAYERS_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_table_name_patches_and_restores():
    layers = _load_layers()
    names = [
        (owner, name)
        for _layer, owner, attrs in layers.LAYER_TABLE
        for name in attrs
    ]
    before = {
        (id(owner), name): vars(layers._defining_owner(owner, name))[name]
        for owner, name in names
    }
    tracer = layers.LayerTracer()
    with tracer:
        assert len(tracer.sites) == len(names)
    for owner, name in names:
        current = vars(layers._defining_owner(owner, name))[name]
        assert current is before[(id(owner), name)], (owner, name)
