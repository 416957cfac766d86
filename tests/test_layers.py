import importlib
import pkgutil

import pytest

import dipolemirror

# every module but the command-line front end and the exception classes is
# a layer that declares its public interface in __all__
LAYERS = sorted(info.name for info in pkgutil.iter_modules(dipolemirror.__path__)
                if info.name not in ("cli", "errors"))


def test_layers_are_found():
    assert {"focalfield", "modes", "polarimetry", "wavefront"} <= set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_public_functions_and_classes_are_exactly_all(name):
    module = importlib.import_module(f"dipolemirror.{name}")
    exported = set(module.__all__)
    assert all(hasattr(module, attr) for attr in exported)
    defined = {attr for attr, value in vars(module).items()
               if not attr.startswith("_") and callable(value)
               and getattr(value, "__module__", None) == module.__name__}
    assert defined == {attr for attr in exported if callable(getattr(module, attr))}
