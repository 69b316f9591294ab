import importlib

import pytest


@pytest.mark.parametrize("module", ["market", "equilibrium", "sim", "auction", "replay"])
def test_every_name_in_all_exists_and_star_imports(module):
    # a name deleted from a module but left in its __all__ breaks
    # `import *` only when someone runs it; this runs it
    mod = importlib.import_module(f"ammauction.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from ammauction.{module} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(mod.__all__)
