"""``np``: the ``numpy`` of ``sys.modules``, executed on first use.

If numpy is not imported yet, an unexecuted numpy module is registered in
``sys.modules``, so ``import numpy``, ``import numpy.random`` and any other
library that imports numpy get this same object. Its first attribute
access, by any of them, executes numpy; from then on it is an ordinary
module and attribute access costs nothing extra. ``replay`` never touches
it, so it never pays numpy's import.

The first access holds a lock until numpy has executed, so a second thread
that touches numpy meanwhile waits for a whole module (as Python 3.12's
``importlib.util.LazyLoader`` does; 3.11's takes no lock).
"""

import importlib.util
import sys
import threading
import types

_LOCK = threading.RLock()
_executing = False


class _LazyModule(types.ModuleType):
    def __getattribute__(self, attr):
        global _executing
        with _LOCK:
            # while numpy executes, its own accesses (same thread) pass through
            if type(self) is _LazyModule and not _executing:
                _executing = True
                try:
                    spec = types.ModuleType.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _executing = False
        return types.ModuleType.__getattribute__(self, attr)


def _lazy_numpy() -> types.ModuleType:
    module = sys.modules.get("numpy")
    if module is None:
        spec = importlib.util.find_spec("numpy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        module = importlib.util.module_from_spec(spec)
        module.__class__ = _LazyModule
        sys.modules["numpy"] = module
    return module


np = _lazy_numpy()
