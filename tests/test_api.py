import importlib
import pkgutil

import epilex


def test_every_module_all_entry_resolves():
    # Tools that wrap the public functions walk ``__all__`` with getattr, so
    # a name left behind by a deletion must fail here, not there.
    for info in pkgutil.iter_modules(epilex.__path__):
        module = importlib.import_module(f"epilex.{info.name}")
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), info.name
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (info.name, missing)
