import importlib

import blindid

SUBMODULES = ("bounds", "cli", "ensembles", "lifting", "mc", "recovery", "spectral")


def test_every_exported_name_resolves():
    # each name a submodule lists in __all__ exists, and the package, which
    # has no __all__ of its own, star-exports only names that some
    # submodule lists; so a deleted name cannot leave a stale export
    listed = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"blindid.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)
        listed.update(module.__all__)
    exported = {}
    exec("from blindid import *", exported)
    public = {name for name in exported if not name.startswith("_")}
    assert public - set(SUBMODULES) <= listed, public - set(SUBMODULES) - listed
    assert all(getattr(blindid, name) is exported[name] for name in public)
