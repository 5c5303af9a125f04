"""CI gate: the public API surface must be documented.

Every module listed in ``PUBLIC_MODULES`` must carry a module docstring
and an ``__all__``; every name it exports must resolve, and every
exported function or class must have a non-trivial docstring.  For
classes, public methods and properties *defined by that class* (not
inherited, not dataclass machinery) must be documented too.

This is deliberately a test rather than a linter config: it runs in
tier-1 on every push, and adding a module to the public surface means
adding it here.
"""

import importlib
import inspect

import pytest

#: The documented public surface: the pipeline core, sweeps,
#: verification and the serving layer.
PUBLIC_MODULES = (
    "repro",
    "repro.pipeline",
    "repro.pipeline.config",
    "repro.pipeline.jobs",
    "repro.pipeline.stages",
    "repro.pipeline.store",
    "repro.sweep",
    "repro.sweep.grid",
    "repro.sweep.report",
    "repro.sweep.runner",
    "repro.verify",
    "repro.serve",
    "repro.serve.app",
    "repro.serve.http",
    "repro.serve.jobs",
    "repro.serve.protocol",
    "repro.serve.tasks",
)


def _documented(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


def _own_members(cls):
    """Public methods/properties defined by ``cls`` itself."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            yield name, member
        elif inspect.isfunction(member):
            yield name, member
        elif isinstance(member, (classmethod, staticmethod)):
            yield name, member.__func__


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_documented(module_name):
    module = importlib.import_module(module_name)
    assert _documented(module), f"{module_name} has no module docstring"
    assert hasattr(module, "__all__"), f"{module_name} defines no __all__"
    assert module.__all__, f"{module_name} exports an empty __all__"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_exported_names_documented(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name in module.__all__:
        assert hasattr(module, name), \
            f"{module_name}.__all__ names {name!r} but it does not exist"
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not _documented(obj):
                missing.append(f"{module_name}.{name}")
            if inspect.isclass(obj):
                for member_name, member in _own_members(obj):
                    if not _documented(member):
                        missing.append(
                            f"{module_name}.{name}.{member_name}")
    assert not missing, f"undocumented exported names: {missing}"
