"""Public-API surface tests: exports, version, and the documentation
quality gate (every public item carries a docstring)."""

import importlib
import inspect
import pkgutil


import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.7.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_entry_points(self):
        assert callable(repro.synthesize)
        assert callable(repro.parse)
        assert callable(repro.to_string)
        result = repro.synthesize(repro.Spec(["0"], ["1"]))
        assert result.found

    def test_subpackage_all_resolve(self):
        for module_name in ("repro.regex", "repro.semiring", "repro.language",
                            "repro.core", "repro.baselines", "repro.suites",
                            "repro.eval"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), "%s.%s" % (module_name, name)


def _public_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            module.__name__
            for module in _public_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_every_public_class_and_function_is_documented(self):
        undocumented = []
        for module in _public_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-exports are documented at their source
                if not (obj.__doc__ or "").strip():
                    undocumented.append("%s.%s" % (module.__name__, name))
        assert undocumented == []

    def test_public_methods_are_documented(self):
        undocumented = []
        for module in _public_modules():
            for cls_name, cls in vars(module).items():
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if getattr(cls, "__module__", None) != module.__name__:
                    continue
                for meth_name, meth in vars(cls).items():
                    if meth_name.startswith("_"):
                        continue
                    if not inspect.isfunction(meth):
                        continue
                    if (meth.__doc__ or "").strip():
                        continue
                    # Overrides inherit the documentation of the method
                    # they implement (e.g. concrete semirings implement
                    # the documented Semiring.add/mul contract).
                    inherited = any(
                        (getattr(base, meth_name, None) is not None
                         and (getattr(base, meth_name).__doc__ or "").strip())
                        for base in cls.__mro__[1:]
                    )
                    if not inherited:
                        undocumented.append(
                            "%s.%s.%s" % (module.__name__, cls_name, meth_name)
                        )
        assert undocumented == []
