"""The public API takes no power k beside the values that fix it.

k is deg eta + 1 beside a cofactor eta and len(basis) beside a simple set, so
no public callable of ``qmap`` may take a parameter ``k`` together with one
named ``eta`` or ``basis``.
"""

import importlib
import inspect
import pkgutil

import qmap


def _public_callables():
    modules = [qmap] + [importlib.import_module(f"qmap.{m.name}") for m in pkgutil.iter_modules(qmap.__path__)]
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and callable(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def _parameters(fn):
    try:
        return set(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return set()


def test_the_walk_sees_the_lift_and_transport_api():
    names = {name for name, _ in _public_callables()}
    for expected in ("qmap.mapping.lift_functional", "qmap.stieltjes.acd_mapped", "qmap.classifier.descend_pearson"):
        assert expected in names


def test_no_public_callable_takes_k_beside_eta_or_basis():
    offenders = sorted(
        name for name, fn in _public_callables() if "k" in (params := _parameters(fn)) and params & {"eta", "basis"}
    )
    assert offenders == []
