"""The claim path covers the package: the ``claim-path`` entries of
``tests/commands.py``, README and CI commands and invalid inputs, run
in-process, enter every module-level function of vltower and every method,
static or class method and property getter of its classes, except the
exemptions listed below, each with its reason.  A function that only tests
call belongs next to the tests.

Dunder methods are the type's protocol (ring operators, equality, hashing,
repr) and are not traced; methods a dataclass generates have no source of
their own (their code lives in "<string>") and are not traced either."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import vltower
from commands import tagged
from vltower.cli import main

COMMANDS = [(entry.argv, entry.code) for entry in tagged("claim-path")]

_COLIMIT = "the tower's own center colimit, which the witness does not check in yet"
EXEMPT = {
    "localization._check_stage": _COLIMIT,
    "localization.center_make": _COLIMIT,
    "localization.center_push": _COLIMIT,
    "localization.center_push_to": _COLIMIT,
    "localization.center_to_dyadic": _COLIMIT,
    "localization.center_eq": _COLIMIT,
    "groups.PhiData.p": _COLIMIT,
}


def _method_functions(prefix, cls):
    for name, attr in vars(cls).items():
        if name.startswith("__") and name.endswith("__"):
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        elif isinstance(attr, property):
            attr = attr.fget
        if inspect.isfunction(attr) and attr.__code__.co_filename != "<string>":
            yield f"{prefix}.{name}", attr


def _module_functions():
    out = {}
    for info in pkgutil.iter_modules(vltower.__path__):
        module = importlib.import_module(f"vltower.{info.name}")
        for name, f in vars(module).items():
            if getattr(f, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(f):
                out[f"{info.name}.{name}"] = f
            elif inspect.isclass(f):
                out.update(_method_functions(f"{info.name}.{name}", f))
    return out


def _entered_while(fn):
    """Code objects entered while fn runs, seen through sys.setprofile; an
    outer profile function is put back afterwards."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(record)
    try:
        fn()
    finally:
        sys.setprofile(outer)
    return seen


def test_claim_path_enters_every_module_level_function():
    functions = _module_functions()
    assert set(EXEMPT) <= set(functions), "an exemption names no function"
    codes = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.extend(main(argv) for argv, _ in COMMANDS)

    entered = _entered_while(run)
    assert codes == [code for _, code in COMMANDS]
    missed = {name for name, f in functions.items() if f.__code__ not in entered}
    assert missed - set(EXEMPT) == set(), "only tests call these"
    assert set(EXEMPT) - missed == set(), "these exemptions are now on the claim path"
