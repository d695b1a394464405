"""The claim path covers the package: the ``claim-path`` entries of
``tests/commands.py``, README and CI commands and invalid inputs, run
in-process, enter every module-level function of vltower and every method,
static or class method and property getter of its classes.  A function that
only tests call belongs next to the tests, in ``tests/references.py``.

Arithmetic dunders (``__add__``, ``__sub__``, ``__neg__``, ``__mul__``,
``__pow__`` and their reflections) are traced like any method: they are code
a claim may or may not run, and the Laurent ring operators left the package
for the references when no claim did.  Protocol dunders (equality, hashing,
``__repr__``, ``__str__``, ``__post_init__``) are not traced, since a value type
keeps them whether or not a claim prints or compares it; methods a dataclass
generates have no source of their own (their code lives in "<string>") and
are not traced either."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import vltower
from commands import tagged
from vltower.cli import main
from vltower.laurent import LaurentPoly

COMMANDS = [(entry.argv, entry.code) for entry in tagged("claim-path")]

ARITHMETIC = {"__neg__"} | {f"__{r}{op}__" for op in ("add", "sub", "mul", "pow") for r in ("", "r")}


def _method_functions(prefix, cls):
    for name, attr in vars(cls).items():
        if name.startswith("__") and name.endswith("__") and name not in ARITHMETIC:
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


def _missed_by_claim_path():
    """The names of the package functions that no claim-path command enters."""
    functions = _module_functions()
    codes = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.extend(main(argv) for argv, _ in COMMANDS)

    entered = _entered_while(run)
    assert codes == [code for _, code in COMMANDS]
    return {name for name, f in functions.items() if f.__code__ not in entered}


def test_claim_path_enters_every_module_level_function():
    assert _missed_by_claim_path() == set(), "only tests call these"


def _stub_add(self, other):
    return self


def test_claim_path_check_names_a_planted_operator(monkeypatch):
    monkeypatch.setattr(LaurentPoly, "__add__", _stub_add, raising=False)
    assert _missed_by_claim_path() == {"laurent.LaurentPoly.__add__"}
