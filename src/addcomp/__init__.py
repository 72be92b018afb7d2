"""Sparse additive complements on a finite horizon, built and verified exactly.

Given a base set A of naturals whose consecutive-element ratios stay above
some alpha > 1 from a point on, the library constructs a complement B
disjoint from A such that A + B covers everything past a computed
threshold, thins B greedily block by block, certifies the coverage by
exact sumset arithmetic, and profiles B's vanishing density.  Brute-force
oracles double-check every fast path at desk scale.
"""

import importlib

__version__ = "0.1.0"

#: The modules whose __all__ lists the package re-exports, in that order.
_MODULES = ("natset", "sequences", "cover", "greedy", "builder", "oracle", "errors")


def __getattr__(name):
    # Nothing is imported until a name is first asked for (PEP 562), so each
    # command loads only the modules it runs.
    if name == "__all__" or not name.startswith("_"):  # a private or dunder probe loads nothing
        mods = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
        # Each module's __all__ is the one list of its public names; the package re-exports them.
        exports = {n: getattr(mod, n) for mod in mods for n in mod.__all__}
        globals().update(exports, __all__=["__version__", *exports])
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*__getattr__("__all__"), *_MODULES]
