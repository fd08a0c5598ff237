"""Outside-in span tracer for the seven qshape modules.

It wraps every public function of each module, in every ``qshape.*``
namespace that binds it (functions imported by name, such as
``certified_sup`` in ``tester`` and ``qsvt``, are wrapped there too), plus
``BlockEnc.__post_init__`` on the class.  Each wrapped call is one span;
a span's self time is its duration minus the durations of the spans it
encloses.  Nothing inside the program changes: uninstalling restores every
original object, and reports are the same bytes either way.

The program is single-threaded, so one span stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("poly", "blockenc", "qsvt", "estimate", "tester", "oracle", "cli")

# compositions of encodings, counted together as blockenc.compose
COMPOSE = ("product", "lcu", "scale_down", "amplify", "tensor")


def _dense_validate(args):
    return "blockenc.dense_validate" if np.ndim(args[0].data) == 2 else None


def _dense_transform(args):
    return "qsvt.transform.dense" if not args[0].is_diagonal else None


def _dense_eigensolve(args):
    return "estimate.dense_eigensolve" if not args[0].is_diagonal else None


# extra counters that look at a call's arguments
_TAGS = {
    "blockenc.validate": _dense_validate,
    "qsvt.transform": _dense_transform,
    "estimate.largest_eigenvalue": _dense_eigensolve,
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Per-span-name call counts and self times, accumulated over every
    install/uninstall cycle of one instance."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        tag = _TAGS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tag is not None:
                extra = tag(args)
                if extra is not None:
                    calls[extra] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[label] += 1
                self_s[label] += dt - child
                if stack:
                    stack[-1] += dt

        return span

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("qshape")
        modules = {layer: importlib.import_module(f"qshape.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])
        block_enc = modules["blockenc"].BlockEnc
        original = block_enc.__dict__["__post_init__"]
        self._restore.append((block_enc, "__post_init__", original))
        block_enc.__post_init__ = self._wrap("blockenc.validate", original)

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, value = self._restore.pop()
            setattr(namespace, attr, value)
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def layer_metrics(self, problems: int) -> dict[str, float]:
        """The per-layer metrics, each per traced problem."""
        per = 1.0 / problems
        ms = 1000.0 * per
        c, s = self.calls, self.self_s
        return {
            "poly.self_ms": self.layer_self_s("poly") * ms,
            "poly.certified_sup.calls": c["poly.certified_sup"] * per,
            "poly.certified_sup.self_ms": s["poly.certified_sup"] * ms,
            "blockenc.self_ms": self.layer_self_s("blockenc") * ms,
            "blockenc.validate.calls": c["blockenc.validate"] * per,
            "blockenc.validate.self_ms": s["blockenc.validate"] * ms,
            "blockenc.dense_validate.calls": c["blockenc.dense_validate"] * per,
            "blockenc.compose.calls": sum(c[f"blockenc.{n}"] for n in COMPOSE) * per,
            "qsvt.self_ms": self.layer_self_s("qsvt") * ms,
            "qsvt.transform.calls": c["qsvt.transform"] * per,
            "qsvt.transform.dense.calls": c["qsvt.transform.dense"] * per,
            "estimate.self_ms": self.layer_self_s("estimate") * ms,
            "estimate.dense_eigensolve.calls": c["estimate.dense_eigensolve"] * per,
            "tester.self_ms": self.layer_self_s("tester") * ms,
            "tester.build_M3.calls": c["tester.build_M3"] * per,
            "oracle.self_ms": self.layer_self_s("oracle") * ms,
            "oracle.calls": (c["oracle.oracle_convex"] + c["oracle.oracle_monotone"]) * per,
            "cli.self_ms": self.layer_self_s("cli") * ms,
        }
