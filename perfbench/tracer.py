"""Per-layer tracing of heisaut by wrapping its public functions from outside.

Each layer is one module of the package: ``kernels`` (the active arithmetic
backend, ``_kernels`` or ``_speedups``), ``heis``, ``gl2``, ``aut``,
``cocycles``, ``zlattice``, ``verify`` and ``cli``.  ``Tracer.install``
replaces every public module-level function, the public and arithmetic
methods of each class, and every dataclass ``__post_init__`` with a wrapper
that opens a span.  Names that other modules bound with ``from ... import``
(``cocycles.compose``, ``cocycles.act``, ``cocycles.kernel_basis``, ...)
point at the same function object, so they are rebound to the same wrapper.

Spans are aggregated as they close instead of being kept, so a long run
needs constant memory: a span's self time is its duration minus the
durations of its direct children, summed per layer.  Time inside the traced
interval that no top-level span covers is ``unattributed``; by construction
the layer self times plus that remainder add up to the traced wall time,
and ``Tracer.metrics`` checks it.
"""

from __future__ import annotations

import time
import types
from collections import Counter, defaultdict

LIBRARY = ("kernels", "heis", "gl2", "aut", "cocycles", "zlattice")
LAYERS = LIBRARY + ("verify", "cli")

# methods wrapped besides public ones; other dunders (the dataclass
# __init__/__eq__/__hash__) stay untraced and count toward their caller
_OPERATORS = ("__mul__", "__pow__", "__add__", "__sub__", "__neg__", "__call__")

# validations counted by cocycles.revalidation_share, and the library
# functions that exist to validate outside input (their validations are
# the boundary, not waste)
_VALIDATED = ("Cocycle", "SectionOnGenerators")
_BOUNDARY = frozenset({
    "cocycles.validate_cocycle", "cocycles.parse_cocycle",
    "cocycles.parse_section", "aut.parse_automorphism",
})

SUITE_PREFIX = "verify.suite."


class Tracer:
    """Counts and times calls into each layer while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self._stack: list[list] = []  # [layer, key, child seconds]
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.wall_s = 0.0           # traced intervals, summed
        self.top_s = 0.0            # top-level span durations, summed
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()      # per layer, functions and methods
        self.values: Counter = Counter()     # per layer, __post_init__ runs
        self.check_s: dict[str, float] = defaultdict(float)
        self.key_calls: Counter = Counter()  # per qualified name
        self.key_s: dict[str, float] = defaultdict(float)  # inclusive time
        self.letters = 0            # letters of words returned by decompose
        self.operand_bits = 0       # summed over kernel integer operands
        self.operands = 0
        self.validations = 0
        self.revalidations = 0
        self.extra_s: dict[str, float] = defaultdict(float)  # cli child phases

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap the package's public callables in place; undo with uninstall."""
        import heisaut
        import heisaut.cli
        from heisaut import _backend

        modules = {
            "kernels": _backend.kernels,
            "heis": heisaut.heis,
            "gl2": heisaut.gl2,
            "aut": heisaut.aut,
            "cocycles": heisaut.cocycles,
            "zlattice": heisaut.zlattice,
            "verify": heisaut.verify,
            "cli": heisaut.cli,
        }
        originals: dict[int, object] = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if _defined_in(obj, mod) and _is_plain_function(obj):
                    wrapper = self._wrap(obj, layer, f"{layer}.{name}")
                    originals[id(obj)] = wrapper
                    self._patch(mod, name, wrapper)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        # rebind aliases made by `from ... import` in every package module
        for mod in [heisaut, _backend, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and callable(obj):
                    self._patch(mod, name, originals[id(obj)])
        return self

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()
        self.active = False

    def _patch(self, owner, name: str, new) -> None:
        old = vars(owner)[name]
        if old is new:
            return
        self._undo.append((owner, name, old))
        setattr(owner, name, new)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, obj in list(vars(cls).items()):
            if not _is_plain_function(obj):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if name == "__post_init__":
                self._patch(cls, name, self._wrap(obj, layer, key, check=cls.__name__))
            elif not name.startswith("_") or name in _OPERATORS:
                self._patch(cls, name, self._wrap(obj, layer, key))

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str, check: str | None = None):
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        is_kernel = layer == "kernels"
        is_suite = key == "verify.run_suite"
        counts_letters = key == "gl2.decompose"
        validated = check in _VALIDATED

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_kernel:
                if stack and stack[-1][0] == "kernels":
                    # a kernel calling a kernel is one call from outside
                    return fn(*args, **kwargs)
                for a in args:
                    tracer.operand_bits += a.bit_length()
                tracer.operands += len(args)
            parent = stack[-1] if stack else None
            frame = [layer, key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # no calls before the totals are consistent: this also runs
                # while a RecursionError unwinds at the depth limit
                dur = clock() - start
                stack.pop()
                tracer.self_s[layer] += dur - frame[2]
                if parent is None:
                    tracer.top_s += dur
                else:
                    parent[2] += dur
                if check is None:
                    tracer.calls[layer] += 1
                    tracer.key_calls[key] += 1
                    tracer.key_s[key] += dur
                    if is_suite:
                        tracer.key_s[SUITE_PREFIX + args[0]] += dur
                else:
                    tracer.values[layer] += 1
                    tracer.check_s[layer] += dur
                    if validated:
                        tracer.validations += 1
                        if (parent is not None and parent[0] in LIBRARY
                                and parent[1] not in _BOUNDARY):
                            tracer.revalidations += 1
            if counts_letters:
                tracer.letters += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def call(self, fn, op):
        """fn(op) as one traced interval: (result or the exception, seconds)."""
        if self._stack:
            raise RuntimeError("call() made inside an open span")
        self.active = True
        start = time.perf_counter()
        try:
            out = fn(op)
        except Exception as exc:  # the caller counts it as a failed operation
            out = exc
        elapsed = time.perf_counter() - start
        self.active = False
        self.wall_s += elapsed
        return out, elapsed

    # -- aggregation across processes --------------------------------------

    def snapshot(self) -> dict:
        """Plain-data totals, for sending from a child process."""
        return {
            "wall_s": self.wall_s, "top_s": self.top_s,
            "self_s": dict(self.self_s), "calls": dict(self.calls),
            "values": dict(self.values), "check_s": dict(self.check_s),
            "key_calls": dict(self.key_calls), "key_s": dict(self.key_s),
            "letters": self.letters, "operand_bits": self.operand_bits,
            "operands": self.operands, "validations": self.validations,
            "revalidations": self.revalidations,
        }

    def merge(self, snap: dict) -> None:
        """Add a child's snapshot; its wall time is not added (the parent
        timed the whole child process itself)."""
        self.top_s += snap["top_s"]
        for name in ("self_s", "check_s", "key_s"):
            target = getattr(self, name)
            for k, v in snap[name].items():
                target[k] += v
        for name in ("calls", "values", "key_calls"):
            getattr(self, name).update(snap[name])
        for name in ("letters", "operand_bits", "operands", "validations",
                     "revalidations"):
            setattr(self, name, getattr(self, name) + snap[name])

    # -- metrics ------------------------------------------------------------

    def metrics(self, suites, cli_calls: int = 0) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json.

        ``extra_s`` holds cli child phases (interpreter start and import)
        timed by the parent; they belong to the cli layer's self time.
        """
        extra = sum(self.extra_s.values())
        self_s = dict(self.self_s)
        self_s["cli"] = self_s.get("cli", 0.0) + extra
        # every span's self time is its duration less its children's, so the
        # layer self times must sum to the top-level span time
        if abs(sum(self_s.values()) - self.top_s - extra) > 1e-6 * max(self.wall_s, 1.0):
            raise AssertionError("layer self times do not add up to the span time")
        unattributed = self.wall_s - sum(self_s.values())
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = self.calls.get(layer, 0)
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m["kernels.operand_bits"] = self.operand_bits / self.operands if self.operands else 0.0
        for layer in ("heis", "gl2", "aut"):
            m[f"{layer}.values"] = self.values.get(layer, 0)
            m[f"{layer}.check_s"] = self.check_s.get(layer, 0.0)
        kc, ks = self.key_calls, self.key_s
        m["gl2.decompose.calls"] = kc.get("gl2.decompose", 0)
        m["gl2.decompose.letters"] = self.letters
        m["gl2.decompose.s"] = ks.get("gl2.decompose", 0.0)
        m["aut.section.calls"] = kc.get("aut.section", 0)
        m["aut.section.s"] = ks.get("aut.section", 0.0)
        m["aut.compose.calls"] = kc.get("aut.compose", 0)
        m["cocycles.validations"] = self.validations
        m["cocycles.extend.s"] = ks.get("cocycles.extend", 0.0)
        m["cocycles.revalidation_share"] = (
            self.revalidations / self.validations if self.validations else 0.0)
        for suite in suites:
            m[f"verify.{suite}.s"] = ks.get(SUITE_PREFIX + suite, 0.0)
        per_call = 1 / cli_calls if cli_calls else 0.0
        m["cli.interpreter_s"] = self.extra_s.get("interpreter", 0.0) * per_call
        m["cli.import_s"] = self.extra_s.get("import", 0.0) * per_call
        m["cli.main_s"] = ks.get("cli.main", 0.0) * per_call
        m["trace.wall_s"] = self.wall_s
        m["trace.unattributed_s"] = unattributed
        return m


def _defined_in(obj, mod) -> bool:
    return getattr(obj, "__module__", None) == mod.__name__


def _is_plain_function(obj) -> bool:
    # Python functions, and compiled kernels (builtin or Cython functions)
    return isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)) or (
        type(obj).__name__ == "cython_function_or_method")
