"""In-memory spans around every call into the library's layers.

``Tracer.install`` replaces each public function of a layer module, and each
public method and ``__post_init__`` of the classes it defines, with a wrapper
that records one span per call.  Functions are replaced wherever a module of
the package binds them (``ncframe.stabilizer.so3c_from_spinor`` is the same
object as ``ncframe.group.so3c_from_spinor``), so calls between layers are
caught without editing the package.  ``uninstall`` restores the originals.

A span is ``(record, span_id, parent_id, name, layer, start_ns, end_ns,
raised, outermost)``; ``outermost`` is true when no enclosing span belongs to
the same layer, so summing those durations gives the layer's busy time
without double counting its internal calls.
"""

from __future__ import annotations

import enum
import functools
import sys
import time
from types import FunctionType

LAYERS = ("linalg", "group", "stabilizer", "factorization", "electrodynamics")
# Constructors whose __post_init__ re-validates a group element.
VALIDATING = ("SpinorElement", "ComplexRotation", "Lorentz4")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.record = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self._restore: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth[layer] += 1
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                spans.append((self.record, sid, parent, name, layer, start, end, raised,
                              depth[layer] == 0))

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n == "ncframe" or n.startswith("ncframe.")]
        for layer in LAYERS:
            module = sys.modules[f"ncframe.{layer}"]
            for name, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj.__module__ == module.__name__ \
                        and not name.startswith("_"):
                    wrapper = self._wrap(layer, f"{layer}.{name}", obj)
                    for mod in package:
                        for attr, value in list(vars(mod).items()):
                            if value is obj:
                                self._set(mod, attr, wrapper)
                elif isinstance(obj, type) and obj.__module__ == module.__name__ \
                        and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name != "__post_init__" and name.startswith("_"):
                continue
            span = f"{layer}.{cls.__name__}" if name == "__post_init__" else f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, FunctionType):
                self._set(cls, name, self._wrap(layer, span, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(layer, span, attr.__func__)))

    def take(self) -> list[tuple]:
        """Spans recorded so far; the tracer starts over empty."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def summarize(spans: list[tuple], records: int) -> dict:
    """Per-layer counts and times, per record, from one pass of spans."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s[2] >= 0:
            child_ns[s[2]] = child_ns.get(s[2], 0) + s[6] - s[5]
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    failed = dict.fromkeys(LAYERS, 0)
    validations = 0
    for _, sid, _, name, layer, start, end, raised, outermost in spans:
        calls[layer] += 1
        self_ns[layer] += end - start - child_ns.get(sid, 0)
        if outermost:
            busy[layer] += end - start
            failed[layer] += raised
        if name.rsplit(".", 1)[-1] in VALIDATING:
            validations += 1
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_record"] = calls[layer] / records
        out[f"{layer}.busy_us_per_record"] = busy[layer] / 1e3 / records
        out[f"{layer}.self_us_per_record"] = self_ns[layer] / 1e3 / records
        out[f"{layer}.failed"] = failed[layer]
    out["group.validations_per_record"] = validations / records
    return out


def write_spans(spans: list[tuple], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("record\tspan\tparent\tname\tstart_ns\tend_ns\traised\n")
        for rec, sid, parent, name, _, start, end, raised, _ in spans:
            fh.write(f"{rec}\t{sid}\t{parent}\t{name}\t{start}\t{end}\t{int(raised)}\n")
