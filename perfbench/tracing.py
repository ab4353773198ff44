"""Span tracing and step timing for weightgen, applied from outside the package.

``Tracer.install()`` replaces the public functions of the traced modules,
and the public methods of the classes they define, with wrappers that
record spans in memory. A function that one module imports from another
with ``from ... import`` is wrapped under every name it is bound to, so a
call through ``generator.quantize_codes`` is seen as well as one through
``quantize.quantize_codes``. ``Tracer.remove()`` restores every original.

Each span is ``[name, start, end, parent, run_id, amount]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span or -1,
``run_id`` the operation the span belongs to, and ``amount`` a work count
computed from the call's argument shapes (GFLOP for ``tensor.matmul``, MB
for ``tensor.im2col`` and ``dataio.load_idx``), 0 elsewhere.

Layer forward and backward spans are named by role rather than class:
``nn.conv0.fwd``, ``nn.gconv1.bwd``, ``nn.bn.fwd``, ``nn.other.bwd``. The
network passed to ``training.train`` as ``teacher`` runs its forward as
``nn.teacher_fwd`` and its layers as ``nn.teacher.<role>.<fwd|bwd>``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import weakref

TRACED_MODULES = ("nn", "tensor", "generator", "quantize", "training", "optim",
                  "explorer", "dataio", "factorfile", "cli")
PACKAGE = "weightgen"
_LAYER_METHODS = {"forward": "fwd", "backward": "bwd"}


def _matmul_gflop(a, b, *_, **__):
    shape_a, shape_b = getattr(a, "shape", ()), getattr(b, "shape", ())
    if len(shape_a) != 2 or len(shape_b) != 2:
        return 0.0
    return 2.0 * shape_a[0] * shape_a[1] * shape_b[1] / 1e9


def _im2col_mb(x, k, stride=1, pad=0, *_, **__):
    n, c, h, w = x.shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    return 8.0 * c * k * k * n * max(h_out, 0) * max(w_out, 0) / 1e6


def _file_mb(*paths, **_):
    return sum(os.path.getsize(p) for p in paths[:2]) / 1e6


AMOUNTS = {
    "tensor.matmul": _matmul_gflop,
    "tensor.im2col": _im2col_mb,
    "dataio.load_idx": _file_mb,
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def package_modules() -> dict:
    """The traced weightgen modules by short name; raises ImportError when
    the package is not importable."""
    return {short: importlib.import_module(f"{PACKAGE}.{short}") for short in TRACED_MODULES}


class Tracer:
    """Records spans around the package's public functions and methods."""

    def __init__(self, modules: dict):
        self.modules = {short: modules[short] for short in TRACED_MODULES}
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._labels = weakref.WeakKeyDictionary()
        self._teachers = weakref.WeakSet()

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        full_names = {f"{PACKAGE}.{short}": short for short in self.modules}
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if not _public(attr) or not inspect.isfunction(obj):
                    continue
                home = full_names.get(obj.__module__)
                if home is None or inspect.isgeneratorfunction(obj):
                    continue
                if obj not in wrappers:
                    name = f"{home}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, name, AMOUNTS.get(name))
                self._patch(module, attr, wrappers[obj])
        nn = self.modules["nn"]
        for short, module in self.modules.items():
            for cls_name, cls in list(vars(module).items()):
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                is_layer = issubclass(cls, nn.Layer) and cls is not nn.Sequential
                for attr, obj in list(vars(cls).items()):
                    if not _public(attr) or not inspect.isfunction(obj):
                        continue
                    if is_layer and attr in _LAYER_METHODS:
                        name = functools.partial(self._layer_span, _LAYER_METHODS[attr])
                    elif cls is nn.Sequential and attr == "forward":
                        name = self._sequential_span
                    else:
                        name = f"{short}.{cls_name}.{attr}"
                    self._patch(cls, attr, self._wrap(obj, name, None))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def installed_wrappers(self) -> list[str]:
        """Names of package attributes that are still tracer wrappers."""
        found = []
        for short, module in self.modules.items():
            owners = [(short, module)] + [
                (f"{short}.{n}", c) for n, c in vars(module).items()
                if inspect.isclass(c) and c.__module__ == module.__name__
            ]
            for prefix, owner in owners:
                for attr, obj in vars(owner).items():
                    if getattr(obj, "__traced__", False):
                        found.append(f"{prefix}.{attr}")
        return found

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, amount):
        tracer = self
        marks_teacher = name == "training.train"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if marks_teacher and kwargs.get("teacher") is not None:
                tracer.mark_teacher(kwargs["teacher"])
            span_name = name if isinstance(name, str) else name(args[0])
            parent = tracer._stack[-1] if tracer._stack else -1
            work = amount(*args, **kwargs) if amount is not None else 0.0
            span = [span_name, 0.0, 0.0, parent, tracer.run_id, work]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        wrapper.__traced__ = True
        return wrapper

    # -- layer roles --------------------------------------------------------

    def mark_teacher(self, model) -> None:
        """Name this network's forward and layers as the teacher's."""
        if model not in self._teachers:
            self._teachers.add(model)
            self._label_layers(model)

    def _label_layers(self, model) -> None:
        nn = self.modules["nn"]
        prefix = "teacher." if model in self._teachers else ""
        conv_index = 0
        for layer in model.layers:
            if isinstance(layer, nn.GeneratedConv2d):
                role = f"gconv{conv_index}"
                conv_index += 1
            elif isinstance(layer, nn.Conv2d):
                role = f"conv{conv_index}"
                conv_index += 1
            elif isinstance(layer, nn.BatchNorm2d):
                role = "bn"
            else:
                role = "other"
            self._labels[layer] = prefix + role

    def _sequential_span(self, model) -> str:
        if model.layers and model.layers[0] not in self._labels:
            self._label_layers(model)
        return "nn.teacher_fwd" if model in self._teachers else "nn.Sequential.forward"

    def _layer_span(self, suffix, layer) -> str:
        role = self._labels.get(layer, type(layer).__name__)
        return f"nn.{role}.{suffix}"

    # -- results --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "run_id", "amount"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per run id and span name: self seconds, inclusive seconds, calls and
    amount. Self time is the span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict = {}
    for i, (name, start, end, _, run_id, amount) in enumerate(spans):
        row = out.setdefault(run_id, {}).setdefault(
            name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "amount": 0.0})
        row["self_s"] += (end - start) - child_time[i]
        row["incl_s"] += end - start
        row["calls"] += 1
        row["amount"] += amount
    return out


class StepClock:
    """Timestamp-only hooks on ``training.kd_loss`` and ``training.evaluate``.

    ``train`` calls ``kd_loss`` once per mini-batch, so the time between
    successive calls is one whole stage-2 step: teacher and student
    forward, loss, backward, ``ortho_reg`` and the optimizer step.
    ``per_op`` holds one list of such intervals per operation, started by
    ``reset``. An evaluation between two calls drops that interval, so the
    samples never include evaluation.
    """

    def __init__(self, training_module):
        self.per_op: list[list[float]] = [[]]
        self._last = None
        kd_loss, evaluate = training_module.kd_loss, training_module.evaluate
        clock = self

        @functools.wraps(kd_loss)
        def timed_kd_loss(*args, **kwargs):
            now = time.perf_counter()
            if clock._last is not None:
                clock.per_op[-1].append(now - clock._last)
            clock._last = now
            return kd_loss(*args, **kwargs)

        @functools.wraps(evaluate)
        def marked_evaluate(*args, **kwargs):
            clock._last = None
            return evaluate(*args, **kwargs)

        timed_kd_loss.__traced__ = marked_evaluate.__traced__ = True
        self._patches = [(training_module, "kd_loss", kd_loss, timed_kd_loss),
                         (training_module, "evaluate", evaluate, marked_evaluate)]

    def reset(self) -> None:
        """Start the intervals of a new operation."""
        self._last = None
        self.per_op.append([])

    def __enter__(self):
        for owner, attr, _, hooked in self._patches:
            setattr(owner, attr, hooked)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        return False
