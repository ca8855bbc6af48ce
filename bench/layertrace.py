"""Outside-in layer trace: spans and counts recorded around calls into clinconv.

The tracer wraps public functions of the package at every place the program
looks them up: each ``clinconv`` module whose attribute is the original
function object gets the wrapper, so ``clinconv.pipeline.apply_filter`` and
``clinconv.cli.train_filter`` are both seen even though each module imported
the name for itself. Nothing in the package is edited. A name that no longer
exists is recorded as absent instead of failing the run.

Spans (name, start, end, parent) and counters are kept in memory. Self time
is a span's duration minus the durations of its direct children; calls run on
one thread and nest strictly, so the children never overlap.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# Each layer metric and the spans whose self time it sums. Span names are
# "<module>.<function>" as defined in clinconv; "cli.<subcommand>" spans come
# from clinconv.cli.main.
LAYER_SPANS: dict[str, tuple[str, ...]] = {
    "synth.generate_ms": ("synth.generate",),
    "annotations.derive_ms": (
        "annotations.derive_diagnosis_labels",
        "annotations.derive_ros_labels",
        "cli.derive-labels",
    ),
    "annotations.targets_ms": ("annotations.noteworthy_targets",),
    "features.tokenize_ms": ("features.tokenize",),
    "features.vocab_fit_ms": ("features.fit_vocabulary",),
    "features.transform_ms": (
        "features.tfidf_transform",
        "features.count_transform",
        "features.vectors_to_csr",
    ),
    "concepts.tag_ms": ("concepts.umls_noteworthy", "concepts.tag_utterance"),
    "filtering.train_ms": ("filtering.train_filter",),
    "filtering.score_ms": ("filtering.utterance_probabilities",),
    "filtering.select_ms": ("filtering.apply_filter",),
    "linear.filter_fit_ms": ("linear.train_logistic",),
    "linear.ovr_fit_ms": ("linear.train_ovr",),
    "linear.ovr_predict_ms": ("linear.ovr_proba_matrix",),
    "pipeline.train_ms": ("pipeline.train_pipeline",),
    "pipeline.run_ms": ("pipeline.run_pipeline",),
    "pipeline.save_ms": ("pipeline.save_pipeline",),
    "pipeline.load_ms": ("pipeline.load_pipeline",),
    "transcripts.load_ms": ("transcripts.load_transcripts",),
    "jsonio.sha256_ms": ("jsonio.sha256_file",),
    "cli.train_filter_ms": ("cli.train-filter",),
    "cli.train_ms": ("cli.train",),
    "cli.predict_ms": ("cli.predict",),
}

# Functions wrapped with a span: (defining module, attribute). Where the
# program looks a name up in only one module on purpose, that module is named
# as a third element. train_logistic is wrapped only where filter training
# looks it up; one-vs-rest heads are read from train_ovr's result instead.
SPAN_TARGETS: tuple[tuple[str, ...], ...] = (
    ("synth", "generate"),
    ("annotations", "derive_diagnosis_labels"),
    ("annotations", "derive_ros_labels"),
    ("annotations", "noteworthy_targets"),
    ("features", "tokenize"),
    ("features", "fit_vocabulary"),
    ("features", "tfidf_transform"),
    ("features", "count_transform"),
    ("features", "vectors_to_csr"),
    ("concepts", "umls_noteworthy"),
    ("concepts", "tag_utterance"),
    ("filtering", "train_filter"),
    ("filtering", "utterance_probabilities"),
    ("filtering", "apply_filter"),
    ("linear", "train_logistic", "filtering"),
    ("linear", "train_ovr"),
    ("linear", "ovr_proba_matrix"),
    ("pipeline", "train_pipeline"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "save_pipeline"),
    ("pipeline", "load_pipeline"),
    ("transcripts", "load_transcripts"),
    ("jsonio", "sha256_file"),
)

# Counted, not timed: calls of a method per phase.
COUNTED_METHODS: tuple[tuple[str, str, str], ...] = (("features", "Vocabulary", "idf"),)


@dataclass
class _Patch:
    owner: object
    attribute: str
    original: object


class Tracer:
    """Records nested spans and per-phase counters while installed."""

    def __init__(self, package_name: str = "clinconv") -> None:
        self.package_name = package_name
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.phase = "setup"
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self._patches: list[_Patch] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.phase][key] += amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[index] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, on_result: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def _modules(self) -> list[object]:
        prefix = self.package_name + "."
        return [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == self.package_name or key.startswith(prefix))
        ]

    def install(self, hooks: dict[str, Callable] | None = None) -> None:
        """Wrap every target at each module that holds it; record absent ones."""
        hooks = hooks or {}
        self.absent = []
        modules = self._modules()
        by_name = {module.__name__: module for module in modules}
        for target in SPAN_TARGETS:
            home, attribute = target[0], target[1]
            name = f"{home}.{attribute}"
            defining = by_name.get(f"{self.package_name}.{home}")
            original = getattr(defining, attribute, None) if defining else None
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            if len(target) > 2:
                sites = [by_name.get(f"{self.package_name}.{target[2]}")]
            else:
                sites = modules
            wrapper = self._wrap(name, original, hooks.get(name))
            patched = False
            for module in sites:
                if module is not None and getattr(module, attribute, None) is original:
                    self._patches.append(_Patch(module, attribute, original))
                    setattr(module, attribute, wrapper)
                    patched = True
            if not patched:
                self.absent.append(name)
        for home, class_name, method in COUNTED_METHODS:
            name = f"{home}.{class_name}.{method}"
            cls = getattr(by_name.get(f"{self.package_name}.{home}"), class_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                self.absent.append(name)
                continue

            def counted(*args, _original=original, _name=name, **kwargs):
                self.count(_name)
                return _original(*args, **kwargs)

            self._patches.append(_Patch(cls, method, original))
            setattr(cls, method, counted)
        cli = by_name.get(f"{self.package_name}.cli")
        main = getattr(cli, "main", None)
        if main is None:
            self.absent.append("cli.main")
        else:

            def traced_main(argv=None, _main=main):
                command = argv[0] if argv else "main"
                return self.call(f"cli.{command}", _main, argv)

            self._patches.append(_Patch(cli, "main", main))
            cli.main = traced_main

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attribute, patch.original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def self_times_ns(self, exclude: tuple[str, ...] = ("bench.check",)) -> dict[str, int]:
        """Total self time per span name, in nanoseconds.

        Spans under an ``exclude`` span (the benchmark's own checking) are left
        out, so layer times hold only the measured work.
        """
        n = len(self.span_start)
        excluded_ids = {self._name_ids[name] for name in exclude if name in self._name_ids}
        skipped = [False] * n
        child_ns = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            skipped[i] = self.span_name[i] in excluded_ids or (parent >= 0 and skipped[parent])
            if parent >= 0:
                child_ns[parent] += self.span_end[i] - self.span_start[i]
        totals: dict[str, int] = defaultdict(int)
        for i in range(n):
            if not skipped[i]:
                own = self.span_end[i] - self.span_start[i] - child_ns[i]
                totals[self.names[self.span_name[i]]] += own
        return dict(totals)

    def layer_ms(self) -> dict[str, float]:
        selfs = self.self_times_ns()
        return {
            metric: sum(selfs.get(name, 0) for name in names) / 1e6
            for metric, names in LAYER_SPANS.items()
        }

    def phase_count(self, phase: str, key: str) -> float:
        return self.counts.get(phase, {}).get(key, 0.0)

    def write(self, directory: str) -> str:
        """Write every span as TSV (gzip) and return the file path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "spans.tsv.gz")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\n")
            origin = self.span_start[0] if len(self.span_start) else 0
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i] - origin}"
                    f"\t{self.span_end[i] - origin}\t{self.span_parent[i]}\n"
                )
        return path
