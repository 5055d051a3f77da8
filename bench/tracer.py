"""Span tracer that instruments leibnil from outside.

`Tracer.install` replaces every module binding of each public leibnil function
with a timing wrapper, so a name copied by `from .algebra import bracket` into
`series`, `search` and `terms` is traced as well. Scalar field methods are
patched on the field classes and only counted, because they run millions of
times per pass. Spans (name, start, end, parent, item) are kept in compact
arrays while the benchmark runs; the per-layer metrics are computed from them
afterwards, and `dump` writes them out.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("fields", "linalg", "algebra", "series", "search", "terms", "files", "cli")
FIELD_METHODS = ("add", "sub", "mul", "neg", "div", "from_int", "parse", "format", "random")

# Small functions called so often (some recursively, once per tree node) that
# a span would cost more than the call: counted under the named counter instead.
COUNT_ONLY = {
    "linalg.zero_vector": "linalg.calls",
    "linalg.basis_vector": "linalg.calls",
    "terms.as_right_word": "terms.trees_visited",
    "terms.potential": "terms.potential",
    "terms.leaves": "terms.leaves",
}

IDENTITY = ("algebra.verify_right_leibniz", "algebra.is_right_leibniz",
            "algebra.verify_left_leibniz")
IDEAL = ("algebra.IdealHandle.__post_init__", "algebra.ideal_closure",
         "algebra.squares_ideal", "algebra.es_of")
SERIES_STEPS = ("right_powers", "left_powers", "general_powers", "strong_filtration",
                "bk_chain", "es_nil_index")
SERIES_WORK = tuple(f"series.{s}" for s in SERIES_STEPS) + (
    "series.right_translates", "series.left_translates")
REPORT = ("files.profile_report", "files.dump_report", "files.write_report")

PER_LAYER_UNITS = {
    "fields.ops": "count",
    "linalg.calls": "count",
    "linalg.rows_in": "count",
    "linalg.self_s": "s",
    "algebra.bracket.calls": "count",
    "algebra.bracket.self_s": "s",
    "algebra.subspace_product.calls": "count",
    "algebra.subspace_product.self_s": "s",
    "algebra.subspace_product.repeat_ratio": "ratio",
    "algebra.identity_s": "s",
    "algebra.ideal_s": "s",
    **{f"series.{s}.s": "s" for s in SERIES_STEPS},
    "series.inclusions.s": "s",
    "series.discarded_s": "s",
    "series.inclusions.recompute_s": "s",
    "search.unique_ratio": "ratio",
    "search.valid_ratio": "ratio",
    "search.invalid_s": "s",
    "search.valid_s": "s",
    "terms.normalize.s": "s",
    "terms.trees_visited": "count",
    "terms.words_out": "count",
    "terms.evaluate.s": "s",
    "files.load_s": "s",
    "files.report_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _public_functions(module):
    """(name, function) for the public functions a leibnil module defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or not callable(obj) or inspect.isgeneratorfunction(obj):
            continue
        yield name, obj


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.item = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_item = -1
        self.counts = dict.fromkeys(
            ("fields.ops", "linalg.rows_in", "products.repeat", "terms.words_out",
             "search.valid_s", "search.invalid_s", *COUNT_ONLY.values()), 0)
        self._products_seen: set = set()
        self.never_items: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_item(self, item_id: int) -> None:
        """Start a new item: spans get its id and product repeats reset."""
        self.current_item = item_id
        self._products_seen = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, span_name: str, fn, post=None):
        nid = self._id(span_name)
        names, items, parents, starts, ends = (self.name, self.item, self.parent,
                                               self.start, self.end)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            items.append(tracer.current_item)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                post(args, result, t1 - t0)
            return result

        wrapper.__wrapped__ = fn
        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for counts measured at a layer boundary --------------------

    def _rows_span(self, args, result, _dt):
        self.counts["linalg.rows_in"] += len(args[0])

    def _rows_pair(self, args, result, _dt):
        self.counts["linalg.rows_in"] += args[0].dim + args[1].dim

    def _product_seen(self, args, result, _dt):
        key = (args[0], args[1])
        if key in self._products_seen:
            self.counts["products.repeat"] += 1
        else:
            self._products_seen.add(key)

    def _candidate_done(self, args, result, dt):
        self.counts["search.invalid_s" if result is None else "search.valid_s"] += dt

    def _words_out(self, args, result, _dt):
        self.counts["terms.words_out"] += len(result.terms)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public leibnil function at each of its module bindings."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "leibnil" or name.startswith("leibnil.")}
        hooks = {
            "linalg.span": self._rows_span,
            "linalg.subspace_sum": self._rows_pair,
            "linalg.subspace_intersect": self._rows_pair,
            "algebra.subspace_product": self._product_seen,
            "search.analyze_candidate": self._candidate_done,
            "terms.normalize": self._words_out,
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[f"leibnil.{layer}"]
            for name, fn in _public_functions(module):
                span_name = f"{layer}.{name}"
                if span_name in COUNT_ONLY:
                    wrappers[id(fn)] = self._count_wrapper(COUNT_ONLY[span_name], fn)
                else:
                    wrappers[id(fn)] = self._span_wrapper(span_name, fn,
                                                          hooks.get(span_name))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

        algebra, fields = modules["leibnil.algebra"], modules["leibnil.fields"]
        handle = algebra.IdealHandle
        self._patch_attr(handle, "__post_init__", self._span_wrapper(
            "algebra.IdealHandle.__post_init__", handle.__post_init__))
        for cls in (fields.RationalField, fields.PrimeField):
            for method in FIELD_METHODS:
                self._patch_attr(cls, method,
                                 self._count_wrapper("fields.ops", vars(cls)[method]))

    def _patch_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------

    def per_layer(self, passes: int, untraced_wall_s: float, traced_wall_s: float,
                  search_reports: list[dict]) -> dict[str, float]:
        """Per-layer metrics per traced pass, computed from the recorded spans."""
        n = len(self.name)
        names, parents, items = self.name, self.parent, self.item
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        ids = {nm: i for i, nm in enumerate(self.names)}

        def id_set(group):
            return {ids[g] for g in group if g in ids}

        def outermost(group) -> float:
            """Time covered by spans in `group`, not counting nested ones twice."""
            members = id_set(group)
            inside = bytearray(n)
            total = 0.0
            for i in range(n):
                p = parents[i]
                inside[i] = p >= 0 and (inside[p] or names[p] in members)
                if names[i] in members and not inside[i]:
                    total += dur[i]
            return total

        def inclusive(name: str) -> float:
            nid = ids.get(name)
            return sum(d for k, d in zip(names, dur) if k == nid)

        def calls(name: str) -> int:
            nid = ids.get(name)
            return sum(1 for k in names if k == nid)

        def self_time(pred) -> float:
            members = {i for i, nm in enumerate(self.names) if pred(nm)}
            return sum(dur[i] - child[i] for i in range(n) if names[i] in members)

        # series work whose nearest series-layer ancestor is the inclusion check
        series_ids = {i for i, layer in enumerate(layer_of) if layer == "series"}
        work_ids, incl_id = id_set(SERIES_WORK), ids.get("series.verify_paper_inclusions")
        nearest = array("i", [-1]) * n
        recompute = 0.0
        for i in range(n):
            p = parents[i]
            if p >= 0:
                nearest[i] = names[p] if names[p] in series_ids else nearest[p]
            if names[i] in work_ids and nearest[i] == incl_id and incl_id is not None:
                recompute += dur[i]

        compute_id = ids.get("series.compute_series")
        discard_ids = id_set(("series.general_powers", "series.strong_filtration"))
        discarded = sum(dur[i] for i in range(n)
                        if names[i] in discard_ids and items[i] in self.never_items
                        and parents[i] >= 0 and names[parents[i]] == compute_id)

        product_calls = calls("algebra.subspace_product")
        candidates = sum(r["candidates"] for r in search_reports)
        unique = sum(r["unique_candidates"] for r in search_reports)
        valid = sum(r["valid"] for r in search_reports)
        linalg_ids = {i for i, layer in enumerate(layer_of) if layer == "linalg"}
        c = self.counts
        totals = {
            "fields.ops": c["fields.ops"],
            "linalg.calls": sum(1 for k in names if k in linalg_ids) + c["linalg.calls"],
            "linalg.rows_in": c["linalg.rows_in"],
            "linalg.self_s": self_time(lambda nm: nm.startswith("linalg.")),
            "algebra.bracket.calls": calls("algebra.bracket"),
            "algebra.bracket.self_s": self_time(lambda nm: nm == "algebra.bracket"),
            "algebra.subspace_product.calls": product_calls,
            "algebra.subspace_product.self_s":
                self_time(lambda nm: nm == "algebra.subspace_product"),
            "algebra.identity_s": outermost(IDENTITY),
            "algebra.ideal_s": outermost(IDEAL),
            **{f"series.{s}.s": inclusive(f"series.{s}") for s in SERIES_STEPS},
            "series.inclusions.s": inclusive("series.verify_paper_inclusions"),
            "series.discarded_s": discarded,
            "series.inclusions.recompute_s": recompute,
            "search.invalid_s": c["search.invalid_s"],
            "search.valid_s": c["search.valid_s"],
            "terms.normalize.s": inclusive("terms.normalize"),
            "terms.trees_visited": c["terms.trees_visited"],
            "terms.words_out": c["terms.words_out"],
            "terms.evaluate.s": inclusive("terms.evaluate"),
            "files.load_s": outermost(("files.load_algebra_file",)),
            "files.report_s": outermost(REPORT),
            "cli.self_s": self_time(lambda nm: nm.startswith("cli.")),
        }
        metrics = {name: value / passes for name, value in totals.items()}
        metrics["algebra.subspace_product.repeat_ratio"] = \
            c["products.repeat"] / product_calls if product_calls else 0.0
        metrics["search.unique_ratio"] = unique / candidates if candidates else 0.0
        metrics["search.valid_ratio"] = valid / unique if unique else 0.0
        metrics["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
        return metrics

    def dump(self, stem: Path) -> None:
        """Write the spans: `<stem>.json` describes the arrays in `<stem>.bin`."""
        columns = [("name", self.name), ("item", self.item), ("parent", self.parent),
                   ("start", self.start), ("end", self.end)]
        header = {"spans": len(self.name), "names": self.names,
                  "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
                  "byteorder": sys.byteorder}
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as out:
            for _, arr in columns:
                arr.tofile(out)


def load_spans(stem: Path) -> dict[str, array]:
    """Read spans written by `Tracer.dump`; the inverse of that method."""
    header = json.loads(stem.with_suffix(".json").read_text())
    columns = {}
    with open(stem.with_suffix(".bin"), "rb") as src:
        for col, typecode, _ in header["columns"]:
            arr = array(typecode)
            arr.fromfile(src, header["spans"])
            columns[col] = arr
    columns["names"] = header["names"]
    return columns
