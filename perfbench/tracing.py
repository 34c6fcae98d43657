"""In-memory spans and counters at the boundaries between qshift modules.

The tracer wraps, from outside the package, the names each qshift module
imports from another qshift module (``qshift.contrasts._cell_resample_matrices``,
``qshift.simulation.generate``, ...), plus a few module-internal steps whose
self time is a layer metric (the per-cell theta step in ``contrasts``, the
blocked difference step in ``pairwise``, the simulation iteration).  Nothing
in the package is edited: wrappers replace module attributes on
:meth:`Tracer.install` and the originals come back on
:meth:`Tracer.uninstall`.

A span is ``[name, start, end, parent_index, op_id]``; ``op_id`` groups the
spans of one benchmark operation (one CLI call or one sweep).  Simulation
pool workers are forked from the traced process, inherit the wrappers, and
write their spans to ``spool_dir`` after each chunk; :meth:`Tracer.collect`
merges them back.  Under a start method other than ``fork`` the workers run
unwrapped and only parent-side spans are recorded (``worker_spans`` says so).
"""

import functools
import glob
import json
import os
import time
import warnings
from collections import Counter, defaultdict

from workloads import METHODS

_now = time.perf_counter

_HD_CACHES = ("_hd_weights_cached", "_hd_weight_matrix")


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.owner = os.getpid()
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.peaks = {}
        self.op_id = 0
        self.reuse_keys = set()
        self.missing = []
        self.worker_spans = 0
        self._saved = []
        self._caches = {}
        self._flushes = 0
        self._cache_base = (0, 0)
        os.register_at_fork(after_in_child=self._after_fork)

    # --- recording -------------------------------------------------------

    def _after_fork(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.peaks = {}
        self.reuse_keys = set()
        self._flushes = 0
        self._cache_base = self.hd_cache_info()

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def begin(self, name: str):
        parent = self.stack[-1] if self.stack else None
        rec = [name, _now(), 0.0, parent, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[2] = _now()
        self.stack.pop()
        return rec[2] - rec[1]

    def operation(self, name: str, fn, *args, **kwargs):
        """Run one benchmark operation as a root span."""
        self.op_id += 1
        rec = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(rec)

    def wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.end(rec)
            if count is not None:
                count(tracer, args, kwargs, result, dur)
            return result

        return wrapper

    def flush_worker(self):
        """Write a forked worker's spans and counts to the spool directory."""
        if os.getpid() == self.owner or not self.spans:
            return
        self._flushes += 1
        hits, misses = self.hd_cache_info()
        self.counts["hd_weight_hits"] += hits - self._cache_base[0]
        self.counts["hd_weight_misses"] += misses - self._cache_base[1]
        self._cache_base = (hits, misses)
        self.counts["bootstrap.resample_distinct"] += len(self.reuse_keys)
        self.reuse_keys = set()
        path = os.path.join(self.spool_dir, f"w-{os.getpid()}-{self._flushes}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "peaks": self.peaks}, fh)
        self.spans = []
        self.counts = Counter()
        self.peaks = {}

    def collect(self):
        """Merge spans and counts spooled by pool workers."""
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "w-*.json"))):
            with open(path, encoding="utf-8") as fh:
                blob = json.load(fh)
            os.remove(path)
            base = len(self.spans)
            for name, start, end, parent, _ in blob["spans"]:
                self.spans.append([name, start, end,
                                   None if parent is None else parent + base, -1])
            self.worker_spans += len(blob["spans"])
            self.counts.update(blob["counts"])
            for key, value in blob["peaks"].items():
                self.peak(key, value)

    def peak(self, key: str, value):
        self.peaks[key] = max(self.peaks.get(key, value), value)

    # --- patching --------------------------------------------------------

    def _patch(self, module, attr: str, make):
        """Replace ``module.attr`` with ``make(original)``; note it if absent."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _wrap_attr(self, module, attr: str, name: str, count=None):
        self._patch(module, attr, lambda original: self.wrap(original, name, count))

    def install(self):
        """Wrap every traced boundary of the imported ``qshift`` package."""
        from qshift import (bootstrap, cli, contrasts, data, pairwise, quantiles,
                            simulation)

        w = self._wrap_attr
        w(cli, "read_long_csv", "data.read", _count_rows)
        w(cli, "decinter", "contrasts.decinter")
        w(cli, "iband", "pairwise.iband")
        w(cli, "pairwise_differences", "pairwise.differences")
        w(cli, "ph_probability", "pairwise.ph")
        for mod in (cli, contrasts, pairwise):
            w(mod, "estimate_quantiles", "quantiles.estimator", _count_estimate)
        for mod in (contrasts, pairwise):
            w(mod, "_cell_resample_matrices", "bootstrap.resample", _count_resample)
            w(mod, "signed_pvalue", "bootstrap.reduce")
            w(mod, "percentile_ci", "bootstrap.reduce")
            w(mod, "adjust_pvalues", "multcomp")
        w(contrasts, "_from_sorted_rows", "quantiles.estimator", _count_rows_estimator)
        w(pairwise, "_from_sorted_rows", "quantiles.estimator", _count_block_estimator)
        w(contrasts, "_bootstrap_thetas", "contrasts.thetas", _count_sorted)
        w(pairwise, "_diff_quantiles_by_block", "pairwise.diff_quantiles", _count_diffs)
        w(bootstrap, "stream", "rng.stream")
        w(simulation, "stream", "rng.stream")
        w(simulation, "derive_seed", "rng.derive_seed")
        w(simulation, "generate", "distributions.generate", _count_generate)
        w(simulation, "contrast_pvalues", "contrasts.pvalues")
        w(simulation, "iband_pvalues", "pairwise.pvalues")
        w(simulation, "bh_reject", "multcomp")
        w(simulation, "hochberg_reject", "multcomp")
        w(simulation, "regularized_incomplete_beta", "quantiles.betainc")
        w(simulation, "anova_f_test", "simulation.anova")
        w(simulation, "_f_sf", "simulation.f_tail")
        w(simulation, "_iterate", "simulation.iteration", _count_iteration)
        w(simulation, "_run_chunk", "simulation.chunk", _flush_after_chunk)
        for mod in (data, simulation):
            self._patch(mod, "FactorialSample", lambda cls: _SampleBuilds(self, cls))
        self._patch(simulation, "ProcessPoolExecutor", lambda base: _traced_pool(self, base))
        # caches around timed originals, made once and kept across installs:
        # misses and build time come from the caches themselves, filled as
        # a user process would fill them
        for attr in _HD_CACHES:
            self._patch(quantiles, attr, lambda cached, attr=attr: self._timed_cache(attr, cached))

    def _timed_cache(self, attr: str, cached):
        if not hasattr(cached, "__wrapped__"):  # no longer a memo cache
            self.missing.append(f"qshift.quantiles.{attr} cache")
            return cached
        if attr not in self._caches:
            timed = self.wrap(cached.__wrapped__, "quantiles.hd_weight_build")
            maxsize = cached.cache_parameters()["maxsize"]
            self._caches[attr] = functools.lru_cache(maxsize=maxsize)(timed)
        return self._caches[attr]

    @staticmethod
    def hd_cache_info(caches=None):
        """Summed (hits, misses) of the given HD weight caches.

        By default, of the caches the package uses at this moment.
        """
        if caches is None:
            from qshift import quantiles
            caches = [getattr(quantiles, attr, None) for attr in _HD_CACHES]
        hits = misses = 0
        for cache in caches:
            if hasattr(cache, "cache_info"):
                hits += cache.cache_info().hits
                misses += cache.cache_info().misses
        return hits, misses

    def harvest_cache_stats(self):
        """Add the hits and misses of temporarily swapped-in caches.

        Call while the swapped caches are in place, before they are
        restored and their counts lost.
        """
        if self.installed:
            hits, misses = self.hd_cache_info()
            self.counts["hd_weight_hits"] += hits
            self.counts["hd_weight_misses"] += misses

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# --- counters at the boundaries ------------------------------------------

def _count_rows(tracer, args, kwargs, result, dur):
    sample, dropped = result
    tracer.counts["data.rows"] += sum(sum(r) for r in sample.sizes()) + dropped
    for cell in sample.flat_cells():
        _count_cell(tracer, cell)


def _count_cell(tracer, cell):
    tracer.counts["inputs.cells"] += 1
    if bool((cell == cell.round()).all()):
        tracer.counts["inputs.integer_cells"] += 1


def _count_estimate(tracer, args, kwargs, result, dur):
    tracer.counts["quantiles.estimator_rows"] += 1


def _count_rows_estimator(tracer, args, kwargs, result, dur):
    rows, quantiles, estimator = args[:3]
    tracer.counts["quantiles.estimator_rows"] += rows.shape[0]
    if estimator == "hd":
        tracer.counts["quantiles.hd_flops_computed"] += 2 * rows.size * len(quantiles)


def _count_block_estimator(tracer, args, kwargs, result, dur):
    _count_rows_estimator(tracer, args, kwargs, result, dur)
    tracer.counts["pairwise.blocks"] += 1
    tracer.peak("pairwise.block_scratch_bytes", args[0].nbytes)


def _count_resample(tracer, args, kwargs, result, dur):
    cells, config = args[:2]
    tracer.counts["bootstrap.resample_matrices"] += len(result)
    tracer.counts["bootstrap.resample_elements"] += sum(m.size for m in result)
    for i, m in enumerate(result):
        tracer.reuse_keys.add((tracer.op_id, os.getpid(), config.seed, i, m.shape))


def _count_sorted(tracer, args, kwargs, result, dur):
    data, config = args[:2]
    tracer.counts["contrasts.sorted_elements"] += sum(
        c.size for c in data.flat_cells()) * config.n_boot


def _count_diffs(tracer, args, kwargs, result, dur):
    mx, my = args[:2]
    tracer.counts["pairwise.diff_elements"] += mx.shape[0] * mx.shape[1] * my.shape[1]


def _count_generate(tracer, args, kwargs, result, dur):
    _count_cell(tracer, result)


def _count_iteration(tracer, args, kwargs, result, dur):
    method = args[0].method
    tracer.counts[f"iterations.{method}"] += 1
    tracer.counts[f"iteration_s.{method}"] += dur


def _flush_after_chunk(tracer, args, kwargs, result, dur):
    tracer.flush_worker()


class _SampleBuilds:
    """Stands in for ``FactorialSample`` in a module that builds samples.

    Times and counts each construction and counts the small-cell
    warnings it raises; returns the real ``FactorialSample``.
    """

    def __init__(self, tracer, cls):
        self._tracer = tracer
        self._cls = cls

    def _build(self, make, *args, **kwargs):
        tracer = self._tracer
        rec = tracer.begin("design.sample_build")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sample = make(*args, **kwargs)
        finally:
            tracer.end(rec)
        tracer.counts["design.small_n_warnings"] += sum(
            issubclass(w.category, UserWarning) for w in caught)
        return sample

    def __call__(self, *args, **kwargs):
        return self._build(self._cls, *args, **kwargs)

    def from_cells(self, *args, **kwargs):
        return self._build(self._cls.from_cells, *args, **kwargs)


def _traced_pool(tracer, base):
    class TracedPool(base):
        """Counts pools and times worker launch and shutdown."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.counts["simulation.pools_started"] += 1

        def _start_executor_manager_thread(self):
            rec = tracer.begin("simulation.pool_start")
            try:
                super()._start_executor_manager_thread()
            finally:
                tracer.end(rec)

        def shutdown(self, *args, **kwargs):
            rec = tracer.begin("simulation.pool_stop")
            try:
                super().shutdown(*args, **kwargs)
            finally:
                tracer.end(rec)

    return TracedPool


# --- per-layer metrics -----------------------------------------------------

def _outer_durations(spans):
    """Total time per span name, counting nested spans of one name once."""
    total = defaultdict(float)
    calls = Counter()
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        p = parent
        nested = False
        while p is not None:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total[name] += end - start
    return total, calls


def _self_times(spans):
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


# name -> (unit, better); the order is the print order
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "data.read_s": ("s", "lower"),
    "data.rows": ("count", "higher"),
    "rng.stream_calls": ("count", "lower"),
    "rng.stream_s": ("s", "lower"),
    "rng.derive_seed_calls": ("count", "lower"),
    "bootstrap.resample_s": ("s", "lower"),
    "bootstrap.resample_matrices": ("count", "lower"),
    "bootstrap.resample_elements": ("count", "lower"),
    "bootstrap.resample_reuse": ("ratio", "higher"),
    "bootstrap.reduce_s": ("s", "lower"),
    "bootstrap.reduce_calls": ("count", "lower"),
    "multcomp.s": ("s", "lower"),
    "multcomp.calls": ("count", "lower"),
    "contrasts.sort_s": ("s", "lower"),
    "contrasts.sorted_elements": ("count", "lower"),
    "quantiles.estimator_s": ("s", "lower"),
    "quantiles.estimator_calls": ("count", "lower"),
    "quantiles.estimator_rows": ("count", "lower"),
    "quantiles.hd_flops_computed": ("flop", "lower"),
    "quantiles.hd_weight_build_s": ("s", "lower"),
    "quantiles.hd_weight_misses": ("count", "lower"),
    "quantiles.hd_weight_hit_ratio": ("ratio", "higher"),
    "quantiles.betainc_s": ("s", "lower"),
    "quantiles.betainc_calls": ("count", "lower"),
    "simulation.anova_s": ("s", "lower"),
    "simulation.f_tail_s": ("s", "lower"),
    "pairwise.build_sort_s": ("s", "lower"),
    "pairwise.blocks": ("count", "lower"),
    "pairwise.diff_elements": ("count", "lower"),
    "pairwise.diff_bytes_computed": ("bytes", "lower"),
    "pairwise.block_scratch_bytes": ("bytes", "lower"),
    "distributions.generate_s": ("s", "lower"),
    "distributions.generate_calls": ("count", "lower"),
    "design.sample_builds": ("count", "lower"),
    "design.sample_build_s": ("s", "lower"),
    "design.small_n_warnings": ("count", "lower"),
    **{f"simulation.iteration_s.{m}": ("s", "lower") for m in METHODS},
    "simulation.pools_started": ("count", "lower"),
    "simulation.pool_start_s": ("s", "lower"),
    "simulation.pool_stop_s": ("s", "lower"),
    "simulation.scaling_eff": ("ratio", "higher"),
    "inputs.integer_cells_frac": ("frac", "higher"),
    "run.tracing_overhead_frac": ("frac", "lower"),
}


def layer_metrics(tracer) -> dict:
    """Per-layer values from the recorded spans and counts.

    ``simulation.scaling_eff`` and ``run.tracing_overhead_frac`` come from
    the untraced pass and are filled in by the caller.
    """
    spans = tracer.spans
    total, calls = _outer_durations(spans)
    selfs = _self_times(spans)
    c = tracer.counts
    hits, misses = tracer.hd_cache_info(tracer._caches.values())
    hits += c["hd_weight_hits"]
    misses += c["hd_weight_misses"]
    drawn = c["bootstrap.resample_matrices"]
    distinct = len(tracer.reuse_keys) + c["bootstrap.resample_distinct"]
    out = {
        "cli.self_s": selfs["cli.main"],
        "data.read_s": total["data.read"],
        "data.rows": c["data.rows"],
        "rng.stream_calls": calls["rng.stream"],
        "rng.stream_s": total["rng.stream"],
        "rng.derive_seed_calls": calls["rng.derive_seed"],
        "bootstrap.resample_s": total["bootstrap.resample"],
        "bootstrap.resample_matrices": drawn,
        "bootstrap.resample_elements": c["bootstrap.resample_elements"],
        "bootstrap.resample_reuse": distinct / drawn if drawn else 1.0,
        "bootstrap.reduce_s": total["bootstrap.reduce"],
        "bootstrap.reduce_calls": calls["bootstrap.reduce"],
        "multcomp.s": total["multcomp"],
        "multcomp.calls": calls["multcomp"],
        "contrasts.sort_s": selfs["contrasts.thetas"],
        "contrasts.sorted_elements": c["contrasts.sorted_elements"],
        "quantiles.estimator_s": total["quantiles.estimator"],
        "quantiles.estimator_calls": calls["quantiles.estimator"],
        "quantiles.estimator_rows": c["quantiles.estimator_rows"],
        "quantiles.hd_flops_computed": c["quantiles.hd_flops_computed"],
        "quantiles.hd_weight_build_s": total["quantiles.hd_weight_build"],
        "quantiles.hd_weight_misses": misses,
        "quantiles.hd_weight_hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "quantiles.betainc_s": total["quantiles.betainc"],
        "quantiles.betainc_calls": calls["quantiles.betainc"],
        "simulation.anova_s": total["simulation.anova"],
        "simulation.f_tail_s": total["simulation.f_tail"],
        "pairwise.build_sort_s": selfs["pairwise.diff_quantiles"],
        "pairwise.blocks": c["pairwise.blocks"],
        "pairwise.diff_elements": c["pairwise.diff_elements"],
        "pairwise.diff_bytes_computed": 8 * c["pairwise.diff_elements"],
        "pairwise.block_scratch_bytes": tracer.peaks.get("pairwise.block_scratch_bytes", 0),
        "distributions.generate_s": total["distributions.generate"],
        "distributions.generate_calls": calls["distributions.generate"],
        "design.sample_builds": calls["design.sample_build"],
        "design.sample_build_s": total["design.sample_build"],
        "design.small_n_warnings": c["design.small_n_warnings"],
        "simulation.pools_started": c["simulation.pools_started"],
        "simulation.pool_start_s": total["simulation.pool_start"],
        "simulation.pool_stop_s": total["simulation.pool_stop"],
        "inputs.integer_cells_frac": (
            c["inputs.integer_cells"] / c["inputs.cells"] if c["inputs.cells"] else 0.0),
    }
    for m in METHODS:
        n = c[f"iterations.{m}"]
        out[f"simulation.iteration_s.{m}"] = c[f"iteration_s.{m}"] / n if n else 0.0
    return out
