"""Untimed output checks against the per-replicate reference path.

The analysis commands are recomputed with the generic per-replicate
bootstrap (``bootstrap_statistic``: one Python call of a scalar statistic
per replicate, on the same seed and therefore the same resamples), the
scalar Harrell-Davis estimator, and the p-value and CI written out from
their definitions.  Estimates and CI ends must agree within
1e-9, p-values within 1/B.  ``plotdata`` prints six significant digits, so
its values must also agree within that rounding.
"""

import csv
import io
import json
import math
import os
import sys

TOL = 1e-9
PLOT_REL = 5e-6  # half a unit in the sixth significant digit


def _bootstrap_statistic(qs, root: str):
    fn = getattr(qs, "bootstrap_statistic", None)
    if fn is None:  # the reference path may live with the test oracles
        sys.path.insert(0, os.path.join(root, "tests"))
        from oracles import bootstrap_statistic as fn
    return fn


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _reduce(values, alpha: float) -> tuple:
    """Percentile CI and signed-count p-value, from their definitions.

    Written out here rather than taken from the package, so a change to
    the package's reduction cannot also change its own reference.  With l
    = alpha*B/2 rounded half to even, the CI is the (l+1)-th and (B-l)-th
    order statistics; with A replicates below zero and D at zero, p =
    min(2A + D, 2(B - A) - D) / B.
    """
    ordered = sorted(float(v) for v in getattr(values, "values", values))
    b = len(ordered)
    ell = round(alpha * b / 2.0)
    below = sum(v < 0.0 for v in ordered)
    zero = sum(v == 0.0 for v in ordered)
    return ordered[ell], ordered[b - ell - 1], min(2 * below + zero, 2 * (b - below) - zero) / b


class _Reference:
    """Reference rows for one data set, computed lazily and shared."""

    def __init__(self, qs, root, cells, n_boot, seed, alpha):
        self.qs = qs
        self.boot = _bootstrap_statistic(qs, root)
        self.cells = cells
        self.n_boot = n_boot
        self.seed = seed
        self.alpha = alpha
        self._cache = {}

    def _thetas(self, q: float):
        """Point and per-replicate cell quantiles at q, one reference pass."""
        if q not in self._cache:
            qs, np = self.qs, sys.modules["numpy"]
            replicates = []

            def stat(resampled):
                thetas = [qs.hd_quantile(c, q) for c in resampled]
                replicates.append(thetas)
                return qs.contrast_value(thetas, qs.INTERACTION)[2]

            config = qs.BootstrapConfig(n_boot=self.n_boot, alpha=self.alpha, seed=self.seed,
                                        estimator="hd", quantiles=qs.DECILES)
            self.boot(self.cells, stat, config)
            point = [qs.hd_quantile(c, q) for c in self.cells]
            self._cache[q] = (point, np.array(replicates).T)
        return self._cache[q]

    def contrast(self, kind: str, q: float):
        """(lev1, lev2, dif, ci_low, ci_high, p) for one cell-quantile contrast.

        The three contrasts are linear in the same per-replicate cell
        quantiles, so one reference pass per quantile serves all of them.
        """
        qs = self.qs
        point, replicates = self._thetas(q)
        lev1, lev2, dif = qs.contrast_value(point, kind)
        psi = qs.contrast_value(tuple(replicates), kind)[2]
        return (lev1, lev2, dif, *_reduce(psi, self.alpha))


def _check_rows(tag, rows, refs, n_boot, failures):
    for row, ref in zip(rows, refs):
        lev1, lev2, dif, lo, hi, p = ref
        for field, want in (("est_lev1", lev1), ("est_lev2", lev2), ("dif", dif),
                            ("ci_low", lo), ("ci_high", hi)):
            if not _close(row[field], want, TOL):
                failures.append(f"{tag} q={row['q']}: {field} {row[field]!r} != reference {want!r}")
        if not _close(row["p_value"], p, 1.0 / n_boot):
            failures.append(f"{tag} q={row['q']}: p {row['p_value']!r} != reference {p!r}")


def check_analysis(qs, root, cells, outputs, n_boot, seed, alpha=0.05) -> list:
    """Failures of the first ``decinter``, ``plotdata`` and ``iband`` outputs."""
    np = sys.modules["numpy"]
    missing = [c for c in ("decinter", "plotdata", "iband") if c not in outputs]
    if missing:
        return [f"{c}: no successful output to check" for c in missing]
    failures = []
    ref = _Reference(qs, root, cells, n_boot, seed, alpha)
    x11, x12, x21, x22 = cells

    payload = json.loads(outputs["decinter"])
    rows = payload["rows"]
    if [r["q"] for r in rows] != list(qs.DECILES):
        failures.append(f"decinter: quantiles {[r['q'] for r in rows]}")
    _check_rows("decinter", rows, [ref.contrast(qs.INTERACTION, q) for q in qs.DECILES],
                n_boot, failures)
    adjusted = qs.adjust_pvalues([r["p_value"] for r in rows], "bh")
    if any(not _close(r["p_adjusted"], a, 1e-12) for r, a in zip(rows, adjusted)):
        failures.append("decinter: p_adjusted is not the BH adjustment of p_value")

    pooled = {"a": np.concatenate([x11, x12]), "b": np.concatenate([x11, x21])}
    want = []
    for q in qs.DECILES:
        lev1, lev2, dif, lo, hi, _ = ref.contrast(qs.INTERACTION, q)
        want.append(("interaction", q, qs.hd_quantile(pooled["a"], q), dif, lo, hi))
    for kind, tag, key in ((qs.MAIN_A, "main-a", "a"), (qs.MAIN_B, "main-b", "b")):
        for q in qs.DECILES:
            lev1, _, dif, lo, hi, _ = ref.contrast(kind, q)
            want.append((f"{tag}-averaged", q, lev1, dif, lo, hi))
        for q in qs.DECILES:
            _, _, dif, lo, hi, _ = ref.contrast(kind, q)
            want.append((f"{tag}-pooled", q, qs.hd_quantile(pooled[key], q), dif, lo, hi))
    got = list(csv.reader(io.StringIO(outputs["plotdata"])))
    if got[:1] != [["panel", "quant", "x", "dif", "ci.low", "ci.up"]] or len(got) != len(want) + 1:
        failures.append(f"plotdata: header or row count wrong ({len(got) - 1} rows)")
    else:
        for row, ref_row in zip(got[1:], want):
            panel, q = ref_row[0], ref_row[1]
            if row[0] != panel or row[1] != f"{q:.6g}":
                failures.append(f"plotdata: row {row[:2]} where {panel} {q} was expected")
                continue
            for text, value in zip(row[2:], ref_row[2:]):
                if not _close(float(text), value, PLOT_REL * abs(value) + TOL):
                    failures.append(f"plotdata {panel} q={q}: {text} != reference {value!r}")

    payload = json.loads(outputs["iband"])
    rows = {r["q"]: r for r in payload["rows"]}
    if 0.5 not in rows:
        failures.append("iband: no median row")
    else:
        def med(resampled):
            a = qs.hd_quantile(qs.pairwise_differences(resampled[0], resampled[1]), 0.5)
            b = qs.hd_quantile(qs.pairwise_differences(resampled[2], resampled[3]), 0.5)
            return a - b

        est1 = qs.hd_quantile(qs.pairwise_differences(x11, x12), 0.5)
        est2 = qs.hd_quantile(qs.pairwise_differences(x21, x22), 0.5)
        config = qs.BootstrapConfig(n_boot=n_boot, alpha=alpha, seed=seed, estimator="hd",
                                    quantiles=qs.IBAND_QUANTILES)
        dist = ref.boot(cells, med, config)
        _check_rows("iband", [rows[0.5]], [(est1, est2, est1 - est2, *_reduce(dist.values, alpha))],
                    n_boot, failures)
    for level, (x, y) in ((1, (x11, x12)), (2, (x21, x22))):
        ph = float(np.mean(x[:, None] < y[None, :]))
        if not _close(payload.get(f"ph_level{level}", math.nan), ph, TOL):
            failures.append(f"iband: ph_level{level} {payload.get(f'ph_level{level}')!r} != {ph!r}")
    return failures


def check_sweep_pair(parallel, serial) -> list:
    """Reports at ``workers = nproc`` must equal those at ``workers = 1``."""
    failures = []
    if len(parallel) != len(serial):
        return [f"sweep: {len(parallel)} reports at nproc, {len(serial)} serially"]
    for a, b in zip(parallel, serial):
        if a.error or b.error:
            failures.append(f"sweep {a.condition.name}: error {a.error or b.error}")
        elif a != b:
            failures.append(f"sweep {a.condition.name}: nproc report differs from serial")
        elif not 0.0 <= a.rate <= 1.0:
            failures.append(f"sweep {a.condition.name}: rate {a.rate} outside [0, 1]")
    return failures
