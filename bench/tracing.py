"""Spans around the library's public functions, recorded from outside.

``Tracer`` rebinds each target to a wrapper that records a span: target,
start, end, parent span and request id.  A module-level function is rebound
in its defining module and in every ``bezoutian`` module that imported it by
name (cli, nuij, quasi, leray, energy and factorization do); a method is
rebound on its class.  Leaving the ``with`` block restores the original
objects, so an untraced run sees exactly the library as shipped.

Spans stay in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from functools import update_wrapper
from time import perf_counter

# (metric name, defining module, attribute or Class.attribute)
TARGETS = (
    ("polynomial.divmod", "bezoutian.polynomial", "Polynomial.__divmod__"),
    ("polynomial.mul", "bezoutian.polynomial", "Polynomial.__mul__"),
    ("polynomial.power_sums", "bezoutian.polynomial", "power_sums"),
    ("roots.poly_gcd", "bezoutian.roots", "poly_gcd"),
    ("roots.squarefree_decomposition", "bezoutian.roots", "squarefree_decomposition"),
    ("roots.sturm_real_root_count", "bezoutian.roots", "sturm_real_root_count"),
    ("roots.real_roots", "bezoutian.roots", "real_roots"),
    ("roots.is_hyperbolic", "bezoutian.roots", "is_hyperbolic"),
    ("bezout.bezout_matrix", "bezoutian.bezout", "bezout_matrix"),
    ("bezout.companion_matrix", "bezoutian.bezout", "companion_matrix"),
    ("bezout.psd_check", "bezoutian.bezout", "psd_check"),
    ("bezout.discriminant", "bezoutian.bezout", "discriminant"),
    ("bezout.resultant", "bezoutian.bezout", "resultant"),
    ("bezout.separation_lower_bound_check", "bezoutian.bezout", "separation_lower_bound_check"),
    ("exactla.det", "bezoutian.exactla", "det"),
    ("exactla.adjugate", "bezoutian.exactla", "adjugate"),
    ("exactla.psd_certificate", "bezoutian.exactla", "psd_certificate"),
    ("factorization.separates", "bezoutian.factorization", "separates"),
    ("factorization.lagrange_basis_matrix", "bezoutian.factorization", "lagrange_basis_matrix"),
    ("factorization.derivative_bound_constant", "bezoutian.factorization",
     "derivative_bound_constant"),
    ("nuij.nuij_transform", "bezoutian.nuij", "nuij_transform"),
    ("nuij.verify_gaps", "bezoutian.nuij", "verify_gaps"),
    ("nuij.invert_transform", "bezoutian.nuij", "invert_transform"),
    ("quasi.check_conditions", "bezoutian.quasi", "check_conditions"),
    ("quasi.verify_quasi", "bezoutian.quasi", "verify_quasi"),
    ("quasi.commutator_decomposition", "bezoutian.quasi", "commutator_decomposition"),
    ("leray.leray_symmetrizer", "bezoutian.leray", "leray_symmetrizer"),
    ("leray.h_b_relation_check", "bezoutian.leray", "h_b_relation_check"),
    ("energy.propagate", "bezoutian.energy", "propagate"),
    ("energy.energy_series", "bezoutian.energy", "energy_series"),
    ("energy.derivative_identity_check", "bezoutian.energy", "derivative_identity_check"),
    ("energy.chain_bound_check", "bezoutian.energy", "chain_bound_check"),
    ("report.to_json", "bezoutian.report", "CertifiedReport.to_json"),
)

# Every layer a run reports, "cli" being the request spans' own time in main().
LAYERS = ("cli",) + tuple(dict.fromkeys(name.split(".")[0] for name, _, _ in TARGETS))

# Targets whose argument repeats within a request are work a cache would save.
REPEAT_TRACKED = ("roots.real_roots", "bezout.bezout_matrix")
# Targets whose exact operands are measured for coefficient growth.
BITS_TRACKED = ("polynomial.divmod",)


def _coeff_bits(*polys) -> int:
    best = 0
    for p in polys:
        for c in getattr(p, "coeffs", ()):
            if isinstance(c, Fraction):
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return None
    return key


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(len(start))]
    for p, ivals in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(ivals):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class Tracer:
    """Context manager: wraps every target on entry, restores on exit."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.errors = defaultdict(int)
        self.repeats = defaultdict(int)
        self.tracked_calls = defaultdict(int)
        self.coeff_bits_max = defaultdict(int)
        self.request_id = -1
        self._seen = defaultdict(set)
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, idx: int) -> int:
        n = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(n)
        return n

    def _close(self, n: int) -> None:
        self.end[n] = perf_counter()
        self._stack.pop()

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        track = name in REPEAT_TRACKED
        bits = name in BITS_TRACKED

        def wrapper(*args, **kwargs):
            if not self._stack:  # outside every request, such as the checker's own calls
                return fn(*args, **kwargs)
            if track:
                key = _arg_key(args, kwargs)
                seen = self._seen[name]
                self.tracked_calls[name] += 1
                if key is not None:
                    if key in seen:
                        self.repeats[name] += 1
                    else:
                        seen.add(key)
            if bits:
                b = _coeff_bits(*args)
                if b > self.coeff_bits_max[name]:
                    self.coeff_bits_max[name] = b
            n = self._open(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(n)

        return update_wrapper(wrapper, fn)

    @contextmanager
    def request_span(self, request_id: int, label: str):
        """Root span of one request; ``label`` names it, such as ``cli.nuij``."""
        if label not in self.names:
            self.names.append(label)
        self.request_id = request_id
        self._seen.clear()
        n = self._open(self.names.index(label))
        try:
            yield
        finally:
            self._close(n)

    # -- install / restore -------------------------------------------------

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "bezoutian" or key.startswith("bezoutian.")]
        for idx, (_, modname, attr) in enumerate(TARGETS):
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._rebind(owner, meth, original, self._wrap(idx, original))
            else:
                original = getattr(mod, attr)
                wrapper = self._wrap(idx, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, original, wrapper)
        return self

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self, commands: dict, scale: dict | None = None) -> dict:
        """Totals per target and per layer.

        ``commands`` maps request id to subcommand; ``scale`` maps request id
        to the factor that calibrates its times (default 1).
        """
        scale = scale or {}
        selfs = self_times(self.start, self.end, self.parent)
        per = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        by_command_layer = defaultdict(float)
        for i, idx in enumerate(self.name):
            name = self.names[idx]
            k = scale.get(self.request[i], 1.0)
            row = per[name]
            row["calls"] += 1
            row["self_s"] += selfs[i] * k
            row["total_s"] += (self.end[i] - self.start[i]) * k
            command = commands.get(self.request[i], "?")
            by_command_layer[(command, name.split(".")[0])] += selfs[i] * k
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, row in per.items():
            layers[name.split(".")[0]] += row["self_s"]
        return {
            "functions": {name: dict(per[name], errors=self.errors.get(name, 0))
                          for name in self.names},
            "layers_self_s": layers,
            "command_layers_self_s": {f"{c}.{layer}": v
                                      for (c, layer), v in by_command_layer.items()},
            "repeat_ratio": {name: (self.repeats[name] / self.tracked_calls[name]
                                    if self.tracked_calls[name] else 0.0)
                             for name in REPEAT_TRACKED},
            "coeff_bits_max": dict(self.coeff_bits_max),
            "spans": len(self.start),
        }

    def write(self, path) -> None:
        """All spans as gzip CSV: span, name, start_s, end_s, parent, request."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "name", "start_s", "end_s", "parent", "request"))
            for i in range(len(self.start)):
                w.writerow((i, self.names[self.name[i]], repr(self.start[i]),
                            repr(self.end[i]), self.parent[i], self.request[i]))
