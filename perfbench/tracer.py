"""In-memory span recorder, installed from outside the package.

``install`` replaces each traced public function in every ``nu_spectral``
module namespace that holds it, and each traced ``Polynomial``/``SurdSum``
operator on its class, with a wrapper that records a span: name, start,
end, parent span and request id (the index of the workload op that caused
it), plus an error flag and a small integer of call-specific detail.  Bound
state samplers returned by the package are wrapped too.  Nothing under
``src/`` changes; ``uninstall`` restores every original.

A span's self time is its duration minus the time its direct children
cover.  Work the wrappers do not see (Fraction arithmetic, float Horner
evaluation, numpy) stays in the self time of the span that called it.
"""

from __future__ import annotations

import dataclasses
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, function, detail) -- detail maps (args, result) to an int
_FUNCTIONS = (
    ("potentials", "harmonic", None),
    ("potentials", "morse", None),
    ("potentials", "rosen_morse2", None),
    ("potentials", "bound_spectrum", lambda args, out: len(out)),
    ("potentials", "scattering_states", None),
    ("potentials", "oracle_spectrum", None),
    ("potentials", "normalization_defect", None),
    ("potentials", "wavefunction_residual", None),
    ("reduction", "reduce_ghe", None),
    ("reduction", "branch_candidates", lambda args, out: len(out)),
    ("reduction", "select_branch", None),
    ("reduction", "parse_ghe_text", None),
    ("classical", "classify_canonical", None),
    ("classical", "rodrigues_poly", lambda args, out: args[1]),
    ("classical", "recurrence_poly", lambda args, out: args[1]),
    ("scalars", "scalar_sign", None),
    ("scalars", "sqrt_scalar", None),
    ("oracle", "fd_bound_states", lambda args, out: args[1].n + args[1].coarsened().n),
    ("oracle", "compare_spectra", None),
    ("oracle", "quad_adaptive", None),
    ("oracle", "tanh_sinh", None),
    ("hyper", "hyp2f1", None),
    ("hyper", "hyp1f1", None),
    ("hyper", "hypU", None),
    ("hyper", "hermite_fn", None),
    ("hyper", "limit_2f1_at_1", None),
    ("hyper", "gamma_fn", None),
)

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__neg__", "__pow__", "__eq__")
_OPERATORS = (
    ("polynomials", "Polynomial", _ARITH + ("compose_affine", "derivative")),
    ("scalars", "SurdSum", _ARITH + ("__truediv__", "__rtruediv__", "inverse",
                                     "__lt__", "__le__", "__gt__", "__ge__", "__abs__")),
)


class Tracer:
    """Spans live in parallel integer arrays; ``names`` maps ids to names."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.request = [-1]
        self.stack = []
        self.cols = tuple(array("q") for _ in range(7))
        self.counters = defaultdict(int)
        self._undo = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.cols[0])

    def clear(self):
        for col in self.cols:
            del col[:]

    def wrap(self, name, fn, detail=None):
        nid = self.name_id(name)
        c_name, c_t0, c_t1, c_parent, c_req, c_err, c_detail = self.cols
        stack, request, clock = self.stack, self.request, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(c_name)
            c_name.append(nid)
            c_t0.append(0)
            c_t1.append(0)
            c_parent.append(stack[-1] if stack else -1)
            c_req.append(request[0])
            c_err.append(0)
            c_detail.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                c_err[idx] = 1
                raise
            else:
                if detail is not None:
                    c_detail[idx] = detail(args, out)
                return out
            finally:
                c_t1[idx] = clock()
                c_t0[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def record(self, name, t0_ns, t1_ns, err=False):
        """A span timed by the caller (used around CLI subprocesses)."""
        for col, val in zip(self.cols, (self.name_id(name), t0_ns, t1_ns, -1,
                                        self.request[0], int(err), 0)):
            col.append(val)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "nu_spectral" or name.startswith("nu_spectral.")}
        for modname, fname, detail in _FUNCTIONS:
            orig = getattr(mods[f"nu_spectral.{modname}"], fname)
            wrapped = self.wrap(f"{modname}.{fname}", orig, detail)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)
        for modname, clsname, attrs in _OPERATORS:
            cls = getattr(mods[f"nu_spectral.{modname}"], clsname)
            for attr in attrs:
                self._patch(cls, attr, self.wrap(f"{modname}.{clsname}.{attr}",
                                                 cls.__dict__[attr]))
        self._wrap_returned_samplers(mods["nu_spectral.potentials"])
        self._count_pinned(mods["nu_spectral.potentials"])

    def _wrap_returned_samplers(self, potentials):
        orig = potentials.bound_state

        def bound_state(*args, **kwargs):
            st = orig(*args, **kwargs)
            return dataclasses.replace(
                st, sampler=self.wrap("potentials.sampler", st.sampler))

        self._patch(potentials, "bound_state", bound_state)

    def _count_pinned(self, potentials):
        orig = potentials.pinned_branch
        counters = self.counters

        def pinned_branch(*args, **kwargs):
            out = orig(*args, **kwargs)
            counters["pinned"] += 1
            return out

        self._patch(potentials, "pinned_branch", pinned_branch)

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- analysis --------------------------------------------------------------

    def summarize(self):
        """Per span name: calls, inclusive ns, self ns, errors, detail sum and
        max, and entries (calls whose parent lies in another layer)."""
        c_name, c_t0, c_t1, c_parent, _, c_err, c_detail = self.cols
        n = len(c_name)
        child = [0] * n
        for i in range(n):
            p = c_parent[i]
            if p >= 0:
                child[p] += c_t1[i] - c_t0[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = {}
        for i in range(n):
            nid = c_name[i]
            rec = out.get(nid)
            if rec is None:
                rec = out[nid] = {"calls": 0, "incl_ns": 0, "self_ns": 0, "errors": 0,
                                  "detail_sum": 0, "detail_max": 0, "entries": 0}
            dur = c_t1[i] - c_t0[i]
            rec["calls"] += 1
            rec["incl_ns"] += dur
            rec["self_ns"] += dur - child[i]
            rec["errors"] += c_err[i]
            rec["detail_sum"] += c_detail[i]
            rec["detail_max"] = max(rec["detail_max"], c_detail[i])
            p = c_parent[i]
            if p < 0 or layer_of[c_name[p]] != layer_of[nid]:
                rec["entries"] += 1
        return {self.names[nid]: rec for nid, rec in out.items()}

    def write(self, path):
        """Spans as gzip'd tab-separated lines: name, start_ns, end_ns,
        parent index, request id, error flag, detail."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\terror\tdetail\n")
            for row in zip(*self.cols):
                fh.write("\t".join([self.names[row[0]], *map(str, row[1:])]) + "\n")
