"""Runtime spans at fspair's module boundaries, installed from outside the
package.

Each wrapped function is replaced, in the module that looks it up, by a
wrapper that records one span (name, start, end, parent) per call and, for
a few functions, work counts computed from the call's inputs or result.
Nothing in ``src/`` is modified; ``Tracer.uninstall`` restores every
original binding.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _pair_atoms(fn, args, kwargs, pair) -> dict:
    return {"measures.atoms_built": len(pair.mu.atom_locations) + len(pair.a.lambdas)}


def _coeff_count(fn, args, kwargs, result) -> dict:
    return {"qseries.coeffs_made": _bound_args(fn, args, kwargs)["n_max"] + 1}


def _pairing_counts(fn, args, kwargs, result) -> dict:
    a = _bound_args(fn, args, kwargs)
    loc = a["mu"].atom_locations
    paired = np.abs(loc[np.abs(loc) <= a["T"]])
    # verify_pair memoises the unit-profile FT on |frequency|, so each
    # distinct |t| costs one FT evaluation
    return {"measures.atoms_paired": int(paired.size),
            "testfn.ft_evals": int(np.unique(paired).size)}


def _atom_terms(fn, args, kwargs, result) -> dict:
    return {"nevanlinna.atom_terms": len(args[0].pair.mu.atom_locations)}


# (module, attribute, span name, counter): every place a calling module looks
# a boundary function up.  The cli module holds its own bindings of the
# builders and coefficient functions; nevanlinna holds its own eval_G/eval_Shat.
def _boundaries():
    from fspair import cli, measures, nevanlinna, testfn

    out = [
        (cli, "run", "cli.run", None),
        (cli, "verify_pair", "testfn.verify_pair", None),
        (testfn, "integrate_against", "measures.integrate_against", _pairing_counts),
        (nevanlinna.HolomorphicModel, "integral_part", "nevanlinna.integral_part", _atom_terms),
        (nevanlinna, "eval_G", "kernels.eval_G", None),
        (nevanlinna, "eval_Shat", "kernels.eval_Shat", None),
    ]
    for mod in (cli, measures):
        for name in ("make_poisson", "make_guinand", "make_meyer"):
            out.append((mod, name, f"measures.{name}", _pair_atoms))
        for name in ("guinand_coeffs", "r3_sequence"):
            out.append((mod, name, f"qseries.{name}", _coeff_count))
    out.append((cli, "theta_coeffs", "qseries.theta_coeffs", _coeff_count))
    for name in ("build_model", "fit_q", "f_series", "f_integral", "ef_coeff",
                 "recover_measure", "nev_matrix", "neg_index", "bridge_sum",
                 "bridge_rhs"):
        out.append((nevanlinna, name, f"nevanlinna.{name}", None))
    return out


class Tracer:
    """Collects spans and counts while installed.  Spans are kept in memory
    as [name, start_ns, end_ns, parent_index] and written out by the caller."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._saved: list = []
        self._boundaries = _boundaries()

    def _wrap(self, fn, name, counter):
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter_ns()
            if counter is not None:
                for key, n in counter(fn, args, kwargs, result).items():
                    counts[key] += n
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in self._boundaries:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds
        (duration minus the time covered by direct child spans)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - covered) * 1e-9
        return dict(out)
