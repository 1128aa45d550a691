"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces the module attributes that one layer calls
another through with wrappers that record a span (name, start, end, parent,
seed) plus one or two numbers read from the call (steps, samples, RSS rise).
Spans are kept in memory and written once, by ``save``, when the call
ends. The wrappers pass arguments and results through
untouched, so a traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import math
import resource
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _accept_ratio(args, kwargs, result):
    """Computed acceptance rate of the distinct-index rejection sampler,
    prod(1 - i / pool); NaN when the call enumerated exhaustively."""
    est = result[1]
    if not est.sampled:
        return math.nan
    m = est.m
    pool = args[0].n - len(set(_arg(args, kwargs, 2, "forbidden")))
    return math.prod(1 - i / pool for i in range(m))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one (index, name, parent, seed, start, end, value, aux) per span,
        # appended when the span ends; the index is its order of entry
        self.spans: list[tuple] = []
        self._next = 0
        self._stack = [-1]
        self._seed = -1

    def wrap(self, owner, attr, *, seed=None, value=None, aux=None,
             rss=False):
        """Replace ``owner.attr`` by a recording wrapper. ``seed`` gives the
        (index, keyword) of the cell seed argument; ``value`` and ``aux``
        map (args, kwargs, result) to the span's numbers; ``rss`` records
        the rise in peak RSS (KiB) across the call as its value."""
        fn = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(attr)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if seed is not None:
                self._seed = int(_arg(args, kwargs, *seed))
            i = self._next
            self._next = i + 1
            parent = stack[-1]
            stack.append(i)
            if rss:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            v = a = 0.0
            if rss:
                v = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
            elif value:
                v = value(args, kwargs, result)
            if aux:
                a = aux(args, kwargs, result)
            spans.append((i, name_id, parent, self._seed, t0, t1, v, a))
            return result

        setattr(owner, attr, recorded)

    def install(self) -> None:
        """Wrap the names the layers call each other through."""
        from plantedclique import chains, energy, harness

        self.wrap(harness, "gen_planted", seed=(2, "seed"), rss=True)
        self.wrap(harness, "run_chain", seed=(5, "seed"),
                  value=lambda a, kw, r: r.steps,
                  aux=lambda a, kw, r: float(isinstance(_arg(a, kw, 2, "kind"),
                                                        chains.GibbsChain)))
        self.wrap(harness, "run_coupled_gd", seed=(5, "seed"),
                  value=lambda a, kw, r: r.planted.steps + r.unplanted.steps)
        self.wrap(harness, "enumerate_local_minima", seed=(5, "seed"),
                  value=lambda a, kw, r: r[1].samples, aux=_accept_ratio)
        self.wrap(harness, "brute_force_min",
                  value=lambda a, kw, r: 2.0 ** a[0].n)
        self.wrap(chains, "gen_coupled", rss=True)
        self.wrap(chains, "init_state")
        self.wrap(chains, "apply_flip")
        self.wrap(chains, "gibbs_step")
        self.wrap(energy.SubsetState, "all_flip_deltas")
        self.wrap(chains.Trajectory, "to_csv")

    def save(self, path) -> None:
        """Write the spans in entry order, one array per column, so the
        parent column indexes rows. (A span that raised is missing; the call
        it belongs to failed and its spans are not used.)"""
        rows = sorted(self.spans)
        cols = list(zip(*rows)) if rows else [()] * 8
        np.savez(path, names=np.array(self.names),
                 name=np.array(cols[1], dtype=np.int64),
                 parent=np.array(cols[2], dtype=np.int64),
                 seed=np.array(cols[3], dtype=np.int64),
                 start=np.array(cols[4], dtype=np.float64),
                 end=np.array(cols[5], dtype=np.float64),
                 value=np.array(cols[6], dtype=np.float64),
                 aux=np.array(cols[7], dtype=np.float64))
