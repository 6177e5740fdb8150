"""In-memory spans around calls into each dioapprox layer.

The recorder wraps every public function of the layer modules, and the
``QuadIrr`` arithmetic methods, at the places callers look them up at
run time: module globals (``dioapprox.approx.compare``), module
attributes (``dioapprox.farey.bracket``), class attributes and
module-level dispatch tables.  Nothing under ``src/`` changes;
``uninstall`` puts every original back.

Each span is a row of parallel arrays: name, start, end, parent span,
op id and whether the call raised.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from statistics import median
from time import perf_counter

LAYERS = ("exactnum", "farey", "approx", "beatty", "nonarch", "cli")

QUAD_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "inverse")

APPROX_BUILDERS = ("dirichlet", "large_denominator", "segre", "hurwitz", "one_sided")

BEATTY_FUNCS = ("window", "mu", "member", "partition_check", "verify_implication",
                "certificate_search", "separation_witness", "ap_decomposition",
                "common_elements", "dmo_window_search", "residue_search",
                "kronecker_search")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []
        self.clear()

    def clear(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")

    def wrap(self, span_name: str, fn):
        nid = self.name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.op.append(rec.op_id)
            rec.raised.append(0)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.raised[idx] = 1
                raise
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()

        return traced

    # -- installing -----------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(f"dioapprox.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            public = getattr(mod, "__all__", None) or ("run", "build_parser")
            for attr in public:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        quad = mods["exactnum"].QuadIrr
        for attr in QUAD_ARITH:
            self._set(quad, attr, self.wrap(f"exactnum.QuadIrr.{attr}", quad.__dict__[attr]))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._undo.append((value.__setitem__, key, item))
                            value[key] = wrapped[id(item)]

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            put, key, original = self._undo.pop()
            put(key, original)

    # -- deriving -------------------------------------------------------

    def derive(self) -> dict:
        """Counts and self times of the recorded spans, keyed by metric name."""
        n = len(self.name)
        names = self.names
        layer_of = [s.split(".", 1)[0] for s in names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_t = list(dur)
        # outermost enclosing span below the cli layer
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_t[p] -= dur[i]
            root[i] = root[p] if p >= 0 and layer_of[self.name[p]] != "cli" else i

        def nid(span_name):
            return self.name_ids.get(span_name, -2)

        entry = [p < 0 or layer_of[self.name[p]] != layer_of[self.name[i]]
                 for i, p in enumerate(self.parent)]
        calls: dict[int, int] = {}
        self_s: dict[int, float] = {}
        entry_ms: dict[int, list] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            k = self.name[i]
            calls[k] = calls.get(k, 0) + 1
            self_s[k] = self_s.get(k, 0.0) + self_t[i]
            layer_self[layer_of[k]] += self_t[i]
            if entry[i]:
                entry_ms.setdefault(k, []).append(dur[i] * 1e3)

        def count(*span_names):
            return sum(calls.get(nid(s), 0) for s in span_names)

        def self_sum(*span_names):
            return sum(self_s.get(nid(s), 0.0) for s in span_names)

        def p50(span_name):
            samples = entry_ms.get(nid(span_name))
            return median(samples) if samples else 0.0

        quad = [f"exactnum.QuadIrr.{a}" for a in QUAD_ARITH]
        bracket, compare, floor_of = nid("farey.bracket"), nid("exactnum.compare"), nid("exactnum.floor_of")
        builders = {nid(f"approx.{f}") for f in APPROX_BUILDERS}
        beatty_ids = {nid(f"beatty.{f}") for f in BEATTY_FUNCS}

        bracket_steps = certs = approx_brackets = beatty_ops = beatty_floor = beatty_compare = 0
        for i in range(n):
            k = self.name[i]
            p = self.parent[i]
            rk = self.name[root[i]]
            if k == compare and p >= 0 and self.name[p] == bracket:
                bracket_steps += 1
            if k in builders and entry[i] and not self.raised[i]:
                certs += 1
            if k == bracket and layer_of[rk] == "approx":
                approx_brackets += 1
            if layer_of[rk] == "beatty":
                if entry[i] and k in beatty_ids:
                    beatty_ops += 1
                elif k == floor_of:
                    beatty_floor += 1
                elif k == compare:
                    beatty_compare += 1

        m = {
            "exactnum.self_s": layer_self["exactnum"],
            "exactnum.compare.calls": count("exactnum.compare"),
            "exactnum.radical_sign.calls": count("exactnum.radical_sign"),
            "exactnum.radical_sign.self_s": self_sum("exactnum.radical_sign"),
            "exactnum.squarefree_split.calls": count("exactnum.squarefree_split"),
            "exactnum.squarefree_split.self_s": self_sum("exactnum.squarefree_split"),
            "exactnum.floor_of.calls": count("exactnum.floor_of"),
            "exactnum.floor_of.self_s": self_sum("exactnum.floor_of"),
            "exactnum.quad_arith.calls": count(*quad),
            "exactnum.quad_arith.self_s": self_sum(*quad),
            "exactnum.parse_exact.self_s": self_sum("exactnum.parse_exact"),
            "farey.bracket.calls": count("farey.bracket"),
            "farey.bracket.self_s": self_sum("farey.bracket"),
            "farey.bracket.steps_per_call": _ratio(bracket_steps, count("farey.bracket")),
            "approx.certs": certs,
            "approx.self_s": layer_self["approx"],
            "approx.brackets_per_cert": _ratio(approx_brackets, certs),
            "approx.verify.calls": count("approx.verify"),
            "approx.verify.self_s": self_sum("approx.verify"),
        }
        for f in APPROX_BUILDERS:
            m[f"approx.{f}.p50_ms"] = p50(f"approx.{f}")
        m["beatty.self_s"] = layer_self["beatty"]
        for f in BEATTY_FUNCS:
            m[f"beatty.{f}.calls"] = count(f"beatty.{f}")
            m[f"beatty.{f}.p50_ms"] = p50(f"beatty.{f}")
        m["beatty.floor_of_per_op"] = _ratio(beatty_floor, beatty_ops)
        m["beatty.compare_per_op"] = _ratio(beatty_compare, beatty_ops)
        m.update({
            "nonarch.self_s": layer_self["nonarch"],
            "nonarch.mul.calls": count("nonarch.mul"),
            "nonarch.mul.self_s": self_sum("nonarch.mul"),
            "nonarch.div.self_s": self_sum("nonarch.div"),
            "nonarch.floor_ip.calls": count("nonarch.floor_ip"),
            "nonarch.floor_ip.self_s": self_sum("nonarch.floor_ip"),
            "nonarch.beatty_nonarch.calls": count("nonarch.beatty_nonarch"),
            "nonarch.linf_experiment.p50_ms": p50("nonarch.linf_experiment"),
        })
        return m


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
