"""Outside-in tracing of the ifslab layers.

The tracer wraps public functions of each module from outside: it
rebinds module attributes (in every ifslab module that imported the
function by name, so `_omega_raw` is caught wherever it is called) and
class attributes for the methods (`LeftOrbitCursor.advance`,
`RightOrbitState.advance`, `GeneratorStream.generator_at`,
`MoebiusMap.__post_init__`).  Nothing inside the program changes.

Each call records a span (id, name, start, end, parent span, task id) in
two flat arrays kept in memory and written out by `dump`; counts and self
time (span time minus the time of its child spans) are accumulated as
the spans close.  `uninstall` puts every original object back.
"""

from __future__ import annotations

import array
import json
import math
import pathlib
import sys
import time
import weakref

# (span name, module, attribute path); several targets may share a name.
TARGETS = (
    ("geometry.omega", "ifslab.geometry", "_omega_raw"),
    ("geometry.disc_point", "ifslab.geometry", "disc_point"),
    ("moebius.construct", "ifslab.moebius", "MoebiusMap.__post_init__"),
    ("moebius.compose", "ifslab.moebius", "compose"),
    ("moebius.apply", "ifslab.moebius", "apply"),
    ("moebius.kth_root", "ifslab.moebius", "kth_root"),
    ("moebius.power", "ifslab.moebius", "power"),
    ("holomap.eval", "ifslab.holomap", "eval_raw"),
    ("holomap.deriv", "ifslab.holomap", "_deriv_raw"),
    ("holomap.distortion", "ifslab.holomap", "distortion"),
    ("holomap.as_automorphism", "ifslab.holomap", "as_automorphism"),
    ("ifs.left_advance", "ifslab.ifs", "LeftOrbitCursor.advance"),
    ("ifs.right_advance", "ifslab.ifs", "RightOrbitState.advance"),
    ("ifs.verify_backward", "ifslab.ifs", "verify_backward_orbit"),
    ("ifs.generator_at", "ifslab.ifs", "GeneratorStream.generator_at"),
    ("straighten.left", "ifslab.straighten", "left_straighten"),
    ("straighten.right", "ifslab.straighten", "right_straighten"),
    ("criteria.series", "ifslab.criteria", "distortion_series"),
    ("criteria.classify_left", "ifslab.criteria", "classify_left_limits"),
    ("criteria.classify_right", "ifslab.criteria", "classify_right_limits"),
    ("criteria.right_product", "ifslab.criteria", "_right_distortion_product"),
    ("criteria.fixed_points", "ifslab.criteria", "track_fixed_points"),
    ("bounds.margin", "ifslab.bounds", "margin"),
    ("bounds.best_automorphism", "ifslab.bounds", "best_automorphism"),
    ("gallery.build_dense", "ifslab.gallery", "build_dense"),
    ("gallery.sup_deviation", "ifslab.gallery", "sup_deviation"),
    ("gallery.build_escape_return", "ifslab.gallery", "build_escape_return"),
    ("cli.main", "ifslab.cli", "main"),
    # serialisation and the file write together; nested spans of one
    # name still add up to the outermost span's time
    ("cli.write", "ifslab.cli", "_write_json"),
    ("cli.write", "ifslab.cli", "_write_csv"),
    ("cli.write", "ifslab.cli", "_write_text"),
)

NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))
KINDS = {
    "Scale": "scale",
    "Monomial": "monomial",
    "Blaschke": "blaschke",
    "Constant": "constant",
    "Mobius": "mobius",
    "Compose": "compose",
    "HalfPlaneAffine": "hp_affine",
}
MARK = "__perfbench_wrapper__"


def _ifslab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "ifslab" or name.startswith("ifslab.")]


def _owner(module: str, path: str):
    """(object holding the attribute, attribute name) for a target path."""
    obj = sys.modules[module]
    parts = path.split(".")
    for p in parts[:-1]:
        obj = getattr(obj, p)
    return obj, parts[-1]


def leftover_wrappers() -> list:
    """Tracer wrappers still bound anywhere in ifslab; empty when clean."""
    found = []
    for m in _ifslab_modules():
        for attr, val in vars(m).items():
            if getattr(val, MARK, False):
                found.append(f"{m.__name__}.{attr}")
    for _, module, path in TARGETS:
        owner, attr = _owner(module, path)
        if getattr(vars(owner).get(attr), MARK, False):
            found.append(f"{module}.{path}")
    return found


class Tracer:
    def __init__(self):
        n = len(NAMES)
        self.nid = {name: i for i, name in enumerate(NAMES)}
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.active = [0] * n
        self.counts = {}
        self.ids = array.array("i")  # span id, name id, parent span id, task id
        self.times = array.array("q")  # start ns, end ns
        self.stack = [[-1, 0]]  # open spans: [span id, child time ns]
        self.task = [-1]
        self._next = [0]
        self._saved = []

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # hooks see the arguments and the result of a call that returned
    def _hooks(self):
        nid, active, bump = self.nid, self.active, self.bump
        right, verify, dense = nid["ifs.right_advance"], nid["ifs.verify_backward"], nid["gallery.build_dense"]

        def on_eval(args, result):
            bump("holomap.eval." + KINDS.get(type(args[0]).__name__, "other"))
            if active[right]:
                bump("ifs.right.evals")
            if active[verify]:
                bump("ifs.verify_backward.evals")

        saturated = weakref.WeakKeyDictionary()  # cursor -> pairs counted so far

        def on_left(args, cursor):
            now = len(cursor.saturated_pairs)
            seen = saturated.get(cursor, 0)
            if now != seen:
                bump("ifs.saturated_pairs", now - seen)
                saturated[cursor] = now

        def on_right(args, state):
            bump("ifs.right.seed_steps", len(state.seeds))

        def on_kth_root(args, result):
            if active[dense]:
                bump("gallery.probes")

        def on_dense(args, build):
            bump("gallery.stages", len(build.certs))
            bump("gallery.maps_emitted", len(build.maps))

        def on_escape(args, build):
            bump("gallery.maps_emitted", len(build.maps))

        def on_left_straighten(args, res):
            bump("straighten.left.steps", res.steps)

        def on_write_text(args, result):
            bump("cli.write.bytes", len(args[1]))  # artifacts are ASCII

        return {
            "eval_raw": on_eval,
            "LeftOrbitCursor.advance": on_left,
            "RightOrbitState.advance": on_right,
            "kth_root": on_kth_root,
            "build_dense": on_dense,
            "build_escape_return": on_escape,
            "left_straighten": on_left_straighten,
            "_write_text": on_write_text,
        }

    def _wrap(self, name: str, fn, hook):
        nid = self.nid[name]
        calls, self_ns, active = self.calls, self.self_ns, self.active
        stack, task, ids, times, counter = self.stack, self.task, self.ids, self.times, self._next
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = counter[0]
            counter[0] = sid + 1
            parent = stack[-1]
            frame = [sid, 0]
            stack.append(frame)
            active[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[nid] -= 1
                stack.pop()
                dur = end - start
                parent[1] += dur
                self_ns[nid] += dur - frame[1]
                calls[nid] += 1
                ids.extend((sid, nid, parent[0], task[0]))
                times.extend((start, end))
            if hook is not None:
                hook(args, result)
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        hooks = self._hooks()
        modules = _ifslab_modules()
        for name, module, path in TARGETS:
            owner, attr = _owner(module, path)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, hooks.get(path))
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # every module that imported the function by name
            for m in modules:
                for a, val in list(vars(m).items()):
                    if val is original:
                        self._saved.append((m, a, original))
                        setattr(m, a, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metric(self, name: str, field: str) -> float:
        i = self.nid[name]
        return self.calls[i] if field == "calls" else self.self_ns[i] / 1e9

    def dump(self, stem: pathlib.Path, tasks: list) -> None:
        """Write the spans: a JSON index plus two raw little-endian arrays."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{stem}.ids.bin", "wb") as fh:
            self.ids.tofile(fh)
        with open(f"{stem}.times.bin", "wb") as fh:
            self.times.tofile(fh)
        index = {
            "names": list(NAMES),
            "tasks": tasks,
            "spans": len(self.ids) // 4,
            "ids": {"file": f"{stem.name}.ids.bin", "type": "int32", "row": ["span", "name", "parent", "task"]},
            "times": {"file": f"{stem.name}.times.bin", "type": "int64", "row": ["start_ns", "end_ns"]},
            "byteorder": sys.byteorder,
        }
        pathlib.Path(f"{stem}.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scaling_exp(small: int, large: int) -> float:
    """Exponent of growth when the size doubles, from two exact counts."""
    return math.log2(large / small) if small > 0 and large > 0 else 0.0


def layer_metrics(t: Tracer) -> dict:
    """The per-layer metrics that one tracer's spans and counts give."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    calls = ("geometry.omega", "geometry.disc_point", "moebius.construct", "moebius.compose",
             "moebius.apply", "moebius.kth_root", "moebius.power", "holomap.eval", "holomap.deriv",
             "holomap.distortion", "holomap.as_automorphism", "ifs.left_advance", "ifs.right_advance",
             "ifs.verify_backward", "ifs.generator_at", "criteria.right_product", "bounds.margin")
    selfs = ("geometry.omega", "moebius.construct", "moebius.compose", "moebius.apply",
             "moebius.kth_root", "holomap.eval", "holomap.deriv", "holomap.distortion",
             "ifs.left_advance", "ifs.right_advance", "ifs.verify_backward", "straighten.left",
             "straighten.right", "criteria.series", "criteria.classify_left", "criteria.classify_right",
             "criteria.right_product", "criteria.fixed_points", "bounds.margin",
             "bounds.best_automorphism", "gallery.build_dense", "gallery.sup_deviation",
             "gallery.build_escape_return", "cli.main", "cli.write")
    for name in calls:
        put(f"{name}.calls", t.metric(name, "calls"), "count")
    for name in selfs:
        put(f"{name}.self_s", t.metric(name, "self_s"), "s")
    c = t.counts.get
    for kind in KINDS.values():
        put(f"holomap.eval.{kind}.calls", c(f"holomap.eval.{kind}", 0), "count")
    put("holomap.evals_per_step", _ratio(t.metric("holomap.eval", "calls"), t.metric("ifs.generator_at", "calls")), "ratio")
    put("ifs.saturated_pairs", c("ifs.saturated_pairs", 0), "count")
    put("ifs.right.evals_per_step", _ratio(c("ifs.right.evals", 0), c("ifs.right.seed_steps", 0)), "ratio")
    put("straighten.left.steps", c("straighten.left.steps", 0), "count")
    put("gallery.probes_per_stage", _ratio(c("gallery.probes", 0), c("gallery.stages", 0)), "ratio")
    put("gallery.maps_emitted", c("gallery.maps_emitted", 0), "count")
    put("cli.write.bytes", c("cli.write.bytes", 0), "bytes")
    return out
