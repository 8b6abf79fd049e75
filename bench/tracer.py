"""Span tracer installed from outside the anisotm package.

Each traced call records one span: a kind (the layer boundary it crossed),
start and end on the monotonic clock, the span that was open when it
started, a size (points, cells or a build flag, depending on the kind) and
an error code.  Spans live in flat arrays in memory and are written once,
when the traced run ends.

Wrappers go wherever a caller resolves the name: a module-level function is
replaced in every ``anisotm.*`` module whose namespace holds it (so
``anisotm.maximize.atmsc_value`` is wrapped, not only
``anisotm.functional.atmsc_value``), and methods are replaced on their
class.  ``Tracer.uninstall`` puts every original back.

``layer_metrics`` turns a span file into the per-layer metrics; self time
is a span's duration minus the durations of its direct child spans.
"""

import importlib
import sys
import time
from array import array

import numpy as np

# error codes stored per span
ERR_NONE, ERR_REJECT, ERR_OVERFLOW, ERR_OTHER = 0, 1, 2, 3


def _points(args):
    """Point count of the first argument of a gauge evaluation."""
    gauge, x = args[0], args[1]
    return int(np.size(x)) // gauge.dim


def _cells(args):
    return int(np.size(args[0].values))


class _PolarBuilds:
    """Marks a polar call as a build when it returns an object no earlier
    polar call involved; cache hits (including the polar-of-polar link back
    to the original gauge) return a known object."""

    def __init__(self):
        self.seen = {}

    def __call__(self, args, result):
        self.seen[id(args[0])] = args[0]
        if id(result) in self.seen:
            return 0
        self.seen[id(result)] = result   # held so ids are never reused
        return 1


# (span kind, module, attribute, size-before-call, size-after-call).
# The attribute is "name" for a module function or "Class.method".
TARGETS = (
    ("finsler.eval", "anisotm.finsler", "FinslerNorm.__call__", _points, None),
    ("finsler.grad", "anisotm.finsler", "FinslerNorm.grad", _points, None),
    ("finsler.polar", "anisotm.finsler", "FinslerNorm.polar", None, _PolarBuilds),
    ("finsler.kappa", "anisotm.finsler", "unit_ball_measure", None, None),
    ("finsler.residual", "anisotm.finsler", "bipolar_residual", None, None),
    ("finsler.residual", "anisotm.finsler", "coarea_surface_check", None, None),
    ("rearrange.symmetrize", "anisotm.rearrange", "convex_symmetrization", _cells, None),
    ("rearrange.rearrangement", "anisotm.rearrange", "decreasing_rearrangement", None, None),
    ("rearrange.profile_of", "anisotm.rearrange", "profile_of", None, None),
    ("rearrange.rasterize", "anisotm.rearrange", "rasterize_profile", None, None),
    ("rearrange.check", "anisotm.rearrange", "polya_szego_check", None, None),
    ("rearrange.check", "anisotm.rearrange", "hardy_littlewood_check", None, None),
    ("rearrange.check", "anisotm.rearrange", "equimeasurability_gaps", None, None),
    ("rearrange.check", "anisotm.rearrange", "grid_dirichlet_energy", None, None),
    ("functional.value", "anisotm.functional", "atmsc_value", None, None),
    ("functional.value", "anisotm.functional", "critical_value", None, None),
    ("functional.normalize", "anisotm.functional", "normalize_sphere", None, None),
    ("functional.constraint", "anisotm.functional", "constraint_scale", None, None),
    ("profiles.construct", "anisotm.profiles", "RadialProfile.__init__", None, None),
    ("maximize.estimate_f", "anisotm.maximize", "estimate_f", None, None),
    ("maximize.direct_critical_max", "anisotm.maximize", "direct_critical_max", None, None),
    ("maximize.identity_sweep", "anisotm.maximize", "identity_sweep", None, None),
    ("maximize.isotonic", "anisotm.maximize", "isotonic_nonincreasing", None, None),
    ("maximize.diagnostics", "anisotm.maximize", "maximizer_diagnostics", None, None),
    ("cli.main", "anisotm.cli", "main", None, None),
    ("cli.io", "anisotm.cli", "_write_json", None, None),
    ("cli.io", "anisotm.cli", "_write_csv", None, None),
    ("cli.io", "anisotm.profiles", "RadialProfile.save", None, None),
)

KINDS = tuple(dict.fromkeys(t[0] for t in TARGETS))
SEARCH_KINDS = ("maximize.estimate_f", "maximize.direct_critical_max")


def _error_code(err):
    name = type(err).__name__
    if name in ("ParamError", "FunctionalOverflowError"):
        return ERR_REJECT
    if name == "SupportOverflowError":
        return ERR_OVERFLOW
    return ERR_OTHER


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.error = array("b")
        self._stack = [-1]
        self._patches = []       # (owner, attribute, original)
        self.missing = []        # targets absent from this version

    def wrap(self, kind, fn, before=None, after=None):
        """A wrapper of fn that records one span per call."""
        code = KINDS.index(kind) if kind in KINDS else len(KINDS)
        kinds, parents, starts, ends = self.kind, self.parent, self.start, self.end
        sizes, errors, stack = self.size, self.error, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(kinds)
            kinds.append(code)
            parents.append(stack[-1])
            sizes.append(before(args) if before else 0)
            errors.append(ERR_NONE)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                errors[sid] = _error_code(err)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                sizes[sid] = after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", kind)
        traced.__qualname__ = getattr(fn, "__qualname__", kind)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        for kind, modname, attr, before, after_factory in targets:
            module = importlib.import_module(modname)
            after = after_factory() if after_factory else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(f"{modname}.{attr}")
                    continue
                orig = vars(cls)[meth]
                self._patch(cls, meth, orig, self.wrap(kind, orig, before, after))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(kind, orig, before, after)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "anisotm" or name.startswith("anisotm.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)
        return self

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self):
        return {"kind": np.frombuffer(self.kind, dtype=np.uint16).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "size": np.frombuffer(self.size, dtype=np.int64).copy(),
                "error": np.frombuffer(self.error, dtype=np.int8).copy()}

    def save(self, path):
        np.savez(path, run_id=np.array(self.run_id), kinds=np.array(KINDS),
                 **self.arrays())


def self_times(parent, duration):
    """Duration minus the summed durations of each span's direct children."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=duration.size)
    return duration - covered


def wrapper_cost(calls=20000):
    """Measured cost in seconds of one traced call of an empty function."""
    tracer = Tracer("calibration")
    wrapped = tracer.wrap("calibration", lambda: None)
    plain = lambda: None  # noqa: E731
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def layer_metrics(spans):
    """Per-layer metrics from span arrays (a mapping as written by save).

    Times ending in _s are self times unless README.md marks them inclusive.
    """
    names = [str(k) for k in spans["kinds"]]
    kind = spans["kind"].astype(np.int64)
    parent = spans["parent"]
    size = spans["size"]
    error = spans["error"]
    dur = spans["end"] - spans["start"]
    selft = self_times(parent, dur)

    def code(name):
        return names.index(name) if name in names else -1

    def mask(*kinds):
        return np.isin(kind, [code(k) for k in kinds])

    # nearest search span (estimate_f or direct_critical_max), self included
    search_codes = {code(k) for k in SEARCH_KINDS}
    owner = np.full(kind.size, -1, dtype=np.int64)
    for i in range(kind.size):
        if kind[i] in search_codes:
            owner[i] = i
        elif parent[i] >= 0:
            owner[i] = owner[parent[i]]
    parent_kind = np.where(parent >= 0, kind[np.maximum(parent, 0)], -1)

    value = mask("functional.value")
    sub_owner = owner[value & (owner >= 0)]
    sub_evals = int(np.sum(kind[sub_owner] == code("maximize.estimate_f")))
    crit_evals = int(np.sum(kind[sub_owner] == code("maximize.direct_critical_max")))
    searches = int(np.sum(mask(*SEARCH_KINDS)))
    maximize_codes = [code(k) for k in KINDS if k.startswith("maximize.")]
    rejects = int(np.sum(mask("functional.value", "functional.normalize",
                              "functional.constraint")
                         & (error == ERR_REJECT)
                         & np.isin(parent_kind, maximize_codes)))
    objective_evals = int(np.sum(mask("maximize.isotonic") & (owner >= 0)))
    useful = int(np.sum(value & (owner >= 0) & (error == ERR_NONE)))
    value_calls = int(np.sum(value))
    value_s = float(np.sum(selft[value]))
    polar = mask("finsler.polar")
    outer_polar = polar & (parent_kind != code("finsler.polar"))
    sweep_points = mask("maximize.estimate_f") & (parent_kind == code("maximize.identity_sweep"))

    def total(*kinds):
        return float(np.sum(selft[mask(*kinds)]))

    def inclusive(m):
        return float(np.sum(dur[m]))

    return {
        "functional.value_calls": value_calls,
        "functional.value_s": value_s,
        "functional.value_us": 1e6 * value_s / value_calls if value_calls else 0.0,
        "functional.normalize_calls": int(np.sum(mask("functional.normalize"))),
        "functional.normalize_s": total("functional.normalize"),
        "functional.constraint_calls": int(np.sum(mask("functional.constraint"))),
        "functional.constraint_s": total("functional.constraint"),
        "functional.rejects": rejects,
        "functional.useful_ratio": useful / objective_evals if objective_evals else 0.0,
        "profiles.constructs": int(np.sum(mask("profiles.construct"))),
        "profiles.construct_s": total("profiles.construct"),
        "maximize.searches": searches,
        "maximize.evals_per_search": (sub_evals + crit_evals) / searches if searches else 0.0,
        "maximize.subcritical_evals": sub_evals,
        "maximize.critical_evals": crit_evals,
        "maximize.isotonic_calls": int(np.sum(mask("maximize.isotonic"))),
        "maximize.isotonic_s": total("maximize.isotonic"),
        "maximize.self_s": total(*SEARCH_KINDS, "maximize.identity_sweep"),
        "maximize.diagnostics_s": inclusive(mask("maximize.diagnostics")),
        "maximize.sweep_point_s": (float(np.median(dur[sweep_points]))
                                   if np.any(sweep_points) else 0.0),
        "finsler.polar_builds": int(np.sum(size[polar])),
        "finsler.polar_s": inclusive(outer_polar & (size == 1)),
        "finsler.kappa_s": inclusive(mask("finsler.kappa")),
        "finsler.residual_s": inclusive(mask("finsler.residual")),
        "finsler.eval_points": int(np.sum(size[mask("finsler.eval")])),
        "finsler.eval_s": total("finsler.eval"),
        "finsler.grad_points": int(np.sum(size[mask("finsler.grad")])),
        "finsler.grad_s": total("finsler.grad"),
        "rearrange.cells": int(np.sum(size[mask("rearrange.symmetrize")])),
        "rearrange.symmetrize_s": total("rearrange.symmetrize"),
        "rearrange.rearrangement_s": total("rearrange.rearrangement"),
        "rearrange.profile_of_s": total("rearrange.profile_of"),
        "rearrange.check_s": total("rearrange.check"),
        "rearrange.rasterize_s": total("rearrange.rasterize"),
        "rearrange.overflows": int(np.sum(mask("rearrange.symmetrize", "rearrange.rasterize")
                                          & (error == ERR_OVERFLOW))),
        "cli.io_s": inclusive(mask("cli.io")),
        "trace.spans": int(kind.size),
    }


def search_breakdown(spans):
    """Per top-level search span: calls and self time of each child kind.

    Returns a list of {"search", "seconds", "layers": {kind: (calls, self_s)}}
    covering every estimate_f and direct_critical_max span that is not inside
    an identity sweep, plus one merged entry per identity sweep.
    """
    names = [str(k) for k in spans["kinds"]]
    kind = spans["kind"].astype(np.int64)
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    selft = self_times(parent, dur)
    roots = {names.index(k) for k in (*SEARCH_KINDS, "maximize.identity_sweep")
             if k in names}
    root = np.full(kind.size, -1, dtype=np.int64)
    for i in range(kind.size):
        if parent[i] >= 0 and root[parent[i]] >= 0:
            root[i] = root[parent[i]]
        elif kind[i] in roots:
            root[i] = i
    out = []
    for r in np.flatnonzero(root == np.arange(kind.size)):
        inside = root == r
        layers = {}
        for k in np.unique(kind[inside]):
            m = inside & (kind == k)
            layers[names[k]] = (int(np.sum(m)), float(np.sum(selft[m])))
        out.append({"search": names[kind[r]], "seconds": float(dur[r]),
                    "layers": layers})
    return out
